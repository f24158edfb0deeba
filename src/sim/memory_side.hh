/**
 * @file
 * The interface a Bus uses to reach whatever stands behind it.
 *
 * On a flat machine that is main memory; on the hierarchical machine
 * of src/hier it is a cluster cache, which may not be able to service
 * a request this cycle (it first has to fetch or acquire ownership
 * over the next-level bus).  Every try* method returns false to NACK
 * the transaction — the bus retries it on a later cycle, exactly like
 * a write to a locked word.
 */

#ifndef DDC_SIM_MEMORY_SIDE_HH
#define DDC_SIM_MEMORY_SIDE_HH

#include <vector>

#include "base/types.hh"

namespace ddc {

/** Memory-side servicing interface of a bus. */
class MemorySide
{
  public:
    virtual ~MemorySide() = default;

    /**
     * Whether this side's NACKs of RMW-class requests (Rmw, ReadLock,
     * WriteUnlock) repeat: once it NACKed PE p's request, it NACKs
     * the same request from p again, with no side effect, until p's
     * bus client is granted, armed, disarmed or marked stale, or this
     * side calls Bus::endRepeat for it.  A bus may then book such
     * repeats in bulk instead of ticking them (DESIGN.md, "NACK-repeat
     * parking").  Main memory's NACKs wait on word locks that other
     * PEs release, so the default is false.
     */
    virtual bool rmwNacksRepeat() const { return false; }

    /** Service a word read (reads ignore word locks). */
    virtual bool tryRead(Addr addr, PeId pe, Word &data) = 0;

    /** Service a block read of block_words starting at @p base. */
    virtual bool tryReadBlock(Addr base, std::size_t words, PeId pe,
                              std::vector<Word> &block) = 0;

    /** Service a word write; false also when locked by another PE. */
    virtual bool tryWrite(Addr addr, PeId pe, Word data) = 0;

    /**
     * Service the RWB Bus Invalidate signal (carries data; updates
     * memory like a write).  Distinct from tryWrite so a hierarchical
     * memory side can preserve the op when forwarding it upward.
     */
    virtual bool
    tryInvalidate(Addr addr, PeId pe, Word data)
    {
        return tryWrite(addr, pe, data);
    }

    /** Service a block write (write-back / flush). */
    virtual bool tryWriteBlock(Addr base, PeId pe,
                               const std::vector<Word> &block) = 0;

    /**
     * Service an atomic test-and-set: read the word; when it is zero,
     * store @p set_value.  @p old receives the observed value,
     * @p success whether the store happened.
     */
    virtual bool tryRmw(Addr addr, PeId pe, Word set_value, Word &old,
                        bool &success) = 0;

    /** Service a read-with-lock (Section 3's two-phase RMW). */
    virtual bool tryReadLock(Addr addr, PeId pe, Word &data) = 0;

    /** Service a write-with-unlock. */
    virtual bool tryWriteUnlock(Addr addr, PeId pe, Word data) = 0;

    /**
     * Absorb the bus write generated by a cache supplying data for a
     * killed read.  Must always succeed: a dirty owner exists only
     * where this side can accept its value (invariant checked by the
     * product machine / asserts).
     */
    virtual void acceptSupply(Addr addr, Word data) = 0;

    /** Block variant of acceptSupply. */
    virtual void acceptSupplyBlock(Addr base,
                                   const std::vector<Word> &block) = 0;
};

} // namespace ddc

#endif // DDC_SIM_MEMORY_SIDE_HH
