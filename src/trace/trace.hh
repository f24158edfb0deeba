/**
 * @file
 * Memory-reference traces.
 *
 * A Trace is a per-PE ordered stream of memory references.  Traces
 * drive the system simulator directly (trace-driven mode) and are the
 * interchange format between the synthetic workload generators and the
 * benches that reproduce the paper's tables.
 */

#ifndef DDC_TRACE_TRACE_HH
#define DDC_TRACE_TRACE_HH

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace ddc {

/**
 * One memory reference issued by one PE.
 *
 * The address, op and class share one word (the address space is
 * kAddrBits wide), so a reference packs into 16 bytes: a trace holds
 * one per simulated reference.  The constructor keeps the natural
 * {op, addr, data, class} argument order and rejects an address
 * outside the address space, which would otherwise lose its top bits.
 */
struct MemRef
{
    Addr addr : kAddrBits = 0;
    CpuOp op : 8 = CpuOp::Read;
    /** Software classification; RB/RWB ignore it, baselines use it. */
    DataClass cls : 8 = DataClass::Shared;
    /** Value stored for Write / TestAndSet; ignored for Read. */
    Word data = 0;

    constexpr MemRef() = default;
    constexpr MemRef(CpuOp op, Addr addr, Word data = 0,
                     DataClass cls = DataClass::Shared)
        : addr(addr), op(op), cls(cls), data(data)
    {
        ddc_assert(addr < kAddrLimit, "address ", addr,
                   " lies outside the ", kAddrBits, "-bit address space");
    }

    bool operator==(const MemRef &other) const = default;
};

static_assert(sizeof(MemRef) == 16, "MemRef must pack into 16 bytes");

/** One PE's reference stream. */
using RefStream = std::vector<MemRef>;

/**
 * Owning handle on one PE's stream.  The stream it points to never
 * changes: a Trace that is appended to while a handle is out copies
 * the stream first.
 */
using SharedStream = std::shared_ptr<const RefStream>;

/** Render one reference as "R 0x10 Shared" style text. */
std::string toString(const MemRef &ref);

/**
 * A multi-PE reference trace: one ordered vector of MemRef per PE.
 *
 * The simulator consumes each PE's stream in order; there is no global
 * interleaving in the trace itself — interleaving emerges from the
 * simulated timing, exactly as on the real machine.
 *
 * Streams are shared, not copied: copying a Trace, or loading it into
 * a machine (share()), hands out references to the same storage.  A
 * stream is copied only when append() finds it shared (copy-on-write),
 * so a loaded machine never sees later appends.
 */
class Trace
{
  public:
    /** @param num_pes Number of per-PE streams. */
    explicit Trace(int num_pes = 0);

    /** Number of PE streams. */
    int numPes() const { return static_cast<int>(streams.size()); }

    /** Append a reference to PE @p pe's stream. */
    void append(PeId pe, const MemRef &ref);

    /**
     * Size PE @p pe's stream for @p refs references in all, so the
     * appends that follow never reallocate.
     */
    void reserve(PeId pe, std::size_t refs);

    /** Stream of PE @p pe. */
    const RefStream &stream(PeId pe) const;

    /** Shared handle on PE @p pe's stream (see SharedStream). */
    SharedStream share(PeId pe) const;

    /** Total number of references across all PEs. */
    std::size_t totalRefs() const;

    /** Serialize as line-oriented text ("pe op addr data class"). */
    void save(std::ostream &os) const;

    /**
     * Parse a trace produced by save().
     * @return false on malformed or truncated input, including a
     *         partial last record or an address at or above
     *         kAddrLimit (the trace is left empty).
     */
    bool load(std::istream &is);

    /** Equal when every PE's stream holds the same references. */
    bool operator==(const Trace &other) const;

  private:
    /** PE @p pe's stream, copied first if anyone else shares it. */
    RefStream &writable(PeId pe);

    std::vector<std::shared_ptr<RefStream>> streams;
};

} // namespace ddc

#endif // DDC_TRACE_TRACE_HH
