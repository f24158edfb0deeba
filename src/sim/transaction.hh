/**
 * @file
 * One bus transaction: what a client requests and gets back, what
 * snoopers observe, the client interface, and the path that serves a
 * granted request (Sections 2-3), written once for every medium that
 * grants one.
 *
 * Two media grant transactions: the snooping Bus (sim/bus.hh) and
 * each home node of the directory fabric (dir/home_node.hh).  Both
 * derive from TransactionPath, so the memory-side try, the NACK, the
 * L-interrupt kill with the owner's supply, the RMW outcome, the
 * bus.* counters and the lock log exist once; each medium supplies
 * only its addressing.
 */

#ifndef DDC_SIM_TRANSACTION_HH
#define DDC_SIM_TRANSACTION_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "obs/recorder.hh"
#include "sim/clock.hh"
#include "stats/counter.hh"

namespace ddc {

/** A bus transaction a cache wants to issue. */
struct BusRequest
{
    BusOp op = BusOp::Read;
    Addr addr = 0;
    /** Write data, or the value an Rmw stores on success. */
    Word data = 0;
    /** Transfer a whole block (allocating read / write-back). */
    bool block_transfer = false;
    /** Payload of a block write (write-back); block_words long. */
    std::vector<Word> block_data{};
    /**
     * This Write publishes an owned value back to memory without
     * claiming ownership (the hierarchical cluster cache's pre-flush
     * before an RMW-class forward), so it commits as Commit::Publish.
     * The snooping bus delivers it like any write — a snooped write
     * invalidates other copies either way, and the issuer demotes
     * itself on completion — but a directory must distinguish it
     * from an ownership-acquiring write to keep its owner field exact.
     */
    bool writeback = false;
};

/** Completion data handed back to the issuing cache. */
struct BusResult
{
    /** Read data / the Rmw's observed old value / the written data. */
    Word data = 0;
    /** BusOp::Rmw only: whether the conditional store happened. */
    bool rmw_success = false;
    /** Block read payload (empty for word-granular transactions). */
    std::vector<Word> block;
};

/** A transaction as seen by snooping caches (effective ops only). */
struct BusTransaction
{
    BusOp op = BusOp::Read;
    Addr addr = 0;
    Word data = 0;
    /** Client index of the issuer on this bus. */
    int issuer = -1;
    /** Block payload (empty for word-granular transactions). */
    std::vector<Word> block;
};

/**
 * The snooped ops a cache line would react to: a bitmask of
 * kReactsToRead and kReactsToWrite.  A line *reacts* to an op when its
 * snoop reaction would supply, snarf, or move its state; every other
 * delivery is a no-op the sharer index may skip.
 */
using ReactionClass = std::uint8_t;
/** A snooped Read would supply, snarf, or move the line's state. */
inline constexpr ReactionClass kReactsToRead = 1;
/** A snooped Write or Invalidate would snarf or move its state. */
inline constexpr ReactionClass kReactsToWrite = 2;

/** The reaction-class bit that an effective snooped @p op tests. */
constexpr ReactionClass
reactionBit(BusOp op)
{
    return op == BusOp::Read ? kReactsToRead : kReactsToWrite;
}

/**
 * Interface between the bus and an attached cache.
 *
 * A client has at most one pending request.  On every free cycle the
 * bus polls hasRequest() of each armed client that is always-polled
 * (the default) or that reported a change through Bus::noteStale()
 * since its last poll, giving the cache a chance to lazily re-validate
 * multi-phase operations whose preconditions a snooped transaction
 * erased (see Bus::setPollOnStale).
 */
class BusClient
{
  public:
    virtual ~BusClient() = default;

    /** Does this client want the bus this cycle? */
    virtual bool hasRequest() = 0;

    /** The pending request (valid only when hasRequest()). */
    virtual BusRequest currentRequest() = 0;

    /** The pending request completed with @p result. */
    virtual void requestComplete(const BusResult &result) = 0;

    /**
     * Would this client kill a read of @p addr and supply the value?
     * On true, @p value receives the supplied (word) data.
     */
    virtual bool wouldSupply(Addr addr, Word &value) = 0;

    /**
     * The full block this client would supply for @p addr (multi-word
     * machines only; called after wouldSupply() returned true).
     */
    virtual std::vector<Word>
    supplyBlock(Addr addr)
    {
        Word value = 0;
        wouldSupply(addr, value);
        return {value};
    }

    /** Observe another client's (effective) transaction. */
    virtual void observe(const BusTransaction &txn) = 0;

    /**
     * The reaction class of this client's line for @p addr's block (0
     * when it holds none).  Asked only of sharer-indexed clients, by
     * the Debug build's broadcast cross-check; the default claims
     * every reaction.
     */
    virtual ReactionClass
    reactionClass(Addr addr) const
    {
        (void)addr;
        return kReactsToRead | kReactsToWrite;
    }

    /** This client supplied data for @p addr (apply afterSupply). */
    virtual void supplied(Addr addr) = 0;

    /**
     * The client's granted request was NACKed (locked word / memory
     * side not ready) and will retry.  Multi-request proxies (the
     * hierarchical cluster cache) use this to rotate their queue so a
     * blocked operation cannot starve the one that would unblock it.
     * A parked bus books repeated NACKs without this call (Bus,
     * "NACK-repeat parking"), so on a bus whose memory side declares
     * MemorySide::rmwNacksRepeat it must change nothing but what no
     * one reads while the bus may park (the L1's retry count).
     */
    virtual void requestNacked() {}

    /**
     * The client's granted read-like request was killed by an owning
     * cache's supply write and will retry (the paper's L-interrupt).
     * Purely informational — the request stays pending exactly as
     * before this hook existed.
     */
    virtual void requestKilled() {}

    /** Owning PE, for memory-lock bookkeeping. */
    virtual PeId peId() const = 0;

    /**
     * Address of the pending request (valid only when a request is
     * pending), *without* the side effects of currentRequest().  An
     * address-interleaved fabric routes on it before granting.  Only
     * clients attached to such a fabric need to implement it; the
     * default panics.
     */
    virtual Addr pendingAddr() const;
};


/**
 * The bus.* counter family a transaction path writes ("bus.read",
 * "bus.nack.BusRead", ...), interned once per path.  The snooping bus
 * and every home node intern the same names, so a directory counter
 * report lines up with a snooping one name for name.
 */
struct BusStats
{
    explicit BusStats(stats::CounterSet &stats);

    stats::CounterId busy, transfer, idle, kill, supplyWrite, rmwSuccess,
        rmwFail, nack;
    /** bus.<op> issue counters, indexed by BusOp. */
    stats::CounterId op[kNumBusOps];
    /** bus.nack.<op> counters, indexed by BusOp. */
    stats::CounterId nackOp[kNumBusOps];
};

/** What a committed transaction makes of its issuer's copy. */
enum class Commit : std::uint8_t {
    /** A read: the issuer holds a copy; other copies are refreshed. */
    Share,
    /** A write or successful RMW: the issuer holds the only copy. */
    Own,
    /**
     * An owner's value went back to memory (a kill's supply write or
     * a write-back): other copies are invalidated, and the issuer
     * keeps a copy it no longer owns.
     */
    Publish,
};

/**
 * The granted transaction, written once for the media that grant one
 * (CRTP: @p Medium derives from TransactionPath<Medium>, so no grant
 * pays a virtual call to reach its medium).
 *
 * serve() tries the request's op on the medium's memory side and
 * NACKs it when the side refuses (a word locked by a two-phase RMW, a
 * side not ready); a read-like op first asks who holds the latest
 * value, and such an owner kills the read and supplies its value in a
 * bus write, after which the read retries.  It books the bus.*
 * counters and appends lock attempts to the run's LockLog.
 *
 * @p Medium supplies its addressing, befriending this class:
 *  - `memory`: its MemorySide (a member object or reference);
 *  - `blockSize`: words per transfer (a member or a constant);
 *  - `int findSupplier(int grant, Addr addr, Word &value)`: the
 *    client other than @p grant that would kill a read of @p addr
 *    and supply @p value, or -1;
 *  - `void commit(const BusTransaction &txn, Commit kind)`: deliver
 *    @p txn to the clients that must hear it (never its issuer) and
 *    record what it made of the issuer's copy;
 *  - `void carry(std::string_view name, Addr addr, int issuer,
 *    bool block, const char *detail)`: the op was accepted; hold the
 *    medium for a block or word transfer and trace it;
 *  - `void killed(const BusRequest &request)`: a supplier killed it;
 *  - `void nacked(int grant, const BusRequest &request)`: it NACKed.
 */
template <class Medium>
class TransactionPath
{
  protected:
    explicit TransactionPath(stats::CounterSet &stats)
        : stats(stats), busStats(stats)
    {}

    /**
     * Serve @p request, the granted request of client @p grant among
     * @p clients.
     * @return Whether it completed; false when NACKed or killed (it
     *         stays pending and retries).
     */
    bool serve(const std::vector<BusClient *> &clients, int grant,
               const BusRequest &request);

    /**
     * Append lock attempts to @p log (null: none), stamped with
     * @p clock's cycle.
     */
    void
    setLockLog(obs::LockLog *log, const Clock *clock)
    {
        lockLog = log;
        lockClock = clock;
    }

    /** First word address of the block containing @p addr. */
    Addr
    blockBase(Addr addr) const
    {
        return addr - addr % static_cast<Addr>(
                                 static_cast<const Medium &>(*this).blockSize);
    }

    stats::CounterSet &stats;
    BusStats busStats;
    /** The run's lock log (null when lock events are off). */
    obs::LockLog *lockLog = nullptr;

  private:
    Medium &medium() { return static_cast<Medium &>(*this); }

    bool serveReadLike(const std::vector<BusClient *> &clients, int grant,
                       const BusRequest &request);
    bool serveWriteLike(const std::vector<BusClient *> &clients,
                        int grant, const BusRequest &request);

    /** Kill @p request and commit @p supplier's write of @p value. */
    void supply(const std::vector<BusClient *> &clients, int grant,
                int supplier, const BusRequest &request, Word value);

    /** Record a retry due to a locked word / not-ready memory side. */
    bool nack(BusClient *grantee, int grant, const BusRequest &request);

    /** A lock primitive by @p pe on @p addr reached the medium. */
    void
    logLock(PeId pe, Addr addr, bool success)
    {
        lockLog->attempt(pe, addr, lockClock->now, success);
    }

    const Clock *lockClock = nullptr;
};

template <class Medium>
bool
TransactionPath<Medium>::serve(const std::vector<BusClient *> &clients,
                               int grant, const BusRequest &request)
{
    switch (request.op) {
      case BusOp::Read:
      case BusOp::ReadLock:
      case BusOp::Rmw:
        return serveReadLike(clients, grant, request);
      case BusOp::Write:
      case BusOp::WriteUnlock:
      case BusOp::Invalidate:
        return serveWriteLike(clients, grant, request);
    }
    ddc_panic("unknown BusOp ", static_cast<int>(request.op));
}

template <class Medium>
bool
TransactionPath<Medium>::serveReadLike(
    const std::vector<BusClient *> &clients, int grant,
    const BusRequest &request)
{
    Medium &m = medium();
    Word supplied_value = 0;
    int supplier = m.findSupplier(grant, request.addr, supplied_value);
    if (supplier >= 0) {
        supply(clients, grant, supplier, request, supplied_value);
        return false;
    }

    BusClient *grantee = clients[static_cast<std::size_t>(grant)];
    PeId pe = grantee->peId();
    BusResult result;
    bool block = false;
    bool accepted = false;
    const char *detail = nullptr;
    switch (request.op) {
      case BusOp::Read:
        block = request.block_transfer && m.blockSize > 1;
        if (block) {
            Addr base = blockBase(request.addr);
            accepted = m.memory.tryReadBlock(base, m.blockSize, pe,
                                             result.block);
            if (accepted)
                result.data = result.block[static_cast<std::size_t>(
                    request.addr - base)];
            detail = "block";
        } else {
            accepted = m.memory.tryRead(request.addr, pe, result.data);
        }
        break;
      case BusOp::ReadLock:
        accepted = m.memory.tryReadLock(request.addr, pe, result.data);
        break;
      default:
        accepted = m.memory.tryRmw(request.addr, pe, request.data,
                                   result.data, result.rmw_success);
        detail = result.rmw_success ? "success" : "fail";
        break;
    }
    if (!accepted)
        return nack(grantee, grant, request);

    stats.add(busStats.op[static_cast<std::size_t>(request.op)]);
    m.carry(toString(request.op), request.addr, grant, block, detail);
    if (lockLog && request.op != BusOp::Read)
        logLock(pe, request.addr,
                request.op == BusOp::ReadLock || result.rmw_success);
    // A failed test-and-set is a read to every snooper, a successful
    // one a write (Section 3).
    BusTransaction txn{BusOp::Read, request.addr, result.data, grant,
                       result.block};
    Commit kind = Commit::Share;
    if (request.op == BusOp::Rmw) {
        stats.add(result.rmw_success ? busStats.rmwSuccess
                                     : busStats.rmwFail);
        if (result.rmw_success) {
            txn.op = BusOp::Write;
            txn.data = request.data;
            kind = Commit::Own;
        }
    }
    m.commit(txn, kind);
    grantee->requestComplete(result);
    return true;
}

template <class Medium>
void
TransactionPath<Medium>::supply(const std::vector<BusClient *> &clients,
                                int grant, int supplier,
                                const BusRequest &request, Word value)
{
    // Kill the transaction and replace it with the owner's bus write;
    // the original request stays pending and retries.
    Medium &m = medium();
    BusClient *owner = clients[static_cast<std::size_t>(supplier)];
    stats.add(busStats.kill);
    stats.add(busStats.supplyWrite);
    stats.add(busStats.op[static_cast<std::size_t>(BusOp::Write)]);
    m.killed(request);
    m.carry("supply_write", request.addr, supplier, m.blockSize > 1,
            nullptr);
    // A killed lock RMW is deliberately not a lock release: the
    // supplier is publishing the held value, not unlocking.
    clients[static_cast<std::size_t>(grant)]->requestKilled();

    BusTransaction txn{BusOp::Write, request.addr, value, supplier, {}};
    if (m.blockSize > 1) {
        txn.block = owner->supplyBlock(request.addr);
        ddc_assert(txn.block.size() == m.blockSize,
                   "supplier returned a malformed block");
        m.memory.acceptSupplyBlock(blockBase(request.addr), txn.block);
    } else {
        m.memory.acceptSupply(request.addr, value);
    }
    m.commit(txn, Commit::Publish);
    owner->supplied(request.addr);
}

template <class Medium>
bool
TransactionPath<Medium>::serveWriteLike(
    const std::vector<BusClient *> &clients, int grant,
    const BusRequest &request)
{
    Medium &m = medium();
    BusClient *grantee = clients[static_cast<std::size_t>(grant)];
    PeId pe = grantee->peId();
    bool block = request.block_transfer && m.blockSize > 1;
    bool accepted = false;
    if (block) {
        // Write-back / flush of a whole dirty block.
        ddc_assert(request.block_data.size() == m.blockSize,
                   "malformed block write");
        accepted = m.memory.tryWriteBlock(blockBase(request.addr), pe,
                                          request.block_data);
    } else if (request.op == BusOp::WriteUnlock) {
        accepted = m.memory.tryWriteUnlock(request.addr, pe, request.data);
    } else if (request.op == BusOp::Invalidate) {
        accepted = m.memory.tryInvalidate(request.addr, pe, request.data);
    } else {
        // "Any bus writes before the unlock will fail" (Section 3).
        accepted = m.memory.tryWrite(request.addr, pe, request.data);
    }
    if (!accepted)
        return nack(grantee, grant, request);

    stats.add(busStats.op[static_cast<std::size_t>(request.op)]);
    m.carry(toString(request.op), request.addr, grant, block,
            request.block_transfer ? "block" : nullptr);
    // Snoopers see the RWB BI signal as-is and everything else as an
    // effective bus write.
    BusTransaction txn{request.op == BusOp::Invalidate ? BusOp::Invalidate
                                                       : BusOp::Write,
                       request.addr, request.data, grant, {}};
    if (block)
        txn.block = request.block_data;
    m.commit(txn, request.writeback ? Commit::Publish : Commit::Own);
    grantee->requestComplete({request.data, false, {}});
    return true;
}

template <class Medium>
bool
TransactionPath<Medium>::nack(BusClient *grantee, int grant,
                              const BusRequest &request)
{
    stats.add(busStats.nack);
    stats.add(busStats.nackOp[static_cast<std::size_t>(request.op)]);
    medium().nacked(grant, request);
    // A NACKed lock primitive is a failed acquisition attempt (the
    // word is locked by another PE's two-phase RMW).
    if (lockLog &&
        (request.op == BusOp::Rmw || request.op == BusOp::ReadLock))
        logLock(grantee->peId(), request.addr, false);
    grantee->requestNacked();
    return false;
}

} // namespace ddc

#endif // DDC_SIM_TRANSACTION_HH
