/**
 * @file
 * Execution log: the serialized record of committed memory accesses.
 *
 * Section 4 proves consistency by constructing a serial execution
 * order from the parallel one.  The simulator constructs that order
 * explicitly: every committed CPU access is appended here, its index
 * being its position in the serial order, and verify/consistency.hh
 * replays the log
 * against a flat memory model to check that "each PE always reads the
 * latest value written".
 */

#ifndef DDC_SIM_EXEC_LOG_HH
#define DDC_SIM_EXEC_LOG_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace ddc {

/**
 * One committed CPU access, 40 bytes: the address, op and TestAndSet
 * outcome share one word, the way MemRef packs a reference.  Its
 * position in the serial execution is its index in the log.
 */
struct LogEntry
{
    Cycle cycle = 0; //!< bus cycle at which the access committed
    Addr addr : kAddrBits = 0;
    CpuOp op : 8 = CpuOp::Read;
    /** TestAndSet only: whether the set happened. */
    bool ts_success : 1 = false;
    PeId pe = kNoPe;
    /**
     * Read/ReadLock: the value returned.  Write/WriteUnlock: the value
     * stored.  TestAndSet: the *old* value observed.
     */
    Word value = 0;
    /** TestAndSet only: the value stored when the test succeeded. */
    Word stored = 0;

    bool operator==(const LogEntry &other) const = default;
};

static_assert(sizeof(LogEntry) == 40, "LogEntry must pack into 40 bytes");

/** Append-only log of committed accesses in serial order. */
class ExecutionLog
{
  public:
    /** Append an entry at the next serial position. */
    void append(const LogEntry &entry) { entries.push_back(entry); }

    /** Make room for @p count more entries without reallocating. */
    void reserve(std::size_t count) { entries.reserve(size() + count); }

    const std::vector<LogEntry> &all() const { return entries; }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }
    void clear() { entries.clear(); }

  private:
    std::vector<LogEntry> entries;
};

} // namespace ddc

#endif // DDC_SIM_EXEC_LOG_HH
