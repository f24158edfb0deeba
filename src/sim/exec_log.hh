/**
 * @file
 * Execution log: the serialized record of committed memory accesses.
 *
 * Section 4 proves consistency by constructing a serial execution
 * order from the parallel one.  The simulator constructs that order
 * explicitly: every committed CPU access is appended here with a
 * global sequence number, and verify/consistency.hh replays the log
 * against a flat memory model to check that "each PE always reads the
 * latest value written".
 */

#ifndef DDC_SIM_EXEC_LOG_HH
#define DDC_SIM_EXEC_LOG_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace ddc {

/** One committed CPU access. */
struct LogEntry
{
    std::uint64_t seq = 0; //!< position in the virtual serial execution
    Cycle cycle = 0;       //!< bus cycle at which the access committed
    PeId pe = kNoPe;
    CpuOp op = CpuOp::Read;
    Addr addr = 0;
    /**
     * Read/ReadLock: the value returned.  Write/WriteUnlock: the value
     * stored.  TestAndSet: the *old* value observed.
     */
    Word value = 0;
    /** TestAndSet only: the value stored when the test succeeded. */
    Word stored = 0;
    /** TestAndSet only: whether the set happened. */
    bool ts_success = false;

    bool operator==(const LogEntry &other) const = default;
};

/** Append-only log of committed accesses in serial order. */
class ExecutionLog
{
  public:
    /** Append an entry; its seq is assigned here. */
    void
    append(LogEntry entry)
    {
        entry.seq = entries.size();
        entries.push_back(entry);
    }

    const std::vector<LogEntry> &all() const { return entries; }
    std::size_t size() const { return entries.size(); }
    bool empty() const { return entries.empty(); }
    void clear() { entries.clear(); }

  private:
    std::vector<LogEntry> entries;
};

} // namespace ddc

#endif // DDC_SIM_EXEC_LOG_HH
