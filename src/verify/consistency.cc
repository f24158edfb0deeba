#include "verify/consistency.hh"

#include <sstream>
#include <unordered_map>

namespace ddc {

namespace {

void
flagViolation(ConsistencyReport &report, const std::string &message)
{
    if (report.consistent) {
        report.consistent = false;
        report.first_error = message;
    }
    report.violations++;
}

/** @p entry, the log's @p index-th, for a violation message. */
std::string
describeEntry(std::size_t index, const LogEntry &entry)
{
    std::ostringstream os;
    os << "seq=" << index << " cycle=" << entry.cycle << " pe="
       << entry.pe << " " << toString(entry.op) << " addr=" << entry.addr
       << " value=" << entry.value;
    return os.str();
}

} // namespace

ConsistencyReport
checkSerialConsistency(const ExecutionLog &log)
{
    ConsistencyReport report;
    std::unordered_map<Addr, Word> model;

    auto current = [&](Addr addr) {
        auto it = model.find(addr);
        return it == model.end() ? Word{0} : it->second;
    };

    for (std::size_t index = 0; index < log.size(); index++) {
        const LogEntry &entry = log.all()[index];
        switch (entry.op) {
          case CpuOp::Read:
          case CpuOp::ReadLock:
            if (entry.value != current(entry.addr)) {
                flagViolation(report,
                              "stale read: expected " +
                                  std::to_string(current(entry.addr)) +
                                  " at " + describeEntry(index, entry));
            }
            break;

          case CpuOp::Write:
          case CpuOp::WriteUnlock:
            model[entry.addr] = entry.value;
            break;

          case CpuOp::TestAndSet: {
            Word latest = current(entry.addr);
            if (entry.value != latest) {
                flagViolation(report,
                              "TS observed stale value: expected " +
                                  std::to_string(latest) + " at " +
                                  describeEntry(index, entry));
            }
            bool should_succeed = latest == 0;
            if (entry.ts_success != should_succeed) {
                flagViolation(report, "TS outcome contradicts value at " +
                                          describeEntry(index, entry));
            }
            if (entry.ts_success)
                model[entry.addr] = entry.stored;
            break;
          }
        }
    }
    return report;
}

ConsistencyReport
checkConfigurationLemma(const System &system, const std::vector<Addr> &addrs)
{
    ConsistencyReport report;
    const Protocol &protocol = system.protocol();

    for (Addr addr : addrs) {
        int owner = kNoPe;
        for (PeId pe = 0; pe < system.numPes(); pe++) {
            LineState state = system.lineState(pe, addr);
            if (protocol.needsWriteback(state)) {
                if (owner != kNoPe) {
                    flagViolation(report,
                                  "two dirty owners of addr " +
                                      std::to_string(addr) + ": PE " +
                                      std::to_string(owner) + " and PE " +
                                      std::to_string(pe));
                }
                owner = pe;
            }
        }

        if (owner != kNoPe) {
            // Local configuration: every other copy must be dead.
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                if (pe == owner)
                    continue;
                LineState state = system.lineState(pe, addr);
                if (state.present()) {
                    flagViolation(report,
                                  "addr " + std::to_string(addr) +
                                      " owned by PE " +
                                      std::to_string(owner) +
                                      " but also present in PE " +
                                      std::to_string(pe));
                }
            }
        } else {
            // Shared configuration: all live copies agree with memory.
            Word memory_value = system.memoryValue(addr);
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                LineState state = system.lineState(pe, addr);
                if (state.present() &&
                    system.cacheValue(pe, addr) != memory_value) {
                    flagViolation(
                        report,
                        "addr " + std::to_string(addr) + " PE " +
                            std::to_string(pe) + " holds " +
                            std::to_string(system.cacheValue(pe, addr)) +
                            " but memory holds " +
                            std::to_string(memory_value));
                }
            }
        }
    }
    return report;
}

} // namespace ddc
