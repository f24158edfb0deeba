#include "sync/workload.hh"

#include "trace/synthetic.hh"

namespace ddc {
namespace sync {

Addr
lockAddr()
{
    return sharedBase();
}

Addr
counterAddr()
{
    return sharedBase() + 1;
}

LockExperimentResult
runLockExperiment(const LockExperimentConfig &config,
                  std::unique_ptr<System> *out_system)
{
    SystemConfig system_config;
    system_config.num_pes = config.num_pes;
    system_config.cache_lines = config.cache_lines;
    system_config.protocol = config.protocol;
    system_config.memory_latency = config.memory_latency;
    system_config.record_log = config.record_log;
    if (config.histograms)
        system_config.engine.histograms = true;

    auto system = std::make_unique<System>(system_config);
    for (PeId pe = 0; pe < config.num_pes; pe++) {
        LockProgramParams params;
        params.kind = config.lock;
        params.lock_addr = lockAddr();
        params.counter_addr = counterAddr();
        params.acquisitions = config.acquisitions_per_pe;
        params.cs_increments = config.cs_increments;
        params.local_work = config.local_work;
        params.local_base = localBase(pe);
        system->setProgram(pe, makeLockProgram(params));
    }

    LockExperimentResult result;
    result.cycles = system->run();
    result.skipped_cycles = system->skippedCycles();
    result.completed = system->allDone();
    result.bus_transactions = system->totalBusTransactions();

    auto counters = system->counters();
    result.rmw_attempts = counters.get("bus.rmw_success") +
                          counters.get("bus.rmw_fail");
    result.rmw_failures = counters.get("bus.rmw_fail");
    result.counter_value = system->coherentValue(counterAddr());
    result.expected_counter =
        static_cast<Word>(config.num_pes) *
        static_cast<Word>(config.acquisitions_per_pe) *
        static_cast<Word>(config.cs_increments);

    std::uint64_t acquisitions =
        static_cast<std::uint64_t>(config.num_pes) *
        static_cast<std::uint64_t>(config.acquisitions_per_pe);
    if (acquisitions > 0) {
        result.bus_per_acquisition =
            static_cast<double>(result.bus_transactions) /
            static_cast<double>(acquisitions);
    }

    if (auto *observability = system->observability()) {
        if (auto *metrics = observability->metrics()) {
            result.has_metrics = true;
            result.metrics = *metrics;
        }
    }

    if (out_system != nullptr)
        *out_system = std::move(system);
    return result;
}

Cycle
runBarrierExperiment(int num_pes, int iterations, ProtocolKind protocol)
{
    SystemConfig system_config;
    system_config.num_pes = num_pes;
    system_config.cache_lines = 256;
    system_config.protocol = protocol;

    System system(system_config);
    Addr lock = sharedBase() + 16;
    Addr count = sharedBase() + 17;
    Addr sense = sharedBase() + 18;
    for (PeId pe = 0; pe < num_pes; pe++) {
        system.setProgram(pe, makeBarrierProgram(lock, count, sense,
                                                 num_pes, iterations));
    }
    Cycle cycles = system.run();
    return system.allDone() ? cycles : 0;
}

} // namespace sync
} // namespace ddc
