#include "sim/multiprocessor.hh"

#include <algorithm>
#include <string>
#include <string_view>

#include "base/logging.hh"
#include "sim/trace_agent.hh"

namespace ddc {

Multiprocessor::Multiprocessor(const char *name, int num_pes,
                               ProtocolKind protocol,
                               int rwb_writes_to_local,
                               bool skip_quiescent, bool histograms,
                               Cycle sample_every)
    : kernel(clock, KernelConfig{skip_quiescent}),
      proto(makeProtocol(protocol, rwb_writes_to_local)),
      recorder(obs::makeRecorder(histograms, sample_every)),
      name(name),
      seats(static_cast<std::size_t>(std::max(num_pes, 0))),
      agents(seats.size())
{
    static constexpr std::string_view kMissPrefixes[] = {
        "cache.read_miss.", "cache.write_miss.", "cache.ts.",
        "cache.readlock.", "cache.writeunlock."};
    static constexpr std::string_view kClasses[] = {"Code", "Local",
                                                    "Shared"};
    for (auto prefix : kMissPrefixes) {
        for (auto cls : kClasses) {
            missStats.push_back(cacheStats.intern(std::string(prefix) +
                                                  std::string(cls)));
        }
    }
    if (recorder) {
        kernel.setQuiesceSink(recorder->trace(obs::Category::Quiesce));
        kernel.setSampler(recorder->sampler());
    }
}

void
Multiprocessor::seat(PeId pe, std::vector<Cache *> banks, Shard &shard,
                     std::size_t slot)
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    seats[static_cast<std::size_t>(pe)] = {std::move(banks), &shard, slot};
}

void
Multiprocessor::install(PeId pe, std::unique_ptr<Agent> agent)
{
    const Seat &seat = seats[static_cast<std::size_t>(pe)];
    auto &slot = agents[static_cast<std::size_t>(pe)];
    slot = std::move(agent);
    seat.shard->setAgent(seat.slot, slot.get());
}

void
Multiprocessor::loadTrace(const Trace &trace)
{
    ddc_assert(trace.numPes() <= numPes(),
               "trace has more PE streams than the machine has PEs");
    for (PeId pe = 0; pe < numPes(); pe++) {
        SharedStream stream =
            pe < trace.numPes() ? trace.share(pe) : nullptr;
        install(pe, std::make_unique<TraceAgent>(
                        CacheSet(seats[static_cast<std::size_t>(pe)].banks),
                        std::move(stream), cacheStats));
    }
    // A shard's seats are consecutive PEs: rebuild each shard once.
    for (std::size_t pe = 0; pe < seats.size(); pe++) {
        if (pe == 0 || seats[pe].shard != seats[pe - 1].shard)
            seats[pe].shard->rebuild();
    }
}

void
Multiprocessor::setProgram(PeId pe, Program program)
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    const Seat &seat = seats[static_cast<std::size_t>(pe)];
    install(pe, std::make_unique<Processor>(pe, CacheSet(seat.banks),
                                            std::move(program),
                                            cacheStats));
    seat.shard->rebuild();
}

Processor &
Multiprocessor::processor(PeId pe)
{
    ddc_assert(pe >= 0 && pe < numPes(), "PE id out of range");
    auto *processor =
        dynamic_cast<Processor *>(agents[static_cast<std::size_t>(pe)].get());
    if (processor == nullptr)
        ddc_fatal("PE ", pe, " is not running a program");
    return *processor;
}

Cycle
Multiprocessor::run(Cycle max_cycles)
{
    // Next-event time advance and tick ordering live in the kernel;
    // see Kernel::run.
    Cycle start = clock.now;
    run_status = kernel.run(max_cycles);
    if (run_status == RunStatus::TimedOut) {
        ddc_warn(name, "::run hit its cycle budget (", max_cycles,
                 " cycles) with agents still busy; reporting timed_out");
    }
    return clock.now - start;
}

std::uint64_t
Multiprocessor::missRefs() const
{
    std::uint64_t total = 0;
    for (auto id : missStats)
        total += cacheStats.get(id);
    return total;
}

} // namespace ddc
