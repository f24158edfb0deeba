/**
 * @file
 * Per-System observability recorder plus the process-wide opt-in
 * configuration the session flags set (--trace-out,
 * --trace-categories, --profile).
 *
 * A System asks makeRecorder() for a Recorder at construction, with
 * the histogram and sampling knobs of its config (EngineKnobs); the
 * result is null when nothing is enabled, and components then cache
 * null buffer/metrics pointers — the zero-overhead-when-off contract.
 * The trace output file is claimed by the first System that asks for
 * it (one file, one run); parallel experiment workers therefore
 * trace exactly one run instead of interleaving into one file.
 */

#ifndef DDC_OBS_RECORDER_HH
#define DDC_OBS_RECORDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"

namespace ddc {
namespace obs {

/**
 * Set the process-wide trace destination (--trace-out /
 * --trace-categories).  Re-arms the first-System-wins claim, so
 * tests can trace several successive Systems.  An empty @p path
 * disables tracing.
 */
void setTraceOutput(std::string path,
                    std::uint32_t categories = kAllCategories);

/** Process-wide --profile flag (host wall-clock phase splits). */
void setPhaseProfilingEnabled(bool enabled);
bool phaseProfilingEnabled();

/**
 * Host wall-clock phase splits (--profile): where the simulator
 * itself spends real time, as opposed to the simulated-cycle
 * quantities every other obs stream records.  Written by the fabric
 * tick, read after the run; host-dependent by design, so the values
 * ride the timing-gated JSON block, never the deterministic result
 * surface.
 */
struct PhaseProfile
{
    /**
     * Always 0: the kernel runs on one thread and has no barrier.
     * Kept only because the layer benchmark (bench/perf) reads it.
     */
    double kernel_barrier_ms = 0.0;
    /** Directory fabric: request routing pass. */
    double fabric_route_ms = 0.0;
    /** Directory fabric: home-node service pass. */
    double fabric_serve_ms = 0.0;
};

/** One raw lock-word event, appended by a Bus or Cache. */
struct LockEvent
{
    Cycle cycle = 0;
    Addr addr = 0;
    PeId pe = 0;
    /** 0 = failed RMW, 1 = successful RMW, 2 = release write. */
    std::uint8_t kind = 0;
};

/**
 * A run's append-only lock-event log, in simulation order.  Buses
 * and caches record raw attempt/release events here instead of
 * driving episode state machines directly; episode reconstruction
 * (spin spans, acquire latency, hand-off gaps) replays the log after
 * the run.
 */
class LockLog
{
  public:
    /** An RMW for @p addr reached the bus. */
    void
    attempt(PeId pe, Addr addr, Cycle now, bool success)
    {
        events.push_back({now, addr, pe,
                          static_cast<std::uint8_t>(success ? 1 : 0)});
    }

    /** A write completed to @p addr (a release if it is a lock). */
    void
    release(PeId pe, Addr addr, Cycle now)
    {
        events.push_back({now, addr, pe, 2});
    }

    const std::vector<LockEvent> &entries() const { return events; }

  private:
    std::vector<LockEvent> events;
};

/**
 * One System's observability state: the trace sink (if this System
 * won the claim), the histograms, the counter sampler, the lock log,
 * and the host phase profile.
 *
 * Components write through trace(category), liveMetrics() and
 * lockLog(); readers use metrics() and the written trace.
 */
class Recorder
{
  public:
    /** @param profiling Allocate the PhaseProfile. */
    Recorder(std::unique_ptr<TraceSink> trace_sink, bool histograms,
             Cycle sample_every, bool profiling = false);

    /** Replays the lock trace, then the sink writes its file. */
    ~Recorder();

    /** Buffer for @p category, or null when it is not traced. */
    TraceBuffer *
    trace(Category category)
    {
        return traceSink && traceSink->enabled(category)
                   ? traceSink->buffer()
                   : nullptr;
    }

    /** The trace sink itself, or null (writeFile). */
    TraceSink *sink() { return traceSink.get(); }

    /**
     * The histograms components sample into during the run, or null
     * when --histograms is off.  Holds no lock episodes; see metrics().
     */
    RunMetrics *
    liveMetrics()
    {
        return histogramsOn ? &runMetrics : nullptr;
    }

    /**
     * liveMetrics() plus the lock episodes replayed from the lock
     * log.  Recomputed on each call; valid until the next call.  Null
     * when --histograms is off.
     */
    RunMetrics *metrics();

    /** Counter sampler, or null when --sample-every is off. */
    CounterSampler *sampler() { return counterSampler.get(); }

    /** Host phase profile, or null when --profile is off. */
    PhaseProfile *profile() { return phaseProfile.get(); }

    /** True when the Bus should report lock events at all. */
    bool
    wantsLockEvents() const
    {
        return histogramsOn ||
               (traceSink && traceSink->enabled(Category::Lock));
    }

    /** The lock log, or null when lock events are off. */
    LockLog *
    lockLog()
    {
        return wantsLockEvents() ? &lockEvents : nullptr;
    }

    /**
     * Replay the lock log into the trace's lock track
     * (spin B/E spans, acquire/release markers).  Idempotent; runs
     * automatically at destruction, before the sink writes.  Call
     * early only to write the trace while the Recorder is alive.
     */
    void flushLockTrace();

  private:
    /**
     * Episode reconstruction over the lock log.  Feeds lock_acquire /
     * lock_handoff into @p into and/or emits lock-track events into
     * @p lock_trace.
     */
    void replayLocks(RunMetrics *into, TraceBuffer *lock_trace) const;

    std::unique_ptr<TraceSink> traceSink;
    bool histogramsOn;
    RunMetrics runMetrics;
    RunMetrics replayedMetrics;
    std::unique_ptr<CounterSampler> counterSampler;
    LockLog lockEvents;
    std::unique_ptr<PhaseProfile> phaseProfile;
    bool lockTraceFlushed = false;
};

/**
 * Build the Recorder for a System given its config's histogram flag
 * and sampling interval (0 = off), plus the process-wide trace claim
 * and --profile flag.
 * @return null when no observability feature is enabled.
 */
std::unique_ptr<Recorder> makeRecorder(bool histograms,
                                       Cycle sample_every);

} // namespace obs
} // namespace ddc

#endif // DDC_OBS_RECORDER_HH
