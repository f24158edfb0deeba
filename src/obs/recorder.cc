#include "obs/recorder.hh"

#include <atomic>
#include <map>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace ddc {
namespace obs {

namespace {

// Process-wide opt-in state, written only while parsing flags (or by
// tests between runs); Systems read it once at construction.
std::mutex configMutex;
std::string tracePath;
std::uint32_t traceMask = kAllCategories;
bool traceClaimed = false;

std::atomic<bool> profilingFlag{false};

} // namespace

void
setTraceOutput(std::string path, std::uint32_t categories)
{
    std::lock_guard<std::mutex> lock(configMutex);
    tracePath = std::move(path);
    traceMask = categories;
    traceClaimed = false;
}

void
setPhaseProfilingEnabled(bool enabled)
{
    profilingFlag.store(enabled, std::memory_order_relaxed);
}

bool
phaseProfilingEnabled()
{
    return profilingFlag.load(std::memory_order_relaxed);
}

Recorder::Recorder(std::unique_ptr<TraceSink> trace_sink,
                   bool histograms, Cycle sample_every, bool profiling)
    : traceSink(std::move(trace_sink)), histogramsOn(histograms)
{
    if (sample_every > 0)
        counterSampler =
            std::make_unique<CounterSampler>(sample_every);
    if (profiling)
        phaseProfile = std::make_unique<PhaseProfile>();
}

Recorder::~Recorder()
{
    // Member destruction then writes the trace file (traceSink is
    // the first-declared member, so it goes down last) with the
    // replayed lock track already in place.
    flushLockTrace();
}

RunMetrics *
Recorder::metrics()
{
    if (!histogramsOn)
        return nullptr;
    replayedMetrics = runMetrics;
    replayLocks(&replayedMetrics, nullptr);
    return &replayedMetrics;
}

void
Recorder::flushLockTrace()
{
    if (lockTraceFlushed)
        return;
    lockTraceFlushed = true;
    if (TraceBuffer *lock_trace = trace(Category::Lock))
        replayLocks(nullptr, lock_trace);
}

void
Recorder::replayLocks(RunMetrics *into,
                      TraceBuffer *lock_trace) const
{
    /** Addresses that have carried an RMW (lock-word heuristic). */
    std::unordered_set<Addr> known;
    /** Open spin episodes: (pe, lock addr) -> first-failure cycle. */
    std::map<std::pair<PeId, Addr>, Cycle> spinning;
    /** Pending hand-offs: lock addr -> release cycle. */
    std::unordered_map<Addr, Cycle> lastRelease;

    for (const LockEvent &event : lockEvents.entries()) {
        if (event.kind == 2) {
            // A release only counts once the address is known to
            // behave like a lock word.
            if (known.find(event.addr) == known.end())
                continue;
            lastRelease[event.addr] = event.cycle;
            if (lock_trace) {
                TraceEvent out;
                out.ts = event.cycle;
                out.name = "release";
                out.addr = event.addr;
                out.has_addr = true;
                out.track = kTrackLocks;
                out.tid = event.pe;
                lock_trace->push(out);
            }
            continue;
        }

        known.insert(event.addr);
        auto key = std::make_pair(event.pe, event.addr);
        auto episode = spinning.find(key);

        if (event.kind == 0) {
            // A failed attempt opens (or extends) a spin episode.
            if (episode == spinning.end()) {
                spinning.emplace(key, event.cycle);
                if (lock_trace) {
                    TraceEvent out;
                    out.ts = event.cycle;
                    out.name = "spin";
                    out.addr = event.addr;
                    out.has_addr = true;
                    out.phase = 'B';
                    out.track = kTrackLocks;
                    out.tid = event.pe;
                    lock_trace->push(out);
                }
            }
            continue;
        }

        // A successful RMW closes the episode, samples the acquire
        // latency, and — when a release was seen since the last
        // acquire — the hand-off gap.
        Cycle waited = 0;
        if (episode != spinning.end()) {
            waited = event.cycle - episode->second;
            spinning.erase(episode);
            if (lock_trace) {
                TraceEvent out;
                out.ts = event.cycle;
                out.name = "spin";
                out.phase = 'E';
                out.track = kTrackLocks;
                out.tid = event.pe;
                lock_trace->push(out);
            }
        }
        if (into)
            into->lock_acquire.sample(waited);

        auto release = lastRelease.find(event.addr);
        if (release != lastRelease.end()) {
            if (into)
                into->lock_handoff.sample(event.cycle -
                                          release->second);
            lastRelease.erase(release);
        }

        if (lock_trace) {
            TraceEvent out;
            out.ts = event.cycle;
            out.name = "acquire";
            out.addr = event.addr;
            out.has_addr = true;
            out.value = static_cast<std::int64_t>(waited);
            out.value_name = "spin_cycles";
            out.track = kTrackLocks;
            out.tid = event.pe;
            lock_trace->push(out);
        }
    }
}

std::unique_ptr<Recorder>
makeRecorder(bool histograms, Cycle sample_every)
{
    std::unique_ptr<TraceSink> sink;
    {
        std::lock_guard<std::mutex> lock(configMutex);
        if (!tracePath.empty() && !traceClaimed) {
            traceClaimed = true;
            sink = std::make_unique<TraceSink>(traceMask, tracePath);
        }
    }

    bool profiling = phaseProfilingEnabled();

    if (!sink && !histograms && sample_every == 0 && !profiling)
        return nullptr;
    return std::make_unique<Recorder>(std::move(sink), histograms,
                                      sample_every, profiling);
}

} // namespace obs
} // namespace ddc
