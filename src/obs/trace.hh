/**
 * @file
 * Structured event tracing: categories, events, the event buffer,
 * and the TraceSink that sorts it and writes Chrome trace-event
 * JSON.
 *
 * Components never talk to the sink directly when tracing is off:
 * every emission site holds a TraceBuffer pointer that is null unless
 * its category was enabled, so the disabled path costs exactly one
 * pointer test — no heap traffic, no string formatting, no virtual
 * calls (the zero-overhead-when-off contract; see DESIGN.md).
 *
 * Event names and detail strings must have static storage duration:
 * the sink stores the pointers, not copies, so the hot path never
 * allocates.  All fixed vocabulary (bus ops, state-transition labels,
 * causes) satisfies this by construction.
 */

#ifndef DDC_OBS_TRACE_HH
#define DDC_OBS_TRACE_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "base/types.hh"

namespace ddc {
namespace obs {

/**
 * Trace event categories, one bit each (--trace-categories).
 * Category filtering is resolved once at System construction into
 * per-component buffer pointers, so a disabled category is a null
 * pointer at the emission site, not a runtime mask test per event.
 */
enum class Category : std::uint32_t {
    /** Bus transactions: grant/complete, kill/supply, NACK retries. */
    Bus = 1u << 0,
    /** Per-line tag-state transitions (NP/I/R/L/F/...) with cause. */
    State = 1u << 1,
    /** Lock acquire / release / spin episodes. */
    Lock = 1u << 2,
    /** Per-PE miss-service spans (cpuAccess miss -> completion). */
    Miss = 1u << 3,
    /** Quiescent-skip intervals (next-event time advance). */
    Quiesce = 1u << 4,
    /** Directory-fabric home traffic: grants, fwd/inval/ack, NACKs. */
    Dir = 1u << 5,
};

/** Every category enabled (the --trace-categories default). */
inline constexpr std::uint32_t kAllCategories = 0x3F;

/**
 * Parse a comma-separated category list ("bus,state,lock,miss,
 * quiesce,dir", or "all") into a bitmask.
 * @return 0 on a malformed list; @p error (when non-null) receives
 *         the offending token.
 */
std::uint32_t parseCategories(std::string_view list,
                              std::string *error = nullptr);

/** Canonical comma-separated names of the categories in @p mask. */
std::string categoryNames(std::uint32_t mask);

/**
 * Track groups (Chrome "pid"); the track id ("tid") within a group is
 * the PE, bus, or home-node index.  One track per PE, one per
 * bus, one per directory home, as the Perfetto view expects.
 */
inline constexpr std::int32_t kTrackPes = 1;
inline constexpr std::int32_t kTrackBuses = 2;
inline constexpr std::int32_t kTrackLocks = 3;
inline constexpr std::int32_t kTrackSim = 4;
inline constexpr std::int32_t kTrackHomes = 5;

/** One buffered trace event (1 simulated cycle == 1 trace us). */
struct TraceEvent
{
    Cycle ts = 0;
    /** Duration in cycles (phase 'X' only). */
    Cycle dur = 0;
    /** Event name; must point at static storage. */
    std::string_view name;
    /** Optional "detail" string arg (cause, op); static storage. */
    const char *detail = nullptr;
    /** Optional "addr" arg, emitted when has_addr. */
    Addr addr = 0;
    bool has_addr = false;
    /** Optional numeric arg, emitted when value_name is non-null. */
    std::int64_t value = 0;
    const char *value_name = nullptr;
    /**
     * 'B' begin, 'E' end, 'X' complete (with dur), 'i' instant,
     * 'C' counter (value under value_name).
     */
    char phase = 'i';
    /** Track group (kTrackPes / kTrackBuses / ...). */
    std::int32_t track = kTrackPes;
    /** Track id within the group (PE index, bus index, 0 for sim). */
    std::int32_t tid = 0;
};

/** The append-only event buffer a TraceSink owns. */
class TraceBuffer
{
  public:
    /** Append one event (hot path while tracing; append-only). */
    void push(const TraceEvent &event) { events.push_back(event); }

    std::size_t size() const { return events.size(); }

    const std::vector<TraceEvent> &entries() const { return events; }

  private:
    std::vector<TraceEvent> events;
};

/**
 * Owns the TraceBuffer and serializes its events as a Chrome
 * trace-event JSON document on destruction (or via writeFile()).
 *
 * The writer emits process/thread metadata naming every track, then
 * the events stable-sorted by (ts, track, tid) — Chrome requires
 * non-decreasing ts, the track tiebreak groups each cycle's events
 * by track, and same-key events keep emission order.  Abutting
 * quiescent-skip spans are coalesced into maximal machine-quiescent
 * intervals (the kernel chops one quiescent stretch at sample points
 * and at run() budgets), and duration pairs are balanced by
 * synthesizing an 'E' at the final timestamp for any span still open
 * when the run ended (e.g. a timed-out miss).
 */
class TraceSink
{
  public:
    /**
     * @param categories Enabled-category bitmask (parseCategories).
     * @param path Output file ("" = never auto-written; tests use
     *        write() on a stream instead).
     */
    explicit TraceSink(std::uint32_t categories,
                       std::string path = "");

    /** Writes the trace file (best effort) unless already written. */
    ~TraceSink();

    TraceSink(const TraceSink &) = delete;
    TraceSink &operator=(const TraceSink &) = delete;

    bool
    enabled(Category category) const
    {
        return (mask & static_cast<std::uint32_t>(category)) != 0;
    }

    std::uint32_t categories() const { return mask; }

    const std::string &path() const { return outPath; }

    /** Append one event. */
    void push(const TraceEvent &event) { events.push(event); }

    /** The event buffer components append to. */
    TraceBuffer *buffer() { return &events; }

    /** Number of buffered events. */
    std::size_t size() const { return events.size(); }

    /** Serialize the Chrome trace-event document to @p os. */
    void write(std::ostream &os) const;

    /**
     * Write the document to path() once (idempotent).
     * @return false on I/O failure or when path() is empty.
     */
    bool writeFile();

  private:
    std::uint32_t mask;
    std::string outPath;
    bool written = false;
    TraceBuffer events;
};

} // namespace obs
} // namespace ddc

#endif // DDC_OBS_TRACE_HH
