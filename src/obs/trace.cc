#include "obs/trace.hh"

#include <algorithm>
#include <fstream>
#include <iostream>
#include <ostream>
#include <tuple>
#include <utility>

namespace ddc {
namespace obs {

namespace {

struct CategoryName
{
    std::string_view name;
    Category category;
};

constexpr CategoryName kCategoryNames[] = {
    {"bus", Category::Bus},
    {"state", Category::State},
    {"lock", Category::Lock},
    {"miss", Category::Miss},
    {"quiesce", Category::Quiesce},
    {"dir", Category::Dir},
};

/** Minimal JSON string escaping; names are ASCII by construction. */
void
writeJsonString(std::ostream &os, std::string_view s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default: os << c;
        }
    }
    os << '"';
}

void
writeMetadata(std::ostream &os, std::int32_t pid, std::int32_t tid,
              const char *key, const std::string &value, bool &first)
{
    if (!first)
        os << ",\n";
    first = false;
    os << "    {\"name\": \"" << key << "\", \"ph\": \"M\", \"pid\": "
       << pid << ", \"tid\": " << tid << ", \"args\": {\"name\": ";
    writeJsonString(os, value);
    os << "}}";
}

const char *
trackName(std::int32_t track)
{
    switch (track) {
      case kTrackPes: return "PEs";
      case kTrackBuses: return "Buses";
      case kTrackLocks: return "Locks";
      case kTrackSim: return "Sim";
      case kTrackHomes: return "Homes";
      default: return "Track";
    }
}

const char *
tidPrefix(std::int32_t track)
{
    switch (track) {
      case kTrackPes: return "pe";
      case kTrackBuses: return "bus";
      case kTrackLocks: return "pe";
      case kTrackSim: return "sim";
      case kTrackHomes: return "home";
      default: return "t";
    }
}

bool
isQuiesceSpan(const TraceEvent &event)
{
    return event.phase == 'X' && event.track == kTrackSim &&
           event.name == "quiesce";
}

} // namespace

std::uint32_t
parseCategories(std::string_view list, std::string *error)
{
    std::uint32_t mask = 0;
    while (!list.empty()) {
        auto comma = list.find(',');
        std::string_view token = list.substr(0, comma);
        list = comma == std::string_view::npos
                   ? std::string_view{}
                   : list.substr(comma + 1);
        if (token.empty())
            continue;
        if (token == "all") {
            mask |= kAllCategories;
            continue;
        }
        bool found = false;
        for (const auto &entry : kCategoryNames) {
            if (token == entry.name) {
                mask |= static_cast<std::uint32_t>(entry.category);
                found = true;
                break;
            }
        }
        if (!found) {
            if (error)
                *error = std::string(token);
            return 0;
        }
    }
    return mask;
}

std::string
categoryNames(std::uint32_t mask)
{
    std::string names;
    for (const auto &entry : kCategoryNames) {
        if (!(mask & static_cast<std::uint32_t>(entry.category)))
            continue;
        if (!names.empty())
            names += ',';
        names += entry.name;
    }
    return names;
}

TraceSink::TraceSink(std::uint32_t categories, std::string path)
    : mask(categories), outPath(std::move(path))
{}

TraceSink::~TraceSink()
{
    const bool pending = !written && !outPath.empty();
    if (!writeFile() && pending)
        std::cerr << "warning: could not write trace file '" << outPath
                  << "'\n";
}

void
TraceSink::write(std::ostream &os) const
{
    // Stable-sort by (ts, track, tid).  Chrome requires a
    // non-decreasing timestamp stream; the track tiebreak groups each
    // cycle's events by track, and same-key events keep emission
    // order (a B at cycle t sorts before its same-cycle E).
    std::vector<TraceEvent> sorted = events.entries();
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const TraceEvent &a, const TraceEvent &b) {
                         return std::tie(a.ts, a.track, a.tid) <
                                std::tie(b.ts, b.track, b.tid);
                     });

    // Coalesce abutting quiescent-skip spans into maximal
    // machine-quiescent intervals.  The kernel chops one quiescent
    // stretch at sample points and at run() budgets; gluing
    // [a,b)+[b,c) -> [a,c) makes the written trace independent of
    // that chopping.
    std::size_t out = 0;
    std::size_t last_quiesce = sorted.size();
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        if (isQuiesceSpan(sorted[i]) && last_quiesce < out &&
            sorted[last_quiesce].ts + sorted[last_quiesce].dur ==
                sorted[i].ts) {
            sorted[last_quiesce].dur += sorted[i].dur;
            continue;
        }
        if (isQuiesceSpan(sorted[i]))
            last_quiesce = out;
        if (out != i)
            sorted[out] = sorted[i];
        ++out;
    }
    sorted.resize(out);

    os << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";

    // Name every track that carries events so Perfetto shows
    // "PEs/pe 0", "Buses/bus 1", ... instead of bare numbers.
    std::vector<std::pair<std::int32_t, std::int32_t>> tracks;
    for (const TraceEvent &event : sorted)
        tracks.emplace_back(event.track, event.tid);
    std::sort(tracks.begin(), tracks.end());
    tracks.erase(std::unique(tracks.begin(), tracks.end()),
                 tracks.end());

    bool first = true;
    std::int32_t named_pid = -1;
    for (const auto &[pid, tid] : tracks) {
        if (pid != named_pid) {
            writeMetadata(os, pid, 0, "process_name",
                          trackName(pid), first);
            named_pid = pid;
        }
        writeMetadata(os, pid, tid, "thread_name",
                      std::string(tidPrefix(pid)) + " " +
                          std::to_string(tid),
                      first);
    }

    // Track span depth per (pid, tid) so unmatched B events can be
    // closed at the end of the stream (balanced-pair guarantee).
    std::vector<std::pair<std::pair<std::int32_t, std::int32_t>,
                          int>> depth;
    auto depthOf = [&](std::int32_t pid, std::int32_t tid) -> int & {
        for (auto &entry : depth) {
            if (entry.first.first == pid && entry.first.second == tid)
                return entry.second;
        }
        depth.push_back({{pid, tid}, 0});
        return depth.back().second;
    };

    Cycle max_ts = 0;
    for (const TraceEvent &event : sorted) {
        max_ts = std::max(max_ts, event.ts + event.dur);
        if (event.phase == 'B')
            ++depthOf(event.track, event.tid);
        else if (event.phase == 'E')
            --depthOf(event.track, event.tid);

        if (!first)
            os << ",\n";
        first = false;
        os << "    {\"name\": ";
        writeJsonString(os, event.name);
        os << ", \"ph\": \"" << event.phase << "\", \"ts\": "
           << event.ts;
        if (event.phase == 'X')
            os << ", \"dur\": " << event.dur;
        if (event.phase == 'i')
            os << ", \"s\": \"t\"";
        os << ", \"pid\": " << event.track << ", \"tid\": "
           << event.tid;
        bool has_args = event.detail || event.has_addr ||
                        event.value_name;
        if (has_args) {
            os << ", \"args\": {";
            bool first_arg = true;
            if (event.detail) {
                os << "\"detail\": ";
                writeJsonString(os, event.detail);
                first_arg = false;
            }
            if (event.has_addr) {
                if (!first_arg)
                    os << ", ";
                os << "\"addr\": " << event.addr;
                first_arg = false;
            }
            if (event.value_name) {
                if (!first_arg)
                    os << ", ";
                os << '"' << event.value_name
                   << "\": " << event.value;
            }
            os << '}';
        }
        os << '}';
    }

    for (const auto &entry : depth) {
        for (int i = 0; i < entry.second; ++i) {
            if (!first)
                os << ",\n";
            first = false;
            os << "    {\"name\": \"unclosed\", \"ph\": \"E\", "
                  "\"ts\": "
               << max_ts << ", \"pid\": " << entry.first.first
               << ", \"tid\": " << entry.first.second << '}';
        }
    }

    os << "\n  ]\n}\n";
}

bool
TraceSink::writeFile()
{
    if (written || outPath.empty())
        return false;
    written = true;
    std::ofstream out(outPath);
    if (!out)
        return false;
    write(out);
    return static_cast<bool>(out);
}

} // namespace obs
} // namespace ddc
