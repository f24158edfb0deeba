/**
 * @file
 * The invariance matrix: one harness for every engine knob that must
 * leave a run's deterministic results unchanged.
 *
 * Section 4's theorem (every read returns the latest bus-serialized
 * value) stays checkable only because no fast path or observer can
 * change what a run does.  The knobs:
 *
 *  - skip: quiescent-cycle skipping and NACK-repeat parking
 *    (`engine.skip_quiescent`);
 *  - filter: the reaction-indexed snoop filter (`engine.snoop_filter`);
 *  - observed: a Chrome trace into a per-test temp file (every
 *    category in the per-knob cases, kMatrixTrace in the matrix),
 *    latency histograms, and counter sampling every 64 cycles;
 *  - directory: on a hierarchical snooping row, the same machine with
 *    the directory fabric and one home node (the H = 1 contract).
 *
 * A row is one machine and one trace.  It runs under every
 * combination of the knobs that apply to it (8, or 16 on hierarchical
 * snooping rows), and each run's fingerprint must equal the
 * all-defaults run's: cycles and status, the counter report, the full
 * execution log and the RunResult JSON with its "engine" object
 * removed, all from one run through exp::executeTraceRun.
 * Two differences are allowed, each only across its own knob: what
 * the directory adds (its dir.* counters, report lines and JSON keys,
 * its hot_home_skew metric, its three histograms and its dir.* sample
 * columns), and the "histograms"/"samples" fields observation adds.
 * Each run is also compared, without either allowance, to the run
 * with the same observed and directory setting and default skip and
 * filter, and each directory run, allowing only what the directory
 * adds, to the snooping run with the same other knobs: observed, the
 * one-home directory logs the snooping bus's lock attempts, so its
 * lock histograms match too.  Skipped cycles are compared between
 * runs that share the skip and interconnect setting, so observation
 * and the filter must not change how much is skipped.
 *
 * The Invariance.* cases run the full cross product, one case per
 * machine kind.  The SkipEquivalence, SnoopFilterEquivalence,
 * DirEquivalence and TraceDeterminism cases check their rows along
 * one knob each, and the directed cases cover what a row cannot: a
 * timed-out run's cycle, the engine defaults, lock programs,
 * many-home consistency and the JSON shape.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "exp/runner.hh"
#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "sim/system.hh"
#include "sync/programs.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"
#include "verify/consistency.hh"

namespace ddc {
namespace {

// ---- Knobs ---------------------------------------------------------

/** One bit per knob, set when the knob is moved off its default. */
enum Knob : unsigned
{
    kNoSkip = 1,
    kNoFilter = 2,
    kObserved = 4,
    kDirectory = 8,
};
constexpr unsigned kEveryKnob = kNoSkip | kNoFilter | kObserved | kDirectory;

std::string
knobName(unsigned knobs)
{
    if (knobs == 0)
        return "defaults";
    std::string name;
    for (auto [bit, label] : {std::pair{kNoSkip, "no-skip"},
                              std::pair{kNoFilter, "no-filter"},
                              std::pair{kObserved, "observed"},
                              std::pair{kDirectory, "directory"}}) {
        if (knobs & bit)
            name += (name.empty() ? "" : "+") + std::string(label);
    }
    return name;
}

/** A temp file name unique to the running test and process. */
std::string
tempTracePath()
{
    const auto *test =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string("ddc_invariance_") +
                       test->test_suite_name() + "." + test->name() +
                       "." + std::to_string(::getpid()) + ".json";
    return (std::filesystem::temp_directory_path() / name).string();
}

/** Counter sampling interval of an observed run, in cycles. */
constexpr Cycle kSampleEvery = 64;

/**
 * Arms a trace of @p categories into a per-test temp file for one run
 * when @p on (claimed by the next machine built).  The destructor
 * disarms it and deletes the file, so a failing assertion cannot leak
 * it; declare it before the machine, whose destruction writes the
 * trace.
 */
class ObservedScope
{
  public:
    ObservedScope(bool on, std::uint32_t categories)
        : path(on ? tempTracePath() : "")
    {
        if (!path.empty())
            obs::setTraceOutput(path, categories);
    }

    ~ObservedScope()
    {
        if (path.empty())
            return;
        obs::setTraceOutput("");
        std::remove(path.c_str());
    }

    /** The trace file as written (once its machine is destroyed). */
    std::string
    contents() const
    {
        std::ifstream in(path);
        std::ostringstream text;
        text << in.rdbuf();
        return text.str();
    }

    ObservedScope(const ObservedScope &) = delete;
    ObservedScope &operator=(const ObservedScope &) = delete;

  private:
    std::string path;
};

/**
 * Replaces the engine defaults every machine config starts from for
 * a scope and restores them when it ends, so a failing assertion
 * cannot leak them into later cases.
 */
class DefaultsScope
{
  public:
    explicit DefaultsScope(const EngineKnobs &knobs)
        : saved(engineDefaults())
    {
        setEngineDefaults(knobs);
    }
    ~DefaultsScope() { setEngineDefaults(saved); }

    DefaultsScope(const DefaultsScope &) = delete;
    DefaultsScope &operator=(const DefaultsScope &) = delete;

  private:
    EngineKnobs saved;
};

// ---- Rows ----------------------------------------------------------

enum class Kind { Flat, HierSnoop, HierDirectory };

/** One machine and trace of the matrix. */
struct Row
{
    std::string name;
    Kind kind = Kind::Flat;
    SystemConfig flat;
    hier::HierConfig hier;
    Trace trace;
    Cycle max_cycles = System::kDefaultMaxCycles;
    /** Its cluster buses park with the default knobs (non-vacuity). */
    bool parks = false;

    /** The knobs that apply: directory only on hierarchical snooping. */
    unsigned
    knobs() const
    {
        return kind == Kind::HierSnoop ? kEveryKnob
                                       : kEveryKnob & ~kDirectory;
    }

    /** PEs on one snooping bus (each flat bus sees every PE). */
    int
    pesPerBus() const
    {
        return kind == Kind::Flat ? flat.num_pes : hier.pes_per_cluster;
    }
};

Row
flatRow(std::string name, SystemConfig config, Trace trace,
        Cycle max_cycles = System::kDefaultMaxCycles)
{
    Row row;
    row.name = std::move(name) + "/" + std::string(toString(config.protocol));
    row.flat = config;
    row.trace = std::move(trace);
    row.max_cycles = max_cycles;
    return row;
}

Row
hierRow(std::string name, hier::HierConfig config, Trace trace,
        Cycle max_cycles = System::kDefaultMaxCycles)
{
    Row row;
    row.name = std::move(name) + "/" + std::string(toString(config.protocol));
    row.kind = config.global == hier::GlobalKind::Directory
                   ? Kind::HierDirectory
                   : Kind::HierSnoop;
    row.hier = config;
    row.trace = std::move(trace);
    row.max_cycles = max_cycles;
    return row;
}

SystemConfig
flatConfig(int pes, std::size_t lines, ProtocolKind protocol,
           std::size_t latency = 0)
{
    SystemConfig config;
    config.num_pes = pes;
    config.cache_lines = lines;
    config.protocol = protocol;
    config.memory_latency = latency;
    return config;
}

hier::HierConfig
hierConfig(int clusters, int pes, std::size_t lines, ProtocolKind protocol,
           int homes = 0)
{
    hier::HierConfig config;
    config.num_clusters = clusters;
    config.pes_per_cluster = pes;
    config.cache_lines = lines;
    config.protocol = protocol;
    if (homes > 0) {
        config.global = hier::GlobalKind::Directory;
        config.home_nodes = homes;
    }
    return config;
}

const ProtocolKind kFlatProtocols[] = {
    ProtocolKind::WriteThrough, ProtocolKind::WriteOnce, ProtocolKind::Rb,
    ProtocolKind::Rwb};
const ProtocolKind kRbRwb[] = {ProtocolKind::Rb, ProtocolKind::Rwb};

/** 4 PEs behind 16-cycle memory: mostly quiescent, so skip engages. */
std::vector<Row>
latencyRows()
{
    std::vector<Row> rows;
    for (auto protocol : kFlatProtocols) {
        rows.push_back(flatRow("latency16", flatConfig(4, 64, protocol, 16),
                               makeUniformRandomTrace(4, 1500, 64, 0.3,
                                                      0.05, 11)));
    }
    return rows;
}

/** The paper's unified cycle, 8 PEs: seed 11 (1500 refs/PE) or 41. */
std::vector<Row>
uniformRows(std::uint64_t seed)
{
    std::size_t refs = seed == 11 ? 1500 : 1200;
    std::vector<Row> rows;
    for (auto protocol : kFlatProtocols) {
        rows.push_back(flatRow("uniform_seed" + std::to_string(seed),
                               flatConfig(8, 64, protocol),
                               makeUniformRandomTrace(8, refs, 64, 0.3,
                                                      0.05, seed)));
    }
    return rows;
}

/**
 * Producer/consumer ping-pongs ownership, so the supplier scan runs
 * constantly: the index must name the owner the full scan finds.
 */
std::vector<Row>
producerConsumerRows()
{
    std::vector<Row> rows;
    for (auto protocol : kRbRwb) {
        rows.push_back(flatRow("producer_consumer",
                               flatConfig(8, 128, protocol),
                               makeProducerConsumerTrace(8, 32, 20, 2)));
    }
    return rows;
}

/**
 * The Random arbiter draws one value per grant, so no knob may
 * consume randomness: every later grant would shift.
 */
std::vector<Row>
randomArbiterRows(std::size_t latency)
{
    std::vector<Row> rows;
    for (auto protocol : kRbRwb) {
        SystemConfig config = flatConfig(8, 128, protocol, latency);
        config.arbiter = ArbiterKind::Random;
        config.arbiter_seed = 99;
        rows.push_back(flatRow("random_arbiter_latency" +
                                   std::to_string(latency),
                               config, makeHotSpotTrace(8, 300, 8)));
    }
    return rows;
}

/**
 * Multi-word blocks (block-granular presence, clean retags, streamed
 * transfers) and two interleaved buses (per-bus grant windows and
 * sharer indexes), with and without memory latency.
 */
std::vector<Row>
blockAndBusRows(bool latency)
{
    std::vector<Row> rows;
    int pes = latency ? 4 : 8;
    auto trace = makeUniformRandomTrace(pes, 1200, 128, 0.4, 0.1, 23);
    SystemConfig blocks =
        flatConfig(pes, latency ? 32 : 16, ProtocolKind::Rb,
                   latency ? 12 : 0);
    blocks.block_words = 4;
    rows.push_back(flatRow(latency ? "blocks4_latency12" : "blocks4",
                           blocks, trace));
    SystemConfig buses =
        flatConfig(pes, 64, ProtocolKind::WriteOnce, latency ? 16 : 0);
    buses.num_buses = 2;
    rows.push_back(flatRow(latency ? "two_buses_latency16" : "two_buses",
                           buses, trace));
    return rows;
}

/** Both engines busy at once: 8 PEs behind 16-cycle memory. */
Row
combinedEnginesRow()
{
    return flatRow("latency16_8pe", flatConfig(8, 64, ProtocolKind::Rb, 16),
                   makeUniformRandomTrace(8, 1000, 64, 0.3, 0.05, 31));
}

/** Miss spans hook block transfers; the quiesce category hooks skips. */
Row
tracedBlocksRow()
{
    SystemConfig config = flatConfig(8, 32, ProtocolKind::Rb, 16);
    config.block_words = 4;
    return flatRow("blocks4_latency16", config,
                   makeUniformRandomTrace(8, 1000, 64, 0.4, 0.1, 23));
}

/** The paper's machine and mix: skip can never engage here. */
Row
cmStarMixRow()
{
    SystemConfig config;
    config.num_pes = 4;
    return flatRow("cmstar_a", config,
                   makeCmStarTrace(cmStarApplicationA(), 4, 2000, 7));
}

/** A budget that expires mid-quiescent-interval. */
Row
timedOutRow(int pes)
{
    return flatRow("timed_out_" + std::to_string(pes) + "pe",
                   flatConfig(pes, 64, ProtocolKind::Rb, 64),
                   makeHotSpotTrace(pes, 400, 8), 100);
}

/**
 * 70 clients on one bus: the sharer index holds the first 64, and the
 * rest are visited on every snoop.
 */
Row
seventyClientsRow()
{
    return flatRow("seventy_clients_70pe",
                   flatConfig(70, 32, ProtocolKind::Rb),
                   makeUniformRandomTrace(70, 400, 32, 0.3, 0.05, 7));
}

/** Two- and four-way set-associative (LRU) caches of 4-word blocks. */
std::vector<Row>
waysRows()
{
    std::vector<Row> rows;
    auto trace = makeUniformRandomTrace(4, 1200, 128, 0.4, 0.1, 23);
    for (std::size_t ways : {2, 4}) {
        SystemConfig config = flatConfig(4, 16, ways == 2 ? ProtocolKind::Rwb
                                                          : ProtocolKind::Rb,
                                         ways == 2 ? 0 : 12);
        config.block_words = 4;
        config.ways = ways;
        rows.push_back(flatRow("ways" + std::to_string(ways) + "_blocks4",
                               config, trace));
    }
    return rows;
}

/** The Cm* protocol itself, and the FixedPriority arbiter. */
std::vector<Row>
cmStarAndFixedPriorityRows()
{
    SystemConfig fixed = flatConfig(8, 128, ProtocolKind::Rwb, 8);
    fixed.arbiter = ArbiterKind::FixedPriority;
    return {flatRow("cmstar_protocol", flatConfig(4, 64, ProtocolKind::CmStar),
                    makeCmStarTrace(cmStarApplicationA(), 4, 1500, 3)),
            flatRow("fixed_priority_latency8", fixed,
                    makeHotSpotTrace(8, 300, 8))};
}

/** 4 clusters x 2 PEs on the snooping global bus, RB and RWB. */
std::vector<Row>
hierUniformRows(std::size_t refs, std::uint64_t seed)
{
    std::vector<Row> rows;
    for (auto protocol : kRbRwb) {
        rows.push_back(hierRow("hier_uniform_seed" + std::to_string(seed),
                               hierConfig(4, 2, 64, protocol),
                               makeUniformRandomTrace(8, refs, 64, 0.3,
                                                      0.05, seed)));
    }
    return rows;
}

/** Ownership migrates between clusters: the owner-forward path. */
std::vector<Row>
hierProducerConsumerRows()
{
    std::vector<Row> rows;
    for (auto protocol : kRbRwb) {
        rows.push_back(hierRow("hier_producer_consumer",
                               hierConfig(4, 2, 128, protocol),
                               makeProducerConsumerTrace(8, 32, 20, 2)));
    }
    return rows;
}

/**
 * 4 clusters x 8 PEs spinning on one lock over the snooping global bus
 * (RoundRobin): the cluster buses park on repeated TestAndSet NACKs.
 */
std::vector<Row>
hierHotSpotRows()
{
    std::vector<Row> rows;
    for (auto protocol : kRbRwb) {
        rows.push_back(hierRow("hier_4x8_hot_spot",
                               hierConfig(4, 8, 64, protocol),
                               makeHotSpotTrace(32, 20, 8)));
        rows.back().parks = true;
    }
    return rows;
}

/**
 * The same machine timed out at cycle 645 of 654, while its cluster
 * buses are parked with cycles owed: only the run's final flush books
 * them.
 */
Row
hierTimedOutHotSpotRow()
{
    Row row = hierRow("hier_4x8_hot_spot_timed_out",
                      hierConfig(4, 8, 64, ProtocolKind::Rb),
                      makeHotSpotTrace(32, 20, 8), 645);
    row.parks = true;
    return row;
}

/** Home 0 arbitrates with seed + 0: the H = 1 stream must match. */
Row
hierRandomArbiterRow()
{
    hier::HierConfig config = hierConfig(4, 2, 64, ProtocolKind::Rb);
    config.arbiter = ArbiterKind::Random;
    config.arbiter_seed = 99;
    return hierRow("hier_random_arbiter", config,
                   makeHotSpotTrace(8, 400, 8));
}

/** The trace the power-of-two home rows replay, on the snooping bus. */
Row
hierPow2TraceRow()
{
    return hierRow("hier_producer_consumer48",
                   hierConfig(4, 2, 64, ProtocolKind::Rb),
                   makeProducerConsumerTrace(8, 48, 25, 3));
}

Row
hierEightClusterRow()
{
    return hierRow("hier_8x2", hierConfig(8, 2, 64, ProtocolKind::Rb),
                   makeUniformRandomTrace(16, 600, 64, 0.35, 0.1, 31));
}

Row
hierFixedPriorityRow()
{
    hier::HierConfig config = hierConfig(4, 2, 64, ProtocolKind::Rwb);
    config.arbiter = ArbiterKind::FixedPriority;
    return hierRow("hier_fixed_priority", config,
                   makeHotSpotTrace(8, 400, 8));
}

/** Three homes: not a power of two, so routing takes the modulo. */
Row
threeHomesRow()
{
    return hierRow("dir3_uniform", hierConfig(4, 2, 64, ProtocolKind::Rb, 3),
                   makeUniformRandomTrace(8, 800, 64, 0.3, 0.05, 17));
}

/** Four homes: the mask routing fast path. */
Row
fourHomesRow()
{
    return hierRow("dir4_pow2", hierConfig(4, 2, 64, ProtocolKind::Rb, 4),
                   makeProducerConsumerTrace(8, 48, 25, 3));
}

/**
 * 4 x 8 PEs on two homes: failed TestAndSets send Reads down through
 * each sharer cluster's filtered bus.
 */
std::vector<Row>
twoHomeRows()
{
    std::vector<Row> rows;
    for (bool hot_spot : {true, false}) {
        for (auto protocol : kRbRwb) {
            rows.push_back(hierRow(
                hot_spot ? "dir2_4x8_hot_spot" : "dir2_4x8_clustered",
                hierConfig(4, 8, 64, protocol, 2),
                hot_spot ? makeHotSpotTrace(32, 20, 8)
                         : makeClusteredTrace(4, 8, 300, 0.8, 0.3, 5)));
            rows.back().parks = hot_spot;
        }
    }
    return rows;
}

Row
eightClusterDirectoryRow()
{
    return hierRow("dir4_8x2", hierConfig(8, 2, 64, ProtocolKind::Rb, 4),
                   makeUniformRandomTrace(16, 600, 64, 0.35, 0.1, 43));
}

template <typename... Groups>
std::vector<Row>
concat(Groups... groups)
{
    std::vector<Row> rows;
    (rows.insert(rows.end(), groups.begin(), groups.end()), ...);
    return rows;
}

// The matrix: every machine above once.  Rows that repeat another
// row's machine with a different trace (uniformRows(11),
// combinedEnginesRow, tracedBlocksRow, hierUniformRows(1500, 11),
// hierPow2TraceRow) run only in their per-knob cases.

std::vector<Row>
paperBusRows()
{
    return concat(latencyRows(), uniformRows(41), producerConsumerRows(),
                  randomArbiterRows(8), randomArbiterRows(0),
                  cmStarAndFixedPriorityRows(),
                  std::vector{cmStarMixRow(), timedOutRow(4), timedOutRow(8)});
}

std::vector<Row>
blockWayAndBusRows()
{
    return concat(blockAndBusRows(true), blockAndBusRows(false), waysRows(),
                  std::vector{seventyClientsRow()});
}

std::vector<Row>
hierSnoopRows()
{
    return concat(hierUniformRows(800, 17), hierProducerConsumerRows(),
                  hierHotSpotRows(),
                  std::vector{hierRandomArbiterRow(), hierEightClusterRow(),
                              hierFixedPriorityRow(),
                              hierTimedOutHotSpotRow()});
}

std::vector<Row>
directoryRows()
{
    return concat(std::vector{threeHomesRow(), fourHomesRow(),
                              eightClusterDirectoryRow()},
                  twoHomeRows());
}

// ---- Observation ---------------------------------------------------

/** Everything deterministic one run produced. */
struct Fingerprint
{
    Cycle cycles = 0;
    RunStatus status = RunStatus::Finished;
    std::string counters;
    std::vector<LogEntry> log;
    /** executeTraceRun's toJson(true) minus "engine". */
    exp::Json json;
};

/** One run: its fingerprint plus what the knobs may move. */
struct Outcome
{
    Fingerprint fingerprint;
    Cycle skipped = 0;
    std::uint64_t parked = 0;
    std::uint64_t snoop_visits = 0;
    std::uint64_t global_ops = 0;
};

/** @p json without the members named in @p keys. */
exp::Json
without(const exp::Json &json, std::initializer_list<const char *> keys)
{
    if (json.kind() != exp::Json::Kind::Object)
        return json;
    exp::Json kept = exp::Json::object();
    for (const auto &[key, value] : json.items()) {
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            kept[key] = value;
    }
    return kept;
}

/** A counter report without its dir.* lines. */
std::string
withoutDirCounters(const std::string &report)
{
    std::istringstream in(report);
    std::string out, line;
    while (std::getline(in, line)) {
        if (line.rfind("dir.", 0) != 0)
            out += line + '\n';
    }
    return out;
}

/** A sample series without its dir.* columns. */
exp::Json
withoutDirColumns(const exp::Json &samples)
{
    const exp::Json &names = *samples.find("columns");
    const exp::Json &series = *samples.find("rows");
    std::vector<bool> dropped{false}; // each row leads with its cycle
    exp::Json columns = exp::Json::array();
    for (std::size_t i = 0; i < names.size(); i++) {
        dropped.push_back(names.at(i).asString().rfind("dir.", 0) == 0);
        if (!dropped.back())
            columns.push(names.at(i));
    }
    exp::Json rows = exp::Json::array();
    for (std::size_t r = 0; r < series.size(); r++) {
        exp::Json kept = exp::Json::array();
        for (std::size_t i = 0; i < series.at(r).size(); i++) {
            if (!dropped.at(i))
                kept.push(series.at(r).at(i));
        }
        rows.push(std::move(kept));
    }
    exp::Json kept = samples;
    kept["columns"] = std::move(columns);
    kept["rows"] = std::move(rows);
    return kept;
}

/**
 * RunResult JSON without what the directory may add: the
 * hot_home_skew metric, the dir.* counters, the home_service,
 * acks_per_inval and dir_occupancy histograms, and the dir.* sample
 * columns.
 */
exp::Json
withoutDirKeys(const exp::Json &json)
{
    if (json.kind() != exp::Json::Kind::Object)
        return json;
    exp::Json kept = exp::Json::object();
    for (const auto &[key, value] : json.items()) {
        if (key == "metrics") {
            kept[key] = without(value, {"hot_home_skew"});
        } else if (key == "counters") {
            exp::Json counters = exp::Json::object();
            for (const auto &[name, count] : value.items()) {
                if (name.rfind("dir.", 0) != 0)
                    counters[name] = count;
            }
            kept[key] = std::move(counters);
        } else if (key == "histograms") {
            kept[key] = without(value, {"home_service", "acks_per_inval",
                                        "dir_occupancy"});
        } else if (key == "samples") {
            kept[key] = withoutDirColumns(value);
        } else {
            kept[key] = value;
        }
    }
    return kept;
}

void
expectObserversAttached(obs::Recorder *recorder)
{
    ASSERT_NE(recorder, nullptr);
    EXPECT_NE(recorder->metrics(), nullptr);
    EXPECT_NE(recorder->sampler(), nullptr);
    obs::TraceSink *sink = recorder->sink();
    EXPECT_TRUE(sink != nullptr && sink->size() > 0) << "empty trace";
}

/**
 * A flat or hierarchical machine configuration with @p knobs applied
 * and its log recorded.
 */
template <typename Config>
Config
withKnobs(Config config, unsigned knobs)
{
    config.record_log = true;
    config.engine.skip_quiescent = !(knobs & kNoSkip);
    config.engine.snoop_filter = !(knobs & kNoFilter);
    config.engine.histograms = (knobs & kObserved) != 0;
    config.engine.sample_every = (knobs & kObserved) ? kSampleEvery : 0;
    if constexpr (std::is_same_v<Config, hier::HierConfig>) {
        if (knobs & kDirectory) {
            config.global = hier::GlobalKind::Directory;
            config.home_nodes = 1;
        }
    }
    return config;
}

/**
 * Run @p row under @p knobs once, through exp::executeTraceRun,
 * tracing @p categories when observed.  Cycles, status, counters,
 * engine counts and the JSON (toJson(true) without "engine", which
 * must be toJson(false) exactly) come from the RunResult; the log,
 * the trace sink and the fabric from the machine it hands back.
 */
Outcome
observe(const Row &row, unsigned knobs,
        std::uint32_t categories = obs::kAllCategories)
{
    ObservedScope observed(knobs & kObserved, categories);
    exp::TraceRun run;
    if (row.kind == Kind::Flat)
        run.config = withKnobs(row.flat, knobs);
    else
        run.hier = withKnobs(row.hier, knobs);
    run.trace = row.trace;
    run.max_cycles = row.max_cycles;
    std::unique_ptr<Multiprocessor> machine;
    exp::RunResult result = exp::executeTraceRun(run, &machine);

    Outcome outcome;
    outcome.fingerprint.cycles = result.cycles;
    outcome.fingerprint.status = result.status;
    outcome.fingerprint.counters = result.counters.report();
    outcome.fingerprint.log = machine->log().all();
    outcome.fingerprint.json = without(result.toJson(true), {"engine"});
    EXPECT_EQ(outcome.fingerprint.json.dump(), result.toJson(false).dump());
    outcome.skipped = result.engine.skipped_cycles;
    outcome.parked = result.engine.parked_cycles;
    outcome.snoop_visits = result.engine.snoop_visits;
    if (knobs & kObserved) {
        expectObserversAttached(machine->observability());
        EXPECT_FALSE(result.histograms.isNull());
        EXPECT_FALSE(result.samples.isNull());
    }
    if (run.hier) {
        outcome.global_ops = result.bus_transactions;
        const auto *fabric =
            static_cast<const hier::HierSystem &>(*machine)
                .directoryFabric();
        if (run.hier->global == hier::GlobalKind::Directory) {
            EXPECT_NE(fabric, nullptr) << "directory fabric not built";
            if (fabric != nullptr) {
                EXPECT_EQ(fabric->numHomes(), run.hier->home_nodes);
                EXPECT_GT(fabric->directoryBlocks(), 0u);
            }
        } else {
            EXPECT_EQ(fabric, nullptr);
        }
    }
    return outcome;
}

// ---- Comparison ----------------------------------------------------

void
expectSameLog(const std::vector<LogEntry> &expected,
              const std::vector<LogEntry> &actual)
{
    auto [e, a] = std::mismatch(expected.begin(), expected.end(),
                                actual.begin(), actual.end());
    if (e == expected.end() && a == actual.end())
        return;
    auto describe = [](auto it, auto end) {
        if (it == end)
            return std::string("(end of log)");
        std::ostringstream os;
        os << "{cycle " << it->cycle << ", pe "
           << it->pe << ", op " << static_cast<int>(it->op) << ", addr "
           << it->addr << ", value " << it->value << ", stored "
           << it->stored << ", ts_success " << it->ts_success << "}";
        return os.str();
    };
    ADD_FAILURE() << "execution logs differ first at entry "
                  << (e - expected.begin()) << " (lengths "
                  << expected.size() << " vs " << actual.size()
                  << "): expected " << describe(e, expected.end())
                  << ", got " << describe(a, actual.end());
}

/**
 * Expect @p actual to equal @p expected; @p allowed names the knobs
 * whose permitted difference (what the directory adds, observation's
 * JSON fields) the comparison spans.
 */
void
expectSame(const Fingerprint &expected, const Fingerprint &actual,
           unsigned allowed)
{
    EXPECT_EQ(actual.cycles, expected.cycles);
    EXPECT_EQ(actual.status, expected.status);
    exp::Json expected_json = expected.json, actual_json = actual.json;
    if (allowed & kDirectory) {
        EXPECT_EQ(withoutDirCounters(actual.counters),
                  withoutDirCounters(expected.counters));
        expected_json = withoutDirKeys(expected_json);
        actual_json = withoutDirKeys(actual_json);
    } else {
        EXPECT_EQ(actual.counters, expected.counters);
    }
    expectSameLog(expected.log, actual.log);
    if (allowed & kObserved) {
        expected_json = without(expected_json, {"histograms", "samples"});
        actual_json = without(actual_json, {"histograms", "samples"});
    }
    EXPECT_EQ(actual_json.dump(), expected_json.dump());
}

/**
 * Run @p row under every combination of the knobs in @p axes that
 * apply to it, and hold every run to the all-defaults run.  Observed
 * runs trace @p categories.
 * @return The runs, keyed by knob combination.
 */
std::map<unsigned, Outcome>
checkRow(const Row &row, unsigned axes,
         std::uint32_t categories = obs::kAllCategories)
{
    SCOPED_TRACE(row.name);
    axes &= row.knobs();
    std::map<unsigned, Outcome> runs;
    for (unsigned knobs = 0; knobs <= axes; knobs++) {
        if ((knobs & ~axes) == 0) {
            SCOPED_TRACE(knobName(knobs));
            runs.emplace(knobs, observe(row, knobs, categories));
        }
    }
    for (const auto &[knobs, run] : runs) {
        SCOPED_TRACE(knobName(knobs));
        expectSame(runs.at(0).fingerprint, run.fingerprint, knobs);
        // Unrelaxed, against the run with the same observed and
        // interconnect setting and default skip and filter.
        expectSame(runs.at(knobs & (kObserved | kDirectory)).fingerprint,
                   run.fingerprint, 0);
        // The H = 1 contract, observers included: only what the
        // directory adds may differ from the snooping run.
        if (knobs & kDirectory) {
            expectSame(runs.at(knobs & ~kDirectory).fingerprint,
                       run.fingerprint, kDirectory);
        }
        EXPECT_EQ(run.skipped,
                  runs.at(knobs & (kNoSkip | kDirectory)).skipped);
        if (knobs & kNoSkip) {
            EXPECT_EQ(run.skipped, 0u);
        }
        // Parking is part of skip, and observers keep every grant.
        if (knobs & (kNoSkip | kObserved)) {
            EXPECT_EQ(run.parked, 0u);
        }
    }

    // Non-vacuity: each crossed knob did something on this row.
    const Outcome &base = runs.at(0);
    if (row.kind == Kind::Flat && (axes & kNoSkip)) {
        // Only streamed transfers (memory latency, multi-word blocks)
        // leave every PE stalled, so only they give skip work.
        if (row.flat.memory_latency > 0 || row.flat.block_words > 1)
            EXPECT_GT(base.skipped, 0u) << "skip never engaged";
        else
            EXPECT_EQ(base.skipped, 0u) << "skip engaged without streaming";
    }
    if ((axes & kNoFilter) && row.pesPerBus() > 2) {
        EXPECT_LT(base.snoop_visits, runs.at(kNoFilter).snoop_visits)
            << "the filter skipped no visit";
    }
    if (axes & kDirectory) {
        EXPECT_GT(base.global_ops, 0u) << "no cross-cluster traffic";
    }
    if (row.parks && (axes & kNoSkip)) {
        EXPECT_GT(base.parked, 0u) << "no cluster bus parked";
    }
    return runs;
}

void
checkRows(const std::vector<Row> &rows, unsigned axes,
          std::uint32_t categories = obs::kAllCategories)
{
    for (const Row &row : rows)
        checkRow(row, axes, categories);
}

// ---- The matrix ----------------------------------------------------

/**
 * What the matrix traces: lock episodes, miss spans, quiescent skips
 * and directory traffic.  Bus transactions and per-line state changes
 * are 80-90% of a trace's events and of the time to write it, and
 * would double the matrix's run time; the TraceDeterminism cases
 * trace every category on their rows.
 */
constexpr std::uint32_t kMatrixTrace =
    obs::kAllCategories & ~static_cast<std::uint32_t>(obs::Category::Bus) &
    ~static_cast<std::uint32_t>(obs::Category::State);

TEST(Invariance, FlatPaperBusRows)
{
    checkRows(paperBusRows(), kEveryKnob, kMatrixTrace);
}

TEST(Invariance, FlatBlocksWaysAndBuses)
{
    checkRows(blockWayAndBusRows(), kEveryKnob, kMatrixTrace);
}

TEST(Invariance, HierarchicalSnoopRowsAndTheirOneHomeDirectory)
{
    checkRows(hierSnoopRows(), kEveryKnob, kMatrixTrace);
}

TEST(Invariance, DirectoryRowsWithManyHomes)
{
    checkRows(directoryRows(), kEveryKnob, kMatrixTrace);
}

// ---- Per-knob cases (rows along one knob) --------------------------

TEST(SkipEquivalence, FlatMemoryLatencyAllProtocols)
{
    checkRows(latencyRows(), kNoSkip);
}

TEST(SkipEquivalence, FlatRandomArbiterKeepsRngStream)
{
    checkRows(randomArbiterRows(8), kNoSkip);
}

TEST(SkipEquivalence, FlatBlockTransfersAndMultibus)
{
    checkRows(blockAndBusRows(true), kNoSkip);
}

TEST(SkipEquivalence, FlatZeroLatencyStaysIdentical)
{
    checkRow(cmStarMixRow(), kNoSkip);
}

TEST(SkipEquivalence, HierarchicalMachine)
{
    checkRows(hierUniformRows(800, 17), kNoSkip);
}

TEST(SkipEquivalence, HierarchicalBudgetEndsInsideAPark)
{
    Row row = hierTimedOutHotSpotRow();
    auto runs = checkRow(row, kNoSkip);
    EXPECT_EQ(runs.at(0).fingerprint.status, RunStatus::TimedOut);
    // Non-vacuity: ticked to the budget, some cluster bus still owes
    // parked cycles that only a settle (here counters()) books.
    hier::HierSystem machine(withKnobs(row.hier, 0));
    machine.loadTrace(row.trace);
    for (Cycle c = 0; c < row.max_cycles; c++)
        machine.tick();
    std::uint64_t settled = machine.parkedCycles();
    machine.counters();
    EXPECT_GT(machine.parkedCycles(), settled);
}

TEST(SnoopFilterEquivalence, FlatAllProtocols)
{
    checkRows(uniformRows(11), kNoFilter);
}

TEST(SnoopFilterEquivalence, FlatSupplierHeavyOwnershipMigration)
{
    checkRows(producerConsumerRows(), kNoFilter);
}

TEST(SnoopFilterEquivalence, FlatRandomArbiterKeepsRngStream)
{
    checkRows(randomArbiterRows(0), kNoFilter);
}

TEST(SnoopFilterEquivalence, FlatBlockTransfersAndMultibus)
{
    checkRows(blockAndBusRows(false), kNoFilter);
}

TEST(SnoopFilterEquivalence, FlatCombinedWithQuiescentSkip)
{
    checkRow(combinedEnginesRow(), kNoFilter | kNoSkip);
}

TEST(SnoopFilterEquivalence, HierarchicalMachine)
{
    // Cluster caches stay always-snoop on the global bus; the filter
    // works on the cluster buses, and skips visits even at 2 PEs.
    for (const Row &row : hierUniformRows(800, 17)) {
        auto runs = checkRow(row, kNoFilter);
        EXPECT_LT(runs.at(0).snoop_visits, runs.at(kNoFilter).snoop_visits);
    }
}

TEST(SnoopFilterEquivalence, HierarchicalDirectory)
{
    checkRows(twoHomeRows(), kNoFilter);
}

TEST(DirEquivalence, RandomTracesAcrossProtocols)
{
    checkRows(hierUniformRows(1500, 11), kDirectory);
}

TEST(DirEquivalence, OwnershipMigrationExercisesTheKillPath)
{
    checkRows(hierProducerConsumerRows(), kDirectory);
}

TEST(DirEquivalence, RandomArbiterKeepsRngStream)
{
    checkRow(hierRandomArbiterRow(), kDirectory);
}

/** The lock-category trace file of @p row's run under @p knobs. */
std::string
lockTraceOf(const Row &row, unsigned knobs)
{
    ObservedScope traced(true, static_cast<std::uint32_t>(obs::Category::Lock));
    exp::TraceRun run;
    run.hier = withKnobs(row.hier, knobs);
    run.trace = row.trace;
    exp::executeTraceRun(run);
    return traced.contents();
}

TEST(DirEquivalence, OneHomeLockTraceIsTheSnoopingBusTrace)
{
    // The home serves grants through the bus's transaction path, lock
    // attempts included, so a lock-only trace of a one-home run is the
    // snooping run's, byte for byte.
    Row row = hierRow("hier_4x4_hot_spot",
                      hierConfig(4, 4, 64, ProtocolKind::Rb),
                      makeHotSpotTrace(16, 20, 8));
    std::string snooping = lockTraceOf(row, 0);
    EXPECT_NE(snooping.find("\"acquire\""), std::string::npos)
        << "no lock acquisition traced";
    EXPECT_EQ(lockTraceOf(row, kDirectory), snooping);
}

TEST(DirEquivalence, QuiescentSkipIsUnobservableInDirectoryMode)
{
    checkRow(threeHomesRow(), kNoSkip);
}

TEST(DirEquivalence, Pow2HomeRoutingAndQuiescentSkipMatchTicking)
{
    // The mask-routed four-home machine against its own ticking run,
    // and its trace on the snooping bus against the one-home fabric.
    checkRow(fourHomesRow(), kNoSkip);
    checkRow(hierPow2TraceRow(), kDirectory);
}

TEST(TraceDeterminism, FlatAllProtocols)
{
    checkRows(uniformRows(41), kObserved);
}

TEST(TraceDeterminism, RandomArbiterKeepsRngStream)
{
    checkRow(randomArbiterRows(0)[1], kObserved);
}

TEST(TraceDeterminism, QuiescentSkipAndMultiWordBlocks)
{
    checkRow(tracedBlocksRow(), kObserved);
}

TEST(TraceDeterminism, HierarchicalSnoopAndDirectory)
{
    checkRow(hierEightClusterRow(), kObserved);
    checkRow(eightClusterDirectoryRow(), kObserved);
}

TEST(TraceDeterminism, RunResultJsonByteIdenticalTracingOnVsOff)
{
    // The RWB producer/consumer row, and its RunResult JSON with the
    // trace claimed by the experiment engine's own machine.
    Row row = producerConsumerRows()[1];
    auto runs = checkRow(row, kObserved);
    exp::TraceRun run;
    run.config = row.flat;
    run.trace = row.trace;
    ObservedScope traced(true, obs::kAllCategories);
    EXPECT_EQ(exp::executeTraceRun(run).toJson(false).dump(),
              runs.at(0).fingerprint.json.dump());
}

// ---- Directed cases ------------------------------------------------

TEST(SkipEquivalence, TimedOutRunReportsWallCycle)
{
    // The budget expires mid-quiescent-interval: the skip engine must
    // clamp its jump and report the budget cycle, like ticking does.
    auto runs = checkRow(timedOutRow(4), kNoSkip);
    for (const auto &[knobs, run] : runs) {
        EXPECT_EQ(run.fingerprint.status, RunStatus::TimedOut);
        EXPECT_EQ(run.fingerprint.cycles, 100u);
    }
    EXPECT_GT(runs.at(0).skipped, 0u);
}

TEST(SkipEquivalence, TimedOutRunResultJsonIsIdentical)
{
    // Through the experiment engine: RunResult.cycles is the budget
    // cycle, and only the engine object sees the skip.
    Row row = timedOutRow(4);
    auto runs = checkRow(row, kNoSkip);
    const exp::Json &json = runs.at(0).fingerprint.json;
    EXPECT_EQ(json.find("status")->asString(), "timed_out");
    EXPECT_EQ(json.find("cycles")->asInt(), 100);
    exp::TraceRun run;
    run.config = row.flat;
    run.trace = row.trace;
    run.max_cycles = row.max_cycles;
    EXPECT_GT(exp::executeTraceRun(run).engine.skipped_cycles, 0u);
}

TEST(SnoopFilterEquivalence, TimedOutRunResultJsonIsIdentical)
{
    Row row = timedOutRow(8);
    auto runs = checkRow(row, kNoFilter);
    EXPECT_EQ(runs.at(0).fingerprint.json.find("cycles")->asInt(), 100);
    // The visit count moved, and only the engine object shows it.
    exp::TraceRun run;
    run.config = row.flat;
    run.trace = row.trace;
    run.max_cycles = row.max_cycles;
    exp::RunResult filtered = exp::executeTraceRun(run);
    run.config.engine.snoop_filter = false;
    exp::RunResult unfiltered = exp::executeTraceRun(run);
    EXPECT_LT(filtered.engine.snoop_visits, unfiltered.engine.snoop_visits);
    EXPECT_EQ(filtered.toJson(false).dump(), unfiltered.toJson(false).dump());
}

TEST(ParallelEquivalence, TimedOutRunReportsTheSameWallCycle)
{
    // A hierarchical run cut by its budget stops on exactly the
    // budget cycle and reports timed_out, skipping or not, and a
    // fresh machine repeats it byte for byte.
    Row row = hierRow("hier_timed_out", hierConfig(4, 2, 64, ProtocolKind::Rb),
                      makeHotSpotTrace(8, 400, 4), 200);
    auto runs = checkRow(row, kNoSkip);
    for (const auto &[knobs, run] : runs) {
        EXPECT_EQ(run.fingerprint.status, RunStatus::TimedOut);
        EXPECT_EQ(run.fingerprint.cycles, 200u);
    }
    Outcome again = observe(row, 0);
    expectSame(runs.at(0).fingerprint, again.fingerprint, 0);
    EXPECT_EQ(again.skipped, runs.at(0).skipped);
}

TEST(TraceDeterminism, HistogramsOnlyAddJsonFields)
{
    exp::TraceRun run;
    run.trace = makeUniformRandomTrace(8, 1000, 64, 0.3, 0.05, 13);
    run.config = flatConfig(8, 64, ProtocolKind::Rb);
    exp::RunResult plain = exp::executeTraceRun(run);
    EXPECT_TRUE(plain.histograms.isNull());
    EXPECT_TRUE(plain.samples.isNull());

    run.config.engine.histograms = true;
    run.config.engine.sample_every = 100;
    exp::RunResult observed = exp::executeTraceRun(run);
    ASSERT_FALSE(observed.histograms.isNull());
    ASSERT_FALSE(observed.samples.isNull());
    // Every shared field is byte-identical; the two are appended.
    EXPECT_EQ(without(observed.toJson(false), {"histograms", "samples"})
                  .dump(),
              plain.toJson(false).dump());
    exp::Json json = observed.toJson(false);
    const auto &items = json.items();
    ASSERT_GE(items.size(), 2u);
    EXPECT_EQ(items[items.size() - 2].first, "histograms");
    EXPECT_EQ(items.back().first, "samples");
}

/** A lock experiment with the log recorded, and its machine. */
struct LockRun
{
    sync::LockExperimentResult result;
    std::unique_ptr<System> system;
};

sync::LockExperimentConfig
lockConfig(sync::LockKind lock, ProtocolKind protocol, std::size_t latency)
{
    sync::LockExperimentConfig config;
    config.num_pes = 8;
    config.lock = lock;
    config.protocol = protocol;
    config.acquisitions_per_pe = 4;
    config.cs_increments = 4;
    config.memory_latency = latency;
    config.record_log = true;
    return config;
}

LockRun
runLock(const sync::LockExperimentConfig &config)
{
    LockRun run;
    run.result = sync::runLockExperiment(config, &run.system);
    return run;
}

void
expectSameLockRun(const LockRun &expected, const LockRun &actual)
{
    EXPECT_TRUE(expected.result.completed);
    EXPECT_EQ(actual.result.cycles, expected.result.cycles);
    EXPECT_EQ(actual.result.counter_value, expected.result.counter_value);
    EXPECT_EQ(actual.result.bus_transactions,
              expected.result.bus_transactions);
    EXPECT_EQ(actual.result.rmw_attempts, expected.result.rmw_attempts);
    EXPECT_EQ(actual.result.rmw_failures, expected.result.rmw_failures);
    EXPECT_EQ(actual.system->counters().report(),
              expected.system->counters().report());
    expectSameLog(expected.system->log().all(), actual.system->log().all());
}

const sync::LockKind kLocks[] = {sync::LockKind::TestAndSet,
                                 sync::LockKind::TestAndTestAndSet};

TEST(SkipEquivalence, LockWorkloadsViaProcessWideSwitch)
{
    // runLockExperiment builds its System internally, so only the
    // engine defaults (what --no-skip sets) reach it.  Spin loops are
    // real work and never skipped; TS spinners stall on the bus RMW,
    // so the whole machine goes quiescent during transfers.
    for (auto lock : kLocks) {
        auto config = lockConfig(lock, ProtocolKind::Rb, 16);
        LockRun skipping = runLock(config);
        LockRun ticking = [&config] {
            EngineKnobs knobs = engineDefaults();
            knobs.skip_quiescent = false;
            DefaultsScope no_skip(knobs);
            return runLock(config);
        }();
        expectSameLockRun(skipping, ticking);
        EXPECT_EQ(ticking.result.skipped_cycles, 0u);
        EXPECT_EQ(ticking.system->skippedCycles(), 0u);
        if (lock == sync::LockKind::TestAndSet) {
            EXPECT_GT(skipping.result.skipped_cycles, 0u);
        }
    }
}

TEST(SnoopFilterEquivalence, LockWorkloadsViaProcessWideSwitch)
{
    for (auto lock : kLocks) {
        auto config = lockConfig(lock, ProtocolKind::Rb, 0);
        LockRun filtered = runLock(config);
        LockRun unfiltered = [&config] {
            EngineKnobs knobs = engineDefaults();
            knobs.snoop_filter = false;
            DefaultsScope no_filter(knobs);
            return runLock(config);
        }();
        expectSameLockRun(filtered, unfiltered);
        EXPECT_LT(filtered.system->snoopVisits(),
                  unfiltered.system->snoopVisits());
    }
}

TEST(TraceDeterminism, LockWorkloadsWithHistograms)
{
    // Lock episodes are tracked on the bus hot path; collecting them
    // must not move the run.
    for (auto lock : kLocks) {
        auto config = lockConfig(lock, ProtocolKind::Rwb, 0);
        LockRun plain = runLock(config);
        config.histograms = true;
        LockRun observed = runLock(config);
        expectSameLockRun(plain, observed);
        EXPECT_FALSE(plain.result.has_metrics);
        EXPECT_TRUE(observed.result.has_metrics);
    }
}

TEST(DirEquivalence, LockProgramsMatchAcrossModes)
{
    // Spin locks through real PE programs: the two-phase RMW NACK and
    // retry discipline must serialize identically on the snooping bus
    // and the one-home directory.
    const Addr lock = sharedBase();
    const Addr counter = sharedBase() + 1;
    const int acquisitions = 4;
    const int increments = 3;
    for (auto kind : kLocks) {
        Fingerprint seen[2];
        for (int mode = 0; mode < 2; mode++) {
            hier::HierConfig config = hierConfig(4, 2, 64, ProtocolKind::Rb,
                                                 mode == 0 ? 0 : 1);
            config.record_log = true;
            hier::HierSystem system(config);
            for (PeId pe = 0; pe < system.numPes(); pe++) {
                sync::LockProgramParams params;
                params.kind = kind;
                params.lock_addr = lock;
                params.counter_addr = counter;
                params.acquisitions = acquisitions;
                params.cs_increments = increments;
                system.setProgram(pe, sync::makeLockProgram(params));
            }
            seen[mode].cycles = system.run(2'000'000);
            seen[mode].status = system.runStatus();
            seen[mode].counters = system.counters().report();
            seen[mode].log = system.log().all();
            // Mutual exclusion held: every increment landed.
            EXPECT_EQ(system.coherentValue(counter),
                      static_cast<Word>(system.numPes() * acquisitions *
                                        increments));
            EXPECT_TRUE(checkSerialConsistency(system.log()).consistent);
        }
        expectSame(seen[0], seen[1], kDirectory);
    }
}

TEST(DirEquivalence, ManyHomesStaySeriallyConsistent)
{
    // More homes than divide the address range evenly; grants happen
    // concurrently across homes, which must not break coherence.
    const std::size_t addr_range = 48;
    auto trace = makeUniformRandomTrace(16, 2500, addr_range, 0.35, 0.05,
                                        43);
    hier::HierConfig config = hierConfig(8, 2, 64, ProtocolKind::Rb, 5);
    config.record_log = true;
    hier::HierSystem system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_TRUE(system.allDone()) << "directory machine deadlocked";

    auto report = checkSerialConsistency(system.log());
    EXPECT_TRUE(report.consistent) << report.first_error;

    std::vector<Addr> addrs;
    for (Addr a = 0; a < addr_range; a++)
        addrs.push_back(a);
    auto invariants = hier::checkHierarchyInvariants(system, addrs);
    EXPECT_TRUE(invariants.ok) << invariants.first_error;

    // Directory state exists only for blocks some cluster touched.
    ASSERT_NE(system.directoryFabric(), nullptr);
    EXPECT_LE(system.directoryFabric()->directoryBlocks(), addr_range);
    EXPECT_GT(system.directoryFabric()->messageVisits(), 0u);
}

} // namespace
} // namespace ddc
