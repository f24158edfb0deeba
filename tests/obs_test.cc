/**
 * @file
 * Observability subsystem tests: category parsing, the Chrome
 * trace-event writer (well-formedness, track metadata, sorted
 * timestamps, balanced B/E pairs), the counter sampler, the lock
 * episode tracker, the first-System-wins trace claim, and the
 * end-to-end --histograms / --sample-every paths through a System
 * and through the hierarchical machine's directory fabric.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/rb.hh"
#include "core/simulator.hh"
#include "exp/json.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
#include "obs/recorder.hh"
#include "obs/sampler.hh"
#include "obs/trace.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/memory.hh"
#include "sim/system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

using obs::Category;
using obs::TraceEvent;
using obs::TraceSink;

TEST(Categories, ParseListAndAll)
{
    EXPECT_EQ(obs::parseCategories("all"), obs::kAllCategories);
    EXPECT_EQ(obs::parseCategories("bus"),
              static_cast<std::uint32_t>(Category::Bus));
    EXPECT_EQ(obs::parseCategories("bus,state,lock"),
              static_cast<std::uint32_t>(Category::Bus) |
                  static_cast<std::uint32_t>(Category::State) |
                  static_cast<std::uint32_t>(Category::Lock));
    EXPECT_EQ(obs::parseCategories("bus,state,lock,miss,quiesce,dir"),
              obs::kAllCategories);
}

TEST(Categories, ParseRejectsUnknownToken)
{
    std::string error;
    EXPECT_EQ(obs::parseCategories("bus,bogus,lock", &error), 0u);
    EXPECT_EQ(error, "bogus");
    EXPECT_EQ(obs::parseCategories("", &error), 0u);
}

TEST(Categories, NamesRoundTrip)
{
    auto mask = obs::parseCategories("state,miss");
    EXPECT_EQ(obs::parseCategories(obs::categoryNames(mask)), mask);
    EXPECT_EQ(obs::categoryNames(obs::kAllCategories),
              "bus,state,lock,miss,quiesce,dir");
}

TEST(TraceSinkTest, CategoryFilterIsBitmask)
{
    TraceSink sink(obs::parseCategories("bus,lock"));
    EXPECT_TRUE(sink.enabled(Category::Bus));
    EXPECT_TRUE(sink.enabled(Category::Lock));
    EXPECT_FALSE(sink.enabled(Category::State));
    EXPECT_FALSE(sink.enabled(Category::Quiesce));
}

/** Write the sink's document and parse it back. */
exp::Json
writtenDocument(const TraceSink &sink)
{
    std::ostringstream os;
    sink.write(os);
    exp::Json document;
    EXPECT_TRUE(exp::Json::parse(os.str(), document)) << os.str();
    return document;
}

TEST(TraceSinkTest, WritesWellFormedChromeTrace)
{
    TraceSink sink(obs::kAllCategories);

    TraceEvent begin;
    begin.ts = 10;
    begin.name = "read_miss";
    begin.phase = 'B';
    begin.tid = 2;
    begin.addr = 0x40;
    begin.has_addr = true;
    sink.push(begin);

    TraceEvent complete;
    complete.ts = 11;
    complete.dur = 3;
    complete.name = "BusRead";
    complete.phase = 'X';
    complete.track = obs::kTrackBuses;
    complete.value = 2;
    complete.value_name = "issuer";
    sink.push(complete);

    TraceEvent end = begin;
    end.ts = 14;
    end.phase = 'E';
    sink.push(end);

    auto document = writtenDocument(sink);
    ASSERT_FALSE(document.isNull());
    EXPECT_EQ(document.find("displayTimeUnit")->asString(), "ms");

    const exp::Json *events = document.find("traceEvents");
    ASSERT_NE(events, nullptr);

    // Metadata names both referenced tracks; real events carry pid,
    // tid, and their args.
    int metadata = 0, spans = 0, completes = 0;
    for (std::size_t i = 0; i < events->size(); i++) {
        const exp::Json &event = events->at(i);
        auto phase = event.find("ph")->asString();
        if (phase == "M") {
            metadata++;
            continue;
        }
        if (phase == "B" || phase == "E")
            spans++;
        if (phase == "X") {
            completes++;
            EXPECT_EQ(event.find("dur")->asInt(), 3);
            EXPECT_EQ(event.find("args")->find("issuer")->asInt(), 2);
        }
    }
    EXPECT_GE(metadata, 4); // 2 process_name + 2 thread_name
    EXPECT_EQ(spans, 2);
    EXPECT_EQ(completes, 1);
}

TEST(TraceSinkTest, SortsByTimestampAndBalancesSpans)
{
    TraceSink sink(obs::kAllCategories);
    // Out-of-order pushes plus a span left open at the end.
    for (Cycle ts : {Cycle{30}, Cycle{10}, Cycle{20}}) {
        TraceEvent event;
        event.ts = ts;
        event.name = "instant";
        event.phase = 'i';
        sink.push(event);
    }
    TraceEvent open;
    open.ts = 15;
    open.name = "spin";
    open.phase = 'B';
    open.track = obs::kTrackLocks;
    open.tid = 1;
    sink.push(open);

    auto document = writtenDocument(sink);
    const exp::Json *events = document.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::int64_t last_ts = -1;
    std::map<std::pair<std::int64_t, std::int64_t>, int> depth;
    for (std::size_t i = 0; i < events->size(); i++) {
        const exp::Json &event = events->at(i);
        auto phase = event.find("ph")->asString();
        if (phase == "M")
            continue;
        std::int64_t ts = event.find("ts")->asInt();
        EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
        last_ts = ts;
        auto key = std::make_pair(event.find("pid")->asInt(),
                                  event.find("tid")->asInt());
        if (phase == "B")
            depth[key]++;
        if (phase == "E") {
            depth[key]--;
            EXPECT_GE(depth[key], 0) << "E without matching B";
        }
    }
    for (const auto &[key, open_spans] : depth)
        EXPECT_EQ(open_spans, 0) << "unbalanced span on a track";
}

TEST(TraceSinkTest, WriteFileIsIdempotentAndReportsFailure)
{
    std::string path = "obs_test_sink.json";
    {
        TraceSink sink(obs::kAllCategories, path);
        TraceEvent event;
        event.name = "instant";
        sink.push(event);
        EXPECT_TRUE(sink.writeFile());
        EXPECT_FALSE(sink.writeFile()) << "second write must no-op";
    }
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    exp::Json document;
    EXPECT_TRUE(exp::Json::parse(buffer.str(), document));
    std::remove(path.c_str());

    TraceSink pathless(obs::kAllCategories);
    EXPECT_FALSE(pathless.writeFile());
}

TEST(CounterSamplerTest, SamplesOnGridAndRealignsAfterSkip)
{
    obs::CounterSampler sampler(100);
    std::uint64_t counter = 0;
    sampler.addColumn("counter", [&](Cycle) { return counter; });

    EXPECT_TRUE(sampler.due(0));
    sampler.sample(0);
    EXPECT_FALSE(sampler.due(99));
    counter = 7;
    EXPECT_TRUE(sampler.due(100));
    sampler.sample(100);
    // A quiescent skip jumped past several grid points: one row is
    // recorded and the schedule realigns to the next multiple.
    counter = 50;
    EXPECT_TRUE(sampler.due(470));
    sampler.sample(470);
    EXPECT_FALSE(sampler.due(499));
    EXPECT_TRUE(sampler.due(500));

    const auto &series = sampler.series();
    EXPECT_EQ(series.interval, 100u);
    ASSERT_EQ(series.columns.size(), 1u);
    EXPECT_EQ(series.columns[0], "counter");
    ASSERT_EQ(series.rows.size(), 3u);
    EXPECT_EQ(series.rows[0].cycle, 0u);
    EXPECT_EQ(series.rows[1].values[0], 7u);
    EXPECT_EQ(series.rows[2].cycle, 470u);
    EXPECT_EQ(series.rows[2].values[0], 50u);
}

TEST(RecorderTest, LockEpisodesFeedHistograms)
{
    // The replay runs the episode state machine over the raw
    // attempt/release events buses and caches log.
    obs::Recorder recorder(nullptr, true, 0);
    ASSERT_TRUE(recorder.wantsLockEvents());
    auto *log = recorder.lockLog();
    ASSERT_NE(log, nullptr);

    // PE 0 wins immediately: acquire latency 0, no handoff.
    log->attempt(0, 0x100, 10, true);
    // PE 1 spins from cycle 12 and wins at 30: latency 18.
    log->attempt(1, 0x100, 12, false);
    log->attempt(1, 0x100, 20, false);
    log->release(0, 0x100, 25);
    log->attempt(1, 0x100, 30, true);

    auto *metrics = recorder.metrics();
    ASSERT_NE(metrics, nullptr);
    const auto &acquire = metrics->lock_acquire;
    EXPECT_EQ(acquire.count(), 2u);
    EXPECT_EQ(acquire.min(), 0u);
    EXPECT_EQ(acquire.max(), 18u);

    // Handoff: release at 25 -> acquire at 30.
    const auto &handoff = metrics->lock_handoff;
    EXPECT_EQ(handoff.count(), 1u);
    EXPECT_EQ(handoff.max(), 5u);

    // Writes to an address that never carried an RMW are not lock
    // releases; metrics() recomputes the replayed view idempotently.
    log->release(0, 0x999, 40);
    metrics = recorder.metrics();
    EXPECT_EQ(metrics->lock_handoff.count(), 1u);
    EXPECT_EQ(metrics->lock_acquire.count(), 2u);
}

TEST(RecorderTest, MakeRecorderIsNullWhenNothingEnabled)
{
    // Histograms and sampling come only from the two arguments (a
    // machine's EngineKnobs); nothing process-wide stands in for them.
    obs::setTraceOutput("");
    EXPECT_EQ(obs::makeRecorder(false, 0), nullptr);
    EXPECT_NE(obs::makeRecorder(true, 0), nullptr);
    EXPECT_NE(obs::makeRecorder(false, 100), nullptr);
}

TEST(RecorderTest, FirstRecorderClaimsTraceOutput)
{
    obs::setTraceOutput("obs_test_claim.json",
                        obs::parseCategories("bus"));
    auto first = obs::makeRecorder(false, 0);
    auto second = obs::makeRecorder(false, 0);
    ASSERT_NE(first, nullptr);
    ASSERT_NE(first->trace(Category::Bus), nullptr);
    EXPECT_EQ(first->trace(Category::State), nullptr)
        << "category filter must apply";
    // The claim is first-System-wins: a second recorder in the same
    // process (a parallel worker) must not open the same file.
    EXPECT_TRUE(second == nullptr ||
                second->trace(Category::Bus) == nullptr);
    obs::setTraceOutput(""); // do not leave the file behind
    first->sink()->writeFile();
    std::remove("obs_test_claim.json");
}

TEST(ObsSystem, HistogramsCollectEndToEnd)
{
    auto trace = makeUniformRandomTrace(4, 1500, 64, 0.3, 0.05, 5);
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 64;
    config.protocol = ProtocolKind::Rb;
    config.engine.histograms = true;

    System system(config);
    system.loadTrace(trace);
    system.run();

    auto *observability = system.observability();
    ASSERT_NE(observability, nullptr);
    auto *metrics = observability->metrics();
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->miss_service.count(), 0u);
    // Every bus-serviced miss sampled a wait; misses satisfied by a
    // broadcast fill finish without one, so bus_wait trails.
    EXPECT_GT(metrics->bus_wait.count(), 0u);
    EXPECT_LE(metrics->bus_wait.count(),
              metrics->miss_service.count());
    EXPECT_GT(metrics->miss_service.max(), 0u);
    EXPECT_GT(metrics->write_gap.count(), 0u);
}

TEST(ObsSystem, WriteGapFillsWhenHistogramsAttachLate)
{
    // The per-line last-write cycles exist only once histograms are
    // attached; a cache that ran without them must start tracking
    // from the attach on.
    stats::CounterSet stats;
    Clock clock;
    RbProtocol protocol;
    Memory memory(stats);
    Bus bus(memory, ArbiterKind::RoundRobin, clock, stats);
    Cache cache(0, 8, protocol, clock, stats);
    cache.connectBus(bus);
    auto write = [&](Word value) {
        if (!cache.cpuAccess({CpuOp::Write, 3, value}).complete) {
            while (!cache.hasCompletion()) {
                bus.tick();
                clock.now++;
            }
            cache.takeCompletion();
        }
    };

    write(1); // before any recorder: nothing to sample into
    auto recorder = obs::makeRecorder(true, 0);
    ASSERT_NE(recorder, nullptr);
    cache.setObserver(recorder.get());
    clock.now = 100;
    write(2); // first tracked write: no gap yet
    clock.now = 200;
    write(3);

    const auto &gaps = recorder->metrics()->write_gap;
    EXPECT_EQ(gaps.count(), 1u);
    EXPECT_EQ(gaps.max(), 100u);
}

TEST(ObsSystem, DirectoryHistogramsCollect)
{
    // The directory instrumentation: home-service latencies, acks per
    // invalidate, and the sampler-fed occupancy histogram all collect
    // on a histogrammed, sampled directory run.
    auto trace = makeUniformRandomTrace(16, 800, 64, 0.4, 0.15, 53);
    hier::HierConfig config;
    config.num_clusters = 8;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.global = hier::GlobalKind::Directory;
    config.home_nodes = 4;
    config.engine.histograms = true;
    config.engine.sample_every = 64;
    hier::HierSystem system(config);
    system.loadTrace(trace);
    system.run();
    ASSERT_EQ(system.runStatus(), RunStatus::Finished);

    auto *observability = system.observability();
    ASSERT_NE(observability, nullptr);
    auto *metrics = observability->metrics();
    ASSERT_NE(metrics, nullptr);
    EXPECT_GT(metrics->home_service.count(), 0u);
    EXPECT_GT(metrics->acks_per_inval.count(), 0u);
    EXPECT_GT(metrics->dir_occupancy.count(), 0u);
    // One occupancy observation per sampler row.
    EXPECT_EQ(metrics->dir_occupancy.count(),
              observability->sampler()->series().rows.size());
    // Hot-home skew reads are always on.
    auto *fabric = system.directoryFabric();
    ASSERT_NE(fabric, nullptr);
    EXPECT_GE(fabric->maxHomeMessages(),
              static_cast<std::uint64_t>(fabric->meanHomeMessages()));
}

TEST(ObsSystem, DirectoryOccupancyFollowsTheHistogramsFlag)
{
    // As `perf_directory --histograms --sample-every 64` runs it: the
    // flags, not code, turn histograms and sampling on, and the
    // sampler still feeds dir_occupancy one observation per row.
    const EngineKnobs saved = engineDefaults();
    const char *raw[] = {"perf_directory", "--histograms",
                         "--sample-every", "64", nullptr};
    int argc = 4;
    char *argv[5];
    for (int i = 0; i <= argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    exp::parseSessionArgs(argc, argv);
    hier::HierConfig config;
    setEngineDefaults(saved);
    config.num_clusters = 4;
    config.pes_per_cluster = 2;
    config.cache_lines = 64;
    config.global = hier::GlobalKind::Directory;
    config.home_nodes = 2;
    hier::HierSystem system(config);
    system.loadTrace(makeUniformRandomTrace(8, 600, 64, 0.3, 0.05, 5));
    system.run();
    ASSERT_EQ(system.runStatus(), RunStatus::Finished);

    auto *observability = system.observability();
    ASSERT_NE(observability, nullptr);
    ASSERT_NE(observability->sampler(), nullptr);
    auto *metrics = observability->metrics();
    ASSERT_NE(metrics, nullptr);
    std::size_t rows = observability->sampler()->series().rows.size();
    EXPECT_GT(rows, 0u);
    EXPECT_EQ(metrics->dir_occupancy.count(), rows);
}

TEST(ObsSystem, LockHistogramsThroughWorkload)
{
    sync::LockExperimentConfig config;
    config.num_pes = 4;
    config.lock = sync::LockKind::TestAndTestAndSet;
    config.protocol = ProtocolKind::Rwb;
    config.acquisitions_per_pe = 4;
    config.cs_increments = 2;
    config.histograms = true;

    auto result = sync::runLockExperiment(config);
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.has_metrics);
    // Every acquisition (4 PEs x 4) lands in lock_acquire.
    EXPECT_EQ(result.metrics.lock_acquire.count(), 16u);
    // The lock is contended: someone spun, and hand-offs happened.
    EXPECT_GT(result.metrics.lock_acquire.max(), 0u);
    EXPECT_GT(result.metrics.lock_handoff.count(), 0u);
}

TEST(ObsSystem, SamplerCollectsSeriesEndToEnd)
{
    auto trace = makeUniformRandomTrace(4, 2000, 64, 0.3, 0.05, 7);
    SystemConfig config;
    config.num_pes = 4;
    config.cache_lines = 64;
    config.engine.sample_every = 100;

    System system(config);
    system.loadTrace(trace);
    system.run();

    auto *observability = system.observability();
    ASSERT_NE(observability, nullptr);
    auto *sampler = observability->sampler();
    ASSERT_NE(sampler, nullptr);
    const auto &series = sampler->series();
    EXPECT_EQ(series.interval, 100u);
    EXPECT_GT(series.rows.size(), 2u);

    // The census columns partition the cache: NP + I + R + L + F...
    // sums to lines x PEs in every row.
    std::size_t first_tag = series.columns.size();
    for (std::size_t c = 0; c < series.columns.size(); c++) {
        if (series.columns[c].rfind("tags.", 0) == 0) {
            first_tag = c;
            break;
        }
    }
    ASSERT_LT(first_tag, series.columns.size());
    for (const auto &row : series.rows) {
        std::uint64_t total = 0;
        for (std::size_t c = first_tag; c < row.values.size(); c++)
            total += row.values[c];
        EXPECT_EQ(total, 64u * 4u);
    }

    // Cumulative columns never decrease.
    std::size_t refs_col = 0;
    for (std::size_t c = 0; c < series.columns.size(); c++) {
        if (series.columns[c] == "refs")
            refs_col = c;
    }
    std::uint64_t last = 0;
    for (const auto &row : series.rows) {
        EXPECT_GE(row.values[refs_col], last);
        last = row.values[refs_col];
    }
}

TEST(ObsSystem, TracedSystemEmitsPerPeAndBusTracks)
{
    obs::setTraceOutput("obs_test_system.json");
    {
        auto trace = makeProducerConsumerTrace(4, 16, 10, 2);
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 64;
        config.protocol = ProtocolKind::Rwb;
        System system(config);
        system.loadTrace(trace);
        system.run();
        auto *observability = system.observability();
        ASSERT_NE(observability, nullptr);
        EXPECT_NE(observability->trace(Category::Bus), nullptr);
        EXPECT_GT(observability->trace(Category::Bus)->size(), 0u);
    } // System destruction writes the file.
    obs::setTraceOutput("");

    std::ifstream in("obs_test_system.json");
    ASSERT_TRUE(in.good()) << "trace file must exist after the run";
    std::stringstream buffer;
    buffer << in.rdbuf();
    exp::Json document;
    ASSERT_TRUE(exp::Json::parse(buffer.str(), document));
    std::remove("obs_test_system.json");

    const exp::Json *events = document.find("traceEvents");
    ASSERT_NE(events, nullptr);
    bool saw_pe_track = false, saw_bus_track = false, saw_state = false;
    for (std::size_t i = 0; i < events->size(); i++) {
        const exp::Json &event = events->at(i);
        if (event.find("ph")->asString() == "M")
            continue;
        auto pid = event.find("pid")->asInt();
        saw_pe_track |= pid == obs::kTrackPes;
        saw_bus_track |= pid == obs::kTrackBuses;
        const std::string name = event.find("name")->asString();
        saw_state |= name.find("->") != std::string::npos;
    }
    EXPECT_TRUE(saw_pe_track);
    EXPECT_TRUE(saw_bus_track);
    EXPECT_TRUE(saw_state) << "state-transition instants expected";
}

} // namespace
} // namespace ddc
