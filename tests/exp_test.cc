/**
 * @file
 * Tests for the parallel experiment engine (src/exp): grid expansion,
 * worker-count invariance (jobs=1 vs jobs=8 must produce identical
 * results and identical JSON bytes), JSON round-tripping, and timeout
 * status propagation.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <sstream>
#include <string>

#include "exp/experiment.hh"
#include "exp/json.hh"
#include "exp/runner.hh"
#include "exp/session.hh"
#include "hier/hier_system.hh"
#include "sync/workload.hh"
#include "trace/synthetic.hh"

namespace {

using namespace ddc;

TEST(ParamGridTest, EmptyGridHasOnePoint)
{
    exp::ParamGrid grid;
    EXPECT_EQ(grid.size(), 1u);
    EXPECT_EQ(grid.numAxes(), 0u);
    EXPECT_TRUE(grid.paramsAt(0).empty());
}

TEST(ParamGridTest, ExpandsRowMajorLastAxisFastest)
{
    exp::ParamGrid grid;
    grid.axis("a", {"a0", "a1"});
    grid.axis("b", {"b0", "b1", "b2"});
    ASSERT_EQ(grid.size(), 6u);

    // Flat index 0 -> (a0, b0); 1 -> (a0, b1); 3 -> (a1, b0).
    auto p0 = grid.paramsAt(0);
    EXPECT_EQ(p0[0].second, "a0");
    EXPECT_EQ(p0[1].second, "b0");
    auto p1 = grid.paramsAt(1);
    EXPECT_EQ(p1[0].second, "a0");
    EXPECT_EQ(p1[1].second, "b1");
    auto p3 = grid.paramsAt(3);
    EXPECT_EQ(p3[0].second, "a1");
    EXPECT_EQ(p3[1].second, "b0");

    auto indices = grid.indicesAt(5);
    EXPECT_EQ(indices[0], 1u);
    EXPECT_EQ(indices[1], 2u);

    // Axis names ride along with every point.
    EXPECT_EQ(p0[0].first, "a");
    EXPECT_EQ(p0[1].first, "b");
}

/** A small real sweep: two workloads x two protocols. */
exp::Experiment
makeSweep()
{
    exp::ParamGrid grid;
    grid.axis("workload", {"array_init", "migratory"});
    grid.axis("protocol", {"RB", "RWB"});

    exp::Experiment spec("exp_test_sweep", "engine test sweep");
    spec.addGrid(grid, [grid](std::size_t flat) {
        auto indices = grid.indicesAt(flat);
        exp::TraceRun run;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = indices[1] == 0 ? ProtocolKind::Rb
                                              : ProtocolKind::Rwb;
        run.trace = indices[0] == 0 ? makeArrayInitTrace(4, 256)
                                    : makeMigratoryTrace(4, 8, 16);
        return run;
    });
    return spec;
}

TEST(RunnerTest, ResultsOrderedByGridIndex)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    options.jobs = 1;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 4u);
    for (std::size_t i = 0; i < results.size(); i++) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].params, spec.points()[i].params);
        EXPECT_EQ(results[i].status, RunStatus::Finished);
        EXPECT_GT(results[i].cycles, 0u);
        EXPECT_TRUE(results[i].hasMetric("bus_per_ref"));
    }
}

TEST(RunnerTest, ParallelMatchesSerialExactly)
{
    auto spec = makeSweep();
    exp::RunnerOptions serial;
    serial.jobs = 1;
    exp::RunnerOptions parallel;
    parallel.jobs = 8;
    auto a = exp::runExperiment(spec, serial);
    auto b = exp::runExperiment(spec, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); i++) {
        // Byte-level equality of the serialized results covers every
        // field the engine emits.
        EXPECT_EQ(a[i].toJson().dump(), b[i].toJson().dump()) << i;
    }
}

TEST(RunnerTest, WorkersShareOneTraceSafely)
{
    // Every point copies the same Trace, so all workers' machines
    // replay one set of shared streams (only the reference counts are
    // written across threads; the TSan job runs this test).
    const Trace shared = makeUniformRandomTrace(4, 400, 32, 0.3, 0.05, 3);
    exp::ParamGrid grid;
    grid.axis("protocol", {"RB", "RWB", "RB", "RWB", "RB", "RWB"});
    exp::Experiment spec("shared_trace", "one trace, many workers");
    spec.addGrid(grid, [grid, shared](std::size_t flat) {
        exp::TraceRun run;
        run.config.num_pes = 4;
        run.config.cache_lines = 64;
        run.config.protocol = grid.indicesAt(flat)[0] % 2 == 0
                                  ? ProtocolKind::Rb : ProtocolKind::Rwb;
        run.trace = shared;
        return run;
    });
    exp::RunnerOptions serial;
    serial.jobs = 1;
    exp::RunnerOptions parallel;
    parallel.jobs = 6;
    auto a = exp::runExperiment(spec, serial);
    auto b = exp::runExperiment(spec, parallel);
    ASSERT_EQ(a.size(), 6u);
    ASSERT_EQ(b.size(), 6u);
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].status, RunStatus::Finished);
        EXPECT_EQ(a[i].toJson().dump(), b[i].toJson().dump()) << i;
    }
}

TEST(RunnerTest, SessionJsonIdenticalAcrossJobCounts)
{
    exp::SessionOptions serial;
    serial.jobs = 1;
    exp::Session session_a(serial);
    session_a.run(makeSweep());

    exp::SessionOptions parallel;
    parallel.jobs = 8;
    exp::Session session_b(parallel);
    session_b.run(makeSweep());

    EXPECT_EQ(session_a.toJson().dump(), session_b.toJson().dump());
}

TEST(RunnerTest, CustomPointsRunAndKeepOrder)
{
    exp::Experiment spec("custom", "custom points");
    for (int i = 0; i < 5; i++) {
        spec.addCustom({{"i", std::to_string(i)}}, [i]() {
            exp::RunResult result;
            result.cycles = static_cast<Cycle>(100 + i);
            result.setMetric("i", static_cast<double>(i));
            return result;
        });
    }
    exp::RunnerOptions options;
    options.jobs = 4;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 5u);
    for (std::size_t i = 0; i < 5; i++) {
        EXPECT_EQ(results[i].cycles, 100 + i);
        EXPECT_EQ(results[i].metric("i"), static_cast<double>(i));
    }
}

TEST(RunnerTest, TimeoutStatusPropagates)
{
    exp::Experiment spec("timeout", "tiny cycle budget");
    spec.addRun({{"point", "strangled"}}, []() {
        exp::TraceRun run;
        run.config.num_pes = 4;
        run.config.cache_lines = 256;
        run.config.protocol = ProtocolKind::Rb;
        run.trace = makeMigratoryTrace(4, 8, 64);
        run.max_cycles = 10; // far too few to finish
        return run;
    });
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, RunStatus::TimedOut);

    // And it is visible in the serialized form.
    auto json = results[0].toJson();
    EXPECT_EQ(json.find("status")->asString(), "timed_out");
}

TEST(RunnerTest, HierarchicalRunMatchesTheMachineRunByHand)
{
    // 4 clusters x 2 PEs on the snooping global bus, and on a
    // two-home directory.
    auto trace = makeUniformRandomTrace(8, 600, 64, 0.3, 0.05, 5);
    for (int homes : {0, 2}) {
        SCOPED_TRACE(homes == 0 ? "snoop" : "directory");
        hier::HierConfig config;
        config.num_clusters = 4;
        config.pes_per_cluster = 2;
        config.cache_lines = 64;
        if (homes > 0) {
            config.global = hier::GlobalKind::Directory;
            config.home_nodes = homes;
        }
        hier::HierSystem machine(config);
        machine.loadTrace(trace);
        Cycle cycles = machine.run();

        exp::TraceRun run;
        run.hier = config;
        run.trace = trace;
        exp::RunResult result = exp::executeTraceRun(run);
        EXPECT_EQ(result.cycles, cycles);
        EXPECT_EQ(result.status, machine.runStatus());
        EXPECT_EQ(result.counters.report(), machine.counters().report());
        EXPECT_EQ(result.bus_transactions, machine.globalBusTransactions());
        EXPECT_GT(result.bus_transactions, 0u);
        EXPECT_EQ(result.metric("cluster_bus_ops"),
                  static_cast<double>(machine.clusterBusTransactions()));
        EXPECT_EQ(result.total_refs, trace.totalRefs());
        EXPECT_EQ(result.hasMetric("hot_home_skew"), homes > 0);

        const char *engine_keys[] = {"directory_blocks", "global_visits"};
        EXPECT_EQ(result.toJson(false).find("engine"), nullptr);
        std::string plain = result.toJson(false).dump();
        for (const char *key : engine_keys)
            EXPECT_EQ(plain.find(key), std::string::npos) << key;
        if (homes > 0) {
            auto timed = result.toJson(true);
            const exp::Json *engine = timed.find("engine");
            ASSERT_NE(engine, nullptr);
            for (const char *key : engine_keys)
                EXPECT_GT(engine->find(key)->asInt(), 0) << key;
        }
    }
}

TEST(JsonTest, RoundTripsValues)
{
    exp::Json object = exp::Json::object();
    object["int"] = exp::Json(static_cast<std::int64_t>(-42));
    object["double"] = exp::Json(0.354375);
    object["string"] = exp::Json(std::string("hi \"there\"\n"));
    object["bool"] = exp::Json(true);
    object["null"] = exp::Json();
    exp::Json array = exp::Json::array();
    array.push(exp::Json(static_cast<std::int64_t>(1)));
    array.push(exp::Json(2.5));
    object["array"] = array;

    auto text = object.dump();
    exp::Json parsed;
    ASSERT_TRUE(exp::Json::parse(text, parsed));
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(parsed.find("int")->asInt(), -42);
    EXPECT_EQ(parsed.find("double")->asDouble(), 0.354375);
    EXPECT_EQ(parsed.find("string")->asString(), "hi \"there\"\n");
    EXPECT_TRUE(parsed.find("bool")->asBool());
}

TEST(JsonTest, RunResultRoundTrips)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    for (const auto &result : results) {
        auto text = result.toJson().dump();
        exp::Json parsed;
        ASSERT_TRUE(exp::Json::parse(text, parsed));
        auto rebuilt = exp::RunResult::fromJson(parsed);
        EXPECT_EQ(rebuilt.toJson().dump(), text);
        EXPECT_EQ(rebuilt.index, result.index);
        EXPECT_EQ(rebuilt.params, result.params);
        EXPECT_EQ(rebuilt.cycles, result.cycles);
        EXPECT_EQ(rebuilt.counters.get("bus.busy_cycles"),
                  result.counters.get("bus.busy_cycles"));
    }
}

TEST(JsonTest, TimingFieldsAreOptIn)
{
    exp::RunResult result;
    result.cycles = 5000;
    result.engine.wall_time_ms = 2.5;
    result.engine.sim_time_ms = 2.0;
    result.engine.sim_cycles_per_sec = 2e6;

    // Default serialization stays byte-stable across hosts: no
    // engine object, and no timing key at any level.
    auto plain = result.toJson();
    EXPECT_EQ(plain.find("engine"), nullptr);
    EXPECT_EQ(plain.dump().find("wall_time_ms"), std::string::npos);
    EXPECT_EQ(plain.dump().find("sim_time_ms"), std::string::npos);
    EXPECT_EQ(plain.dump().find("sim_cycles_per_sec"), std::string::npos);

    auto timed = result.toJson(true);
    const exp::Json *engine = timed.find("engine");
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->find("wall_time_ms")->asDouble(), 2.5);
    EXPECT_EQ(engine->find("sim_time_ms")->asDouble(), 2.0);
    EXPECT_EQ(engine->find("sim_cycles_per_sec")->asDouble(), 2e6);

    // Round trip through parse preserves the timing fields.
    exp::Json parsed;
    ASSERT_TRUE(exp::Json::parse(timed.dump(), parsed));
    auto rebuilt = exp::RunResult::fromJson(parsed);
    EXPECT_EQ(rebuilt.engine.wall_time_ms, 2.5);
    EXPECT_EQ(rebuilt.engine.sim_time_ms, 2.0);
    EXPECT_EQ(rebuilt.engine.sim_cycles_per_sec, 2e6);
    EXPECT_EQ(rebuilt.toJson(true).dump(), timed.dump());
}

TEST(JsonTest, EngineSectionHoldsEveryHostAndKnobValue)
{
    exp::RunResult result;
    result.cycles = 400;
    result.total_refs = 90;
    result.bus_transactions = 30;
    result.setMetric("miss_ratio", 0.25);
    result.counters.add("bus.busy_cycles", 200);
    exp::EngineReport &engine = result.engine;
    engine.wall_time_ms = 3.5;
    engine.sim_time_ms = 3.0;
    engine.sim_cycles_per_sec = 1.5e5;
    engine.skipped_cycles = 100;
    engine.snoop_visits = 77;
    engine.global_visits = 33;
    engine.snoop_filter_fallbacks = 2;
    engine.directory_blocks = 12;
    engine.directory_max_load_factor = 0.5;
    engine.route_phase_ms = 0.25;
    engine.serve_phase_ms = 0.75;

    const char *engine_keys[] = {
        "wall_time_ms",       "sim_time_ms",
        "sim_cycles_per_sec", "skipped_cycles",
        "skip_fraction",      "snoop_visits",
        "global_visits",      "snoop_filter_fallbacks",
        "directory_blocks",
        "directory_max_load_factor", "route_phase_ms",
        "serve_phase_ms"};

    // The deterministic section names no host or knob value.
    auto plain = result.toJson(false);
    std::string plain_text = plain.dump();
    EXPECT_EQ(plain.find("engine"), nullptr);
    for (const char *key : engine_keys)
        EXPECT_EQ(plain_text.find(key), std::string::npos) << key;

    // --timing adds exactly one member, "engine", holding them all,
    // and leaves every other member as it was.
    auto timed = result.toJson(true);
    ASSERT_EQ(timed.size(), plain.size() + 1);
    exp::Json rest = exp::Json::object();
    for (const auto &[key, value] : timed.items()) {
        if (key != "engine")
            rest[key] = value;
    }
    EXPECT_EQ(rest.dump(), plain_text);
    const exp::Json *section = timed.find("engine");
    ASSERT_NE(section, nullptr);
    EXPECT_EQ(section->size(), std::size(engine_keys));
    for (const char *key : engine_keys)
        EXPECT_NE(section->find(key), nullptr) << key;
    EXPECT_EQ(section->find("skip_fraction")->asDouble(), 0.25);
    EXPECT_EQ(section->find("snoop_filter_fallbacks")->asInt(), 2);

    // fromJson reads the object back, field for field.
    exp::Json parsed;
    ASSERT_TRUE(exp::Json::parse(timed.dump(), parsed));
    auto rebuilt = exp::RunResult::fromJson(parsed);
    EXPECT_EQ(rebuilt.engine.wall_time_ms, 3.5);
    EXPECT_EQ(rebuilt.engine.sim_time_ms, 3.0);
    EXPECT_EQ(rebuilt.engine.sim_cycles_per_sec, 1.5e5);
    EXPECT_EQ(rebuilt.engine.skipped_cycles, 100u);
    EXPECT_EQ(rebuilt.engine.snoop_visits, 77u);
    EXPECT_EQ(rebuilt.engine.global_visits, 33u);
    EXPECT_EQ(rebuilt.engine.snoop_filter_fallbacks, 2u);
    EXPECT_EQ(rebuilt.engine.directory_blocks, 12u);
    EXPECT_EQ(rebuilt.engine.directory_max_load_factor, 0.5);
    EXPECT_EQ(rebuilt.engine.route_phase_ms, 0.25);
    EXPECT_EQ(rebuilt.engine.serve_phase_ms, 0.75);
    EXPECT_EQ(rebuilt.toJson(true).dump(), timed.dump());
    EXPECT_EQ(rebuilt.toJson(false).dump(), plain_text);
}

TEST(RunnerTest, MeasuresWallClockPerPoint)
{
    auto spec = makeSweep();
    exp::RunnerOptions options;
    auto results = exp::runExperiment(spec, options);
    for (const auto &result : results) {
        const exp::EngineReport &engine = result.engine;
        EXPECT_GT(engine.wall_time_ms, 0.0);
        EXPECT_GT(engine.sim_time_ms, 0.0);
        // The sim loop is a slice of the whole point.
        EXPECT_LE(engine.sim_time_ms, engine.wall_time_ms);
        EXPECT_GT(engine.sim_cycles_per_sec, 0.0);
        // rate * sim seconds == cycles (up to rounding).
        EXPECT_NEAR(engine.sim_cycles_per_sec *
                        (engine.sim_time_ms / 1000.0),
                    static_cast<double>(result.cycles),
                    1.0);
    }
}

TEST(SessionTest, ParseArgsStripsEngineFlags)
{
    const char *raw[] = {"prog", "--jobs", "8", "--foo", "--json",
                         "out.json", "bar", nullptr};
    int argc = 7;
    char *argv[8];
    for (int i = 0; i < argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    auto options = exp::parseSessionArgs(argc, argv);
    EXPECT_EQ(options.jobs, 8);
    EXPECT_EQ(options.json_path, "out.json");
    EXPECT_FALSE(options.timing);
    ASSERT_EQ(argc, 3);
    EXPECT_STREQ(argv[0], "prog");
    EXPECT_STREQ(argv[1], "--foo");
    EXPECT_STREQ(argv[2], "bar");
    EXPECT_EQ(argv[3], nullptr);
}

TEST(SessionTest, ParseArgsAcceptsTimingFlag)
{
    const char *raw[] = {"prog", "--timing", "--jobs", "2", nullptr};
    int argc = 4;
    char *argv[5];
    for (int i = 0; i < argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    argv[argc] = nullptr;

    auto options = exp::parseSessionArgs(argc, argv);
    EXPECT_TRUE(options.timing);
    EXPECT_EQ(options.jobs, 2);
    ASSERT_EQ(argc, 1);
    EXPECT_EQ(argv[1], nullptr);
}

TEST(SessionTest, EngineFlagsSetTheDefaultsEveryMachineStartsFrom)
{
    // Restores the defaults however the case ends, so no later case
    // inherits the flags.
    struct Restore
    {
        EngineKnobs saved = engineDefaults();
        ~Restore() { setEngineDefaults(saved); }
    } restore;
    const char *raw[] = {"prog", "--no-skip", "--no-snoop-filter",
                         "--histograms", "--sample-every", "32", nullptr};
    int argc = 6;
    char *argv[7];
    for (int i = 0; i <= argc; i++)
        argv[i] = const_cast<char *>(raw[i]);
    exp::parseSessionArgs(argc, argv);
    EXPECT_EQ(argc, 1);

    EngineKnobs flagged;
    flagged.skip_quiescent = false;
    flagged.snoop_filter = false;
    flagged.histograms = true;
    flagged.sample_every = 32;
    EXPECT_EQ(SystemConfig{}.engine, flagged);
    EXPECT_EQ(hier::HierConfig{}.engine, flagged);
    // So does a machine a library call builds for itself.
    sync::LockExperimentConfig lock;
    lock.lock = sync::LockKind::TestAndSet;
    lock.memory_latency = 16;
    std::unique_ptr<System> system;
    auto locked = sync::runLockExperiment(lock, &system);
    ASSERT_NE(system, nullptr);
    EXPECT_EQ(system->configuration().engine, flagged);
    EXPECT_EQ(locked.skipped_cycles, 0u);
    EXPECT_TRUE(locked.has_metrics);

    // A field set in code wins.
    exp::TraceRun run;
    run.config.memory_latency = 16;
    run.config.engine = EngineKnobs{};
    run.trace = makeUniformRandomTrace(4, 300, 64, 0.3, 0.05, 3);
    exp::RunResult coded = exp::executeTraceRun(run);
    EXPECT_GT(coded.engine.skipped_cycles, 0u);
    EXPECT_TRUE(coded.histograms.isNull());
    EXPECT_TRUE(coded.samples.isNull());

    setEngineDefaults(restore.saved);
    EXPECT_EQ(SystemConfig{}.engine, EngineKnobs{});
    EXPECT_EQ(hier::HierConfig{}.engine, EngineKnobs{});
}

TEST(SessionTest, TimingOptionEmitsWallClockFields)
{
    exp::SessionOptions options;
    options.timing = true;
    exp::Session session(options);
    session.run(makeSweep());
    auto json = session.toJson();
    EXPECT_EQ(json.find("schema")->asInt(), 7);
    const auto &run =
        json.find("experiments")->at(0).find("runs")->at(0);
    EXPECT_EQ(run.find("wall_time_ms"), nullptr);
    const exp::Json *engine = run.find("engine");
    ASSERT_NE(engine, nullptr);
    ASSERT_NE(engine->find("wall_time_ms"), nullptr);
    EXPECT_GT(engine->find("wall_time_ms")->asDouble(), 0.0);
    ASSERT_NE(engine->find("sim_cycles_per_sec"), nullptr);
}

TEST(SessionTest, ParseArgsRejectsTrailingGarbage)
{
    // A count is parsed whole: "3x" is an error, not 3.
    for (const char *flag : {"--jobs", "--sample-every"}) {
        const char *raw[] = {"prog", flag, "3x", nullptr};
        int argc = 3;
        char *argv[4];
        for (int i = 0; i < argc; i++)
            argv[i] = const_cast<char *>(raw[i]);
        argv[argc] = nullptr;
        EXPECT_EXIT(exp::parseSessionArgs(argc, argv),
                    ::testing::ExitedWithCode(1),
                    std::string(flag) + " needs a positive .*, got 3x");
    }
}

TEST(SessionTest, CollectsMultipleExperiments)
{
    exp::SessionOptions options;
    options.jobs = 2;
    exp::Session session(options);
    const auto &first = session.run(makeSweep());
    exp::Experiment single("single", "one custom point");
    single.addCustom({}, []() {
        exp::RunResult result;
        result.cycles = 7;
        return result;
    });
    const auto &second = session.run(single);

    // References from earlier runs stay valid after later runs.
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(second.size(), 1u);
    EXPECT_EQ(second[0].cycles, 7u);

    auto json = session.toJson();
    const auto *experiments = json.find("experiments");
    ASSERT_NE(experiments, nullptr);
    EXPECT_EQ(experiments->size(), 2u);
}

} // namespace
