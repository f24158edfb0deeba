/**
 * @file
 * End-to-end scenarios asserting the paper's qualitative performance
 * claims: RB's read broadcast, RWB's single-bus-write array init,
 * producer/consumer behaviour, and scheme comparisons on archetypal
 * shared-data patterns.
 */

#include <gtest/gtest.h>

#include "exp/runner.hh"
#include "trace/synthetic.hh"

namespace ddc {
namespace {

exp::RunResult
runOn(ProtocolKind protocol, const Trace &trace, std::size_t lines = 256)
{
    SystemConfig config;
    config.num_pes = std::max(trace.numPes(), 1);
    config.cache_lines = lines;
    config.protocol = protocol;
    auto result = exp::executeTraceRun(
        {.config = config, .trace = trace, .check_consistency = true});
    EXPECT_EQ(result.status, RunStatus::Finished) << toString(protocol);
    EXPECT_TRUE(result.consistent) << toString(protocol);
    return result;
}

/**
 * Section 5: initializing an array much larger than the cache costs
 * two bus writes per element under RB (write-through + write-back of
 * the evicted Local line) but only one under RWB (the element parks in
 * F, which is clean).
 */
TEST(ArrayInit, RwbHalvesBusWrites)
{
    const std::uint64_t elements = 512; // 2x the 256-line cache
    auto trace = makeArrayInitTrace(2, elements);

    auto rb = runOn(ProtocolKind::Rb, trace);
    auto rwb = runOn(ProtocolKind::Rwb, trace);

    std::uint64_t total = 2 * elements;
    std::uint64_t rb_writes = rb.counters.get("bus.write");
    std::uint64_t rwb_writes = rwb.counters.get("bus.write");

    // RB: one write-through per element + one write-back per evicted
    // element; the last cache-full of Local lines is never evicted.
    std::uint64_t never_evicted = 2 * 256;
    EXPECT_EQ(rb_writes, total + (total - never_evicted));
    // RWB: exactly one bus write per element, zero write-backs.
    EXPECT_EQ(rwb_writes, total);
    EXPECT_EQ(rwb.counters.get("cache.writeback"), 0u);
    EXPECT_GT(rb.counters.get("cache.writeback"), 0u);
}

/**
 * The cyclical pattern "written by some one PE and then read by
 * others" (Section 5): under RWB the write broadcast updates every
 * consumer's cache, so consumer reads cost no bus traffic; RB
 * invalidates and pays one refill per round; write-through and
 * write-once pay a refill per consumer per round.
 */
TEST(ProducerConsumer, RwbNeedsFewestTransactions)
{
    auto trace = makeProducerConsumerTrace(4, 16, 8, 2);

    auto rwb = runOn(ProtocolKind::Rwb, trace);
    auto rb = runOn(ProtocolKind::Rb, trace);
    auto write_once = runOn(ProtocolKind::WriteOnce, trace);
    auto write_through = runOn(ProtocolKind::WriteThrough, trace);

    EXPECT_LT(rwb.bus_transactions, rb.bus_transactions);
    EXPECT_LT(rb.bus_transactions, write_once.bus_transactions);
    EXPECT_LE(rwb.bus_transactions, write_through.bus_transactions);
}

/**
 * RB's read broadcast: when many PEs read a value one PE wrote, the
 * first bus read refills every interested cache at once, so the
 * followers' reads are hits.  Goodman's write-once lacks the
 * broadcast and pays one bus read per follower.
 */
TEST(ReadBroadcast, RbRefillsAllCachesWithOneRead)
{
    const int num_pes = 6;
    const int rounds = 8;
    Trace trace(num_pes);
    Word value = 1;
    for (int round = 0; round < rounds; round++) {
        trace.append(0, {CpuOp::Write, sharedBase(), value++,
                         DataClass::Shared});
        for (PeId pe = 1; pe < num_pes; pe++) {
            for (int r = 0; r < 4; r++) {
                trace.append(pe, {CpuOp::Read, sharedBase(), 0,
                                  DataClass::Shared});
            }
        }
    }

    auto rb = runOn(ProtocolKind::Rb, trace);
    auto write_once = runOn(ProtocolKind::WriteOnce, trace);
    EXPECT_LT(rb.counters.get("bus.read"),
              write_once.counters.get("bus.read"));
}

/**
 * Dynamic reclassification (Section 3): a shared variable referenced
 * for a while by only one PE behaves like a local variable — repeated
 * read/write by the owner generates no traffic once Local.
 */
TEST(DynamicClassification, PrivatePhaseIsSilentUnderRb)
{
    Trace trace(2);
    // Phase 1: both PEs share the variable.
    trace.append(0, {CpuOp::Write, sharedBase(), 1, DataClass::Shared});
    trace.append(1, {CpuOp::Read, sharedBase(), 0, DataClass::Shared});
    // Phase 2: PE 0 uses it exclusively, many times.
    for (int i = 0; i < 100; i++) {
        trace.append(0, {CpuOp::Write, sharedBase(),
                         static_cast<Word>(i + 2), DataClass::Shared});
        trace.append(0, {CpuOp::Read, sharedBase(), 0, DataClass::Shared});
    }

    auto rb = runOn(ProtocolKind::Rb, trace);
    // Far fewer transactions than references: the private phase runs
    // in the cache. (A handful of transactions for the shared phase.)
    EXPECT_LT(rb.bus_transactions, 12u);

    auto write_through = runOn(ProtocolKind::WriteThrough, trace);
    EXPECT_GT(write_through.bus_transactions, 100u); // every write
}

/** Migratory data: every protocol stays consistent; RWB's update
 *  broadcasts let the next PE in the chain read without a miss. */
TEST(Migratory, RwbBeatsWriteThroughAndStaysConsistent)
{
    auto trace = makeMigratoryTrace(4, 8, 10);
    auto rwb = runOn(ProtocolKind::Rwb, trace);
    auto write_through = runOn(ProtocolKind::WriteThrough, trace);
    EXPECT_LT(rwb.bus_transactions, write_through.bus_transactions);
}

/**
 * The Cm* baseline reproduces Raskin's accounting: every shared
 * reference and every local write is a "miss" (bus transaction).
 */
TEST(CmStarAccounting, SharedAndLocalWritesAlwaysMiss)
{
    Trace trace(1);
    // The code word must not conflict-map with the local word in the
    // 64-line cache (codeBase and localBase are 64 Ki words apart).
    Addr code_word = codeBase(0) + 33;
    for (int i = 0; i < 10; i++) {
        trace.append(0, {CpuOp::Read, sharedBase(), 0, DataClass::Shared});
        trace.append(0, {CpuOp::Write, localBase(0),
                         static_cast<Word>(i + 1), DataClass::Local});
        trace.append(0, {CpuOp::Read, code_word, 0, DataClass::Code});
    }
    auto result = runOn(ProtocolKind::CmStar, trace, 64);
    // 10 shared reads + 10 local writes + 1 code cold miss.
    EXPECT_EQ(result.counters.get("cache.read_miss.Shared"), 10u);
    EXPECT_EQ(result.counters.get("cache.write_miss.Local"), 10u);
    EXPECT_EQ(result.counters.get("cache.read_miss.Code"), 1u);
    EXPECT_EQ(result.counters.get("cache.read_hit.Code"), 9u);
}

/** Larger caches reduce the Cm* read-miss ratio (the Table 1-1 trend). */
TEST(CmStarTrend, ReadMissRatioFallsWithCacheSize)
{
    auto trace = makeCmStarTrace(cmStarApplicationA(), 2, 20000, 42);
    double previous = 1.0;
    for (std::size_t lines : {256u, 1024u, 4096u}) {
        SystemConfig config;
        config.num_pes = 2;
        config.cache_lines = lines;
        config.protocol = ProtocolKind::CmStar;
        auto result = exp::executeTraceRun({.config = config, .trace = trace});
        ASSERT_EQ(result.status, RunStatus::Finished);
        double read_miss =
            static_cast<double>(
                result.counters.get("cache.read_miss.Code") +
                result.counters.get("cache.read_miss.Local")) /
            static_cast<double>(result.total_refs);
        EXPECT_LT(read_miss, previous) << lines << " lines";
        previous = read_miss;
    }
}

/** The transparent schemes beat the Cm* baseline on shared data. */
TEST(SchemeComparison, CachingSharedDataPaysOff)
{
    auto trace = makeCmStarTrace(cmStarApplicationA(), 4, 10000, 7);
    auto cmstar = runOn(ProtocolKind::CmStar, trace, 1024);
    auto rb = runOn(ProtocolKind::Rb, trace, 1024);
    auto rwb = runOn(ProtocolKind::Rwb, trace, 1024);
    EXPECT_LT(rb.metric("bus_per_ref"), cmstar.metric("bus_per_ref"));
    EXPECT_LT(rwb.metric("bus_per_ref"), cmstar.metric("bus_per_ref"));
}

} // namespace
} // namespace ddc
