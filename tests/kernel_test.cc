/**
 * @file
 * Unit tests for the simulation kernel (sim/kernel.hh) against stub
 * agents and components: tick ordering, the quiescent-skip window
 * (minimum of every shard's nextEventCycle, which only components
 * report), budget clamping, and the stalled-agent wake list with its
 * bulk stall payments.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.hh"
#include "sim/kernel.hh"
#include "sim/shard.hh"

namespace ddc {
namespace {

/** Ticks @p work times, then done; always runnable. */
class CountingAgent : public Agent
{
  public:
    explicit CountingAgent(int work) : remaining(work) {}

    void
    tick() override
    {
        ticks++;
        if (remaining > 0)
            remaining--;
    }

    bool done() const override { return remaining == 0; }
    bool stalledOnCompletion() const override { return false; }
    void addStallCycles(Cycle) override {}

    int ticks = 0;

  private:
    int remaining;
};

/** Stalls on completion after its first tick; counts stall cycles. */
class StallingAgent : public Agent
{
  public:
    void
    tick() override
    {
        ticks++;
        issued = true;
    }

    bool done() const override { return false; }
    bool stalledOnCompletion() const override { return issued; }
    void addStallCycles(Cycle count) override { stallCycles += count; }

    int ticks = 0;
    Cycle stallCycles = 0;

  private:
    bool issued = false;
};

/** Raises a wake for slot 0 of a shard when the clock reaches a cycle. */
class WakeAt : public Tickable
{
  public:
    WakeAt(const Clock &clock, Shard &shard, Cycle at)
        : clock(clock), shard(shard), at(at)
    {}

    void
    tick() override
    {
        if (clock.now == at)
            shard.raiseWake(0);
    }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return now <= at ? at : kNever;
    }

    void skipCycles(Cycle count) override { skipped += count; }

    Cycle skipped = 0;

  private:
    const Clock &clock;
    Shard &shard;
    Cycle at;
};

/**
 * Misses on its first tick, then finishes on the tick after its wake
 * (a trace agent with one reference); counts its stall cycles.
 */
class OneMissAgent : public Agent
{
  public:
    void tick() override { ticks++; }
    bool done() const override { return ticks == 2; }
    bool stalledOnCompletion() const override { return ticks == 1; }
    void addStallCycles(Cycle count) override { stallCycles += count; }

    int ticks = 0;
    Cycle stallCycles = 0;
};

TEST(Kernel, RunsAgentsToCompletion)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(2);
    CountingAgent fast(5);
    CountingAgent slow(12);
    shard.setAgent(0, &fast);
    shard.setAgent(1, &slow);
    shard.rebuild();

    EXPECT_FALSE(kernel.allDone());
    EXPECT_EQ(kernel.run(1000), RunStatus::Finished);
    EXPECT_TRUE(kernel.allDone());
    EXPECT_EQ(clock.now, 12u);
    // A finished agent is dropped from the tick list, not re-ticked.
    EXPECT_EQ(fast.ticks, 5);
    EXPECT_EQ(slow.ticks, 12);
}

TEST(Kernel, QuiescentWindowIsTheMinimumAcrossShards)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &a = kernel.makeShard(1);
    Shard &b = kernel.makeShard(1);
    WakeAt lateWaker(clock, a, 10);
    WakeAt earlyWaker(clock, b, 5);
    a.addComponent(&lateWaker);
    b.addComponent(&earlyWaker);
    OneMissAgent late, early;
    a.setAgent(0, &late);
    b.setAgent(0, &early);
    a.rebuild();
    b.rebuild();

    EXPECT_EQ(kernel.run(1000), RunStatus::Finished);
    // Both miss in cycle 0; skip 1..4 to the earlier wake, tick 5,
    // skip 6..9, tick 10.  Skipping past 5 would drop b's wake.
    EXPECT_EQ(clock.now, 11u);
    EXPECT_EQ(kernel.skippedCycles(), 8u);
    EXPECT_EQ(lateWaker.skipped, 8u);
    EXPECT_EQ(earlyWaker.skipped, 8u);
    EXPECT_EQ(early.stallCycles, 4u);
    EXPECT_EQ(late.stallCycles, 9u);
}

TEST(Kernel, SkipDisabledTicksEveryCycle)
{
    Clock clock;
    Kernel kernel(clock, false);
    Shard &shard = kernel.makeShard(1);
    WakeAt waker(clock, shard, 20);
    shard.addComponent(&waker);
    OneMissAgent agent;
    shard.setAgent(0, &agent);
    shard.rebuild();

    EXPECT_EQ(kernel.run(1000), RunStatus::Finished);
    EXPECT_EQ(clock.now, 21u);
    EXPECT_EQ(kernel.skippedCycles(), 0u);
    EXPECT_EQ(waker.skipped, 0u);
    // Stalled, the agent sits out cycles 1..19 even without skipping.
    EXPECT_EQ(agent.ticks, 2);
    EXPECT_EQ(agent.stallCycles, 19u);
}

TEST(Kernel, BlockedMachineFastForwardsToTheBudget)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(1);
    StallingAgent blocked; // no component will ever wake it
    shard.setAgent(0, &blocked);
    shard.rebuild();

    EXPECT_EQ(kernel.run(100), RunStatus::TimedOut);
    // Ticked in cycle 0; then every shard reports kNever, so the skip
    // clamps to the budget and reports the wall cycle.
    EXPECT_EQ(clock.now, 100u);
    EXPECT_EQ(kernel.skippedCycles(), 99u);
    EXPECT_EQ(blocked.ticks, 1);
    EXPECT_EQ(blocked.stallCycles, 99u);
    EXPECT_FALSE(kernel.allDone());
}

TEST(Kernel, StallSkipAccruesAndFlushes)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(2);
    StallingAgent stalling;
    CountingAgent busy(10); // keeps the machine non-quiescent
    shard.setAgent(0, &stalling);
    shard.setAgent(1, &busy);
    shard.rebuild();

    EXPECT_EQ(kernel.run(10), RunStatus::TimedOut);
    // Ticked once (cycle 0), then skipped while stalled for cycles
    // 1..9; run() flushes the accrued stalls before returning.
    EXPECT_EQ(stalling.ticks, 1);
    EXPECT_EQ(stalling.stallCycles, 9u);
    // Flushing again owes nothing.
    kernel.flushStalls();
    EXPECT_EQ(stalling.stallCycles, 9u);
}

TEST(Kernel, StalledAgentWakesOnTheFlag)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(2);
    StallingAgent stalling;
    CountingAgent busy(4);
    shard.setAgent(0, &stalling);
    shard.setAgent(1, &busy);
    shard.rebuild();

    EXPECT_EQ(kernel.run(3), RunStatus::TimedOut);
    EXPECT_EQ(stalling.ticks, 1);
    // The completion arrives: the owed stalls land before the next
    // tick, then the agent stalls again on its re-issued access.
    shard.raiseWake(0);
    kernel.tickOnce();
    EXPECT_EQ(stalling.ticks, 2);
    EXPECT_EQ(stalling.stallCycles, 2u);
}

/** Stalls on completion after every tick; logs its slot per tick. */
class LoggingStaller : public Agent
{
  public:
    LoggingStaller(std::vector<int> &order, int slot)
        : order(order), slot(slot)
    {}

    void tick() override { order.push_back(slot); }
    bool done() const override { return false; }
    bool stalledOnCompletion() const override { return true; }
    void addStallCycles(Cycle) override {}

  private:
    std::vector<int> &order;
    int slot;
};

TEST(Kernel, WakesRaisedOutOfOrderAreAdmittedInSlotOrder)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(4);
    std::vector<int> order;
    LoggingStaller a(order, 0), b(order, 1), c(order, 2), d(order, 3);
    shard.setAgent(0, &a);
    shard.setAgent(1, &b);
    shard.setAgent(2, &c);
    shard.setAgent(3, &d);
    shard.rebuild();

    kernel.tickOnce(); // every agent ticks once, then stalls
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    shard.raiseWake(3);
    shard.raiseWake(0);
    shard.raiseWake(2);
    kernel.tickOnce();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 2, 3}));
    kernel.tickOnce(); // all stalled again: nothing ticks
    EXPECT_EQ(order.size(), 7u);
    EXPECT_FALSE(kernel.allDone());
}

TEST(Kernel, StallCyclesOwedAcrossAQuiescentSkipArePaidAtWake)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(2);
    WakeAt waker(clock, shard, 10);
    shard.addComponent(&waker);
    StallingAgent stalling;
    CountingAgent busy(3); // runnable for cycles 0..2, then done
    shard.setAgent(0, &stalling);
    shard.setAgent(1, &busy);
    shard.rebuild();

    EXPECT_EQ(kernel.run(11), RunStatus::TimedOut);
    // Stalled in cycle 0, woken in cycle 10: it owes cycles 1..9, two
    // ticked (1, 2) and seven skipped (3..9), and ticks again in 10.
    EXPECT_EQ(kernel.skippedCycles(), 7u);
    EXPECT_EQ(stalling.ticks, 2);
    EXPECT_EQ(stalling.stallCycles, 9u);
    // Stalled again in cycle 10, the run's last: nothing more owed.
    kernel.flushStalls();
    EXPECT_EQ(stalling.stallCycles, 9u);
}

TEST(Kernel, WakeForARunnableSlotIsIgnored)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(1);
    StallingAgent stalling;
    shard.setAgent(0, &stalling);
    shard.rebuild();

    shard.raiseWake(0); // runnable: nothing to wake
    kernel.tickOnce();  // ticks, then stalls
    kernel.tickOnce();  // the early wake did not carry over
    EXPECT_EQ(stalling.ticks, 1);
    // A stalled slot woken twice is admitted once.
    shard.raiseWake(0);
    shard.raiseWake(0);
    kernel.tickOnce();
    EXPECT_EQ(stalling.ticks, 2);
    EXPECT_EQ(stalling.stallCycles, 1u);
}

TEST(Kernel, WakeDuringTheAgentPassPanics)
{
    /** Wakes slot 0 from inside its own tick. */
    class SelfWaker : public Agent
    {
      public:
        explicit SelfWaker(Shard &shard) : shard(shard) {}
        void tick() override { shard.raiseWake(0); }
        bool done() const override { return false; }
        bool stalledOnCompletion() const override { return false; }
        void addStallCycles(Cycle) override {}

      private:
        Shard &shard;
    };

    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(1);
    SelfWaker waker(shard);
    shard.setAgent(0, &waker);
    shard.rebuild();
    EXPECT_DEATH(kernel.tickOnce(), "during its shard's agent pass");
}

TEST(Kernel, TickOrderFollowsShardCreation)
{
    // The hierarchical machine relies on this: its global shard,
    // created first, commits before any cluster shard ticks.
    Clock clock;
    Kernel kernel(clock, true);
    std::vector<int> order;

    /** Appends its tag to the shared order log on each tick. */
    class TaggedAgent : public Agent
    {
      public:
        TaggedAgent(std::vector<int> &order, int tag, int work)
            : order(order), tag(tag), remaining(work)
        {}

        void
        tick() override
        {
            order.push_back(tag);
            remaining--;
        }

        bool done() const override { return remaining == 0; }
        bool stalledOnCompletion() const override { return false; }
        void addStallCycles(Cycle) override {}

      private:
        std::vector<int> &order;
        int tag;
        int remaining;
    };

    Shard &first = kernel.makeShard(1);
    Shard &second = kernel.makeShard(1);
    Shard &third = kernel.makeShard(1);
    TaggedAgent a(order, 0, 2), b(order, 1, 2), c(order, 2, 2);
    first.setAgent(0, &a);
    second.setAgent(0, &b);
    third.setAgent(0, &c);
    first.rebuild();
    second.rebuild();
    third.rebuild();

    EXPECT_EQ(kernel.run(100), RunStatus::Finished);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 0, 1, 2}));
}

} // namespace
} // namespace ddc
