/**
 * @file
 * Unit tests for the simulation kernel (sim/kernel.hh) against stub
 * agents: tick ordering, the quiescent-skip window (minimum of every
 * shard's nextEventCycle), budget clamping, and the stalled-agent
 * wake list with its bulk stall payments.
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

    int ticks = 0;

  private:
    int remaining;
};

/** Self-timed: idle until cycle @p wake_at, then one tick of work. */
class WaiterAgent : public Agent
{
  public:
    WaiterAgent(const Clock &clock, Cycle wake_at)
        : clock(clock), wakeAt(wake_at)
    {}

    void
    tick() override
    {
        if (clock.now >= wakeAt)
            finished = true;
    }

    bool done() const override { return finished; }

    Cycle
    nextEventCycle(Cycle now) const override
    {
        return now >= wakeAt ? now : wakeAt;
    }

    void skipCycles(Cycle count) override { skipped += count; }

    Cycle skipped = 0;

  private:
    const Clock &clock;
    Cycle wakeAt;
    bool finished = false;
};

/** Blocked forever on another component (nextEventCycle = kNever). */
class BlockedAgent : public Agent
{
  public:
    void tick() override {}
    bool done() const override { return false; }
    Cycle nextEventCycle(Cycle) const override { return kNever; }
    void skipCycles(Cycle count) override { skipped += count; }

    Cycle skipped = 0;
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
    WaiterAgent late(clock, 10);
    WaiterAgent early(clock, 5);
    a.setAgent(0, &late);
    b.setAgent(0, &early);
    a.rebuild();
    b.rebuild();

    EXPECT_EQ(kernel.run(1000), RunStatus::Finished);
    // Skip to 5 (the earlier waiter), tick, skip 6..9, tick: only the
    // two tick cycles are actually executed.
    EXPECT_EQ(clock.now, 11u);
    EXPECT_EQ(kernel.skippedCycles(), 9u);
    EXPECT_EQ(late.skipped, 9u);
    EXPECT_EQ(early.skipped, 5u);
}

TEST(Kernel, SkipDisabledTicksEveryCycle)
{
    Clock clock;
    Kernel kernel(clock, false);
    Shard &shard = kernel.makeShard(1);
    WaiterAgent waiter(clock, 20);
    shard.setAgent(0, &waiter);
    shard.rebuild();

    EXPECT_EQ(kernel.run(1000), RunStatus::Finished);
    EXPECT_EQ(clock.now, 21u);
    EXPECT_EQ(kernel.skippedCycles(), 0u);
    EXPECT_EQ(waiter.skipped, 0u);
}

TEST(Kernel, BlockedMachineFastForwardsToTheBudget)
{
    Clock clock;
    Kernel kernel(clock, true);
    Shard &shard = kernel.makeShard(1);
    BlockedAgent blocked;
    shard.setAgent(0, &blocked);
    shard.rebuild();

    EXPECT_EQ(kernel.run(100), RunStatus::TimedOut);
    // The skip clamps to the budget and reports the wall cycle.
    EXPECT_EQ(clock.now, 100u);
    EXPECT_EQ(kernel.skippedCycles(), 100u);
    EXPECT_EQ(blocked.skipped, 100u);
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

    void skipCycles(Cycle) override {}

  private:
    const Clock &clock;
    Shard &shard;
    Cycle at;
};

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
