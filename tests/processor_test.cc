/** @file Unit tests for the Processor executing programs on a System. */

#include <gtest/gtest.h>

#include "sim/system.hh"

namespace ddc {
namespace {

SystemConfig
smallConfig()
{
    SystemConfig config;
    config.num_pes = 2;
    config.cache_lines = 16;
    config.protocol = ProtocolKind::Rb;
    return config;
}

TEST(Processor, ArithmeticAndMoves)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 5)
                             .loadImm(2, 7)
                             .add(3, 1, 2)
                             .sub(4, 2, 1)
                             .addImm(5, 3, 100)
                             .move(6, 5)
                             .halt()
                             .build());
    system.run();
    ASSERT_TRUE(system.allDone());
    auto &pe = system.processor(0);
    EXPECT_EQ(pe.reg(3), 12u);
    EXPECT_EQ(pe.reg(4), 2u);
    EXPECT_EQ(pe.reg(5), 112u);
    EXPECT_EQ(pe.reg(6), 112u);
}

TEST(Processor, LoadAndStoreThroughCache)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 100) // address
                             .loadImm(2, 55)     // value
                             .store(1, 2)
                             .load(3, 1)
                             .halt()
                             .build());
    system.run();
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.processor(0).reg(3), 55u);
    EXPECT_EQ(system.memoryValue(100), 55u);
}

TEST(Processor, StoreWithOffset)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 200)
                             .loadImm(2, 9)
                             .store(1, 2, 3)  // mem[203] = 9
                             .load(4, 1, 3)
                             .halt()
                             .build());
    system.run();
    EXPECT_EQ(system.processor(0).reg(4), 9u);
    EXPECT_EQ(system.memoryValue(203), 9u);
}

TEST(Processor, BranchesAndLoops)
{
    System system(smallConfig());
    // Sum 1..5 into r3.
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 5)   // counter
                             .loadImm(3, 0)      // accumulator
                             .label("loop")
                             .add(3, 3, 1)
                             .addImm(1, 1, -1)
                             .branchIfNotZero(1, "loop")
                             .halt()
                             .build());
    system.run();
    EXPECT_EQ(system.processor(0).reg(3), 15u);
}

TEST(Processor, BranchIfZeroTaken)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 0)
                             .branchIfZero(1, "skip")
                             .loadImm(2, 111) // must be skipped
                             .label("skip")
                             .halt()
                             .build());
    system.run();
    EXPECT_EQ(system.processor(0).reg(2), 0u);
}

TEST(Processor, TestAndSetReturnsOldValue)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 300)
                             .loadImm(2, 1)
                             .testAndSet(3, 1, 2) // succeeds: old 0
                             .testAndSet(4, 1, 2) // fails: old 1
                             .halt()
                             .build());
    system.run();
    EXPECT_EQ(system.processor(0).reg(3), 0u);
    EXPECT_EQ(system.processor(0).reg(4), 1u);
    EXPECT_EQ(system.memoryValue(300), 1u);
}

TEST(Processor, LoadLockedStoreUnlockRoundTrip)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 400)
                             .loadImm(2, 77)
                             .store(1, 2)       // mem[400] = 77
                             .loadLocked(3, 1)  // r3 = 77, word locked
                             .addImm(3, 3, 1)
                             .storeUnlock(1, 3) // mem[400] = 78
                             .load(4, 1)
                             .halt()
                             .build());
    system.run();
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.processor(0).reg(4), 78u);
    EXPECT_EQ(system.memoryValue(400), 78u);
}

TEST(Processor, LockBlocksOtherWriterUntilUnlock)
{
    System system(smallConfig());
    // PE0 locks word 500 and holds it for a while before unlocking;
    // PE1 tries to write it and must not succeed in between.
    ProgramBuilder b0;
    Program p0 = b0.loadImm(1, 500)
                     .loadImm(2, 1)
                     .loadLocked(3, 1)
                     .nop().nop().nop().nop().nop().nop().nop().nop()
                     .nop().nop().nop().nop().nop().nop().nop().nop()
                     .storeUnlock(1, 2) // writes 1
                     .halt()
                     .build();
    ProgramBuilder b1;
    Program p1 = b1.loadImm(1, 500)
                     .loadImm(2, 2)
                     .nop().nop() // let PE0 take the lock first
                     .store(1, 2) // NACKs until the unlock, then writes 2
                     .halt()
                     .build();
    system.setProgram(0, std::move(p0));
    system.setProgram(1, std::move(p1));
    system.run();
    ASSERT_TRUE(system.allDone());
    // PE1's write must have happened after the unlock.
    EXPECT_EQ(system.memoryValue(500), 2u);
    auto counters = system.counters();
    EXPECT_GE(counters.get("bus.nack"), 1u);
}

TEST(Processor, InstructionAndStallCounts)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.loadImm(1, 100)
                             .load(2, 1) // miss: stalls
                             .halt()
                             .build());
    system.run();
    auto &pe = system.processor(0);
    EXPECT_EQ(pe.instructionsRetired(), 3u); // loadImm + load + halt
    EXPECT_GE(pe.stallCycles(), 1u);
}

TEST(Processor, EmptyProgramIsDoneImmediately)
{
    System system(smallConfig());
    system.setProgram(0, Program{});
    system.setProgram(1, Program{});
    EXPECT_TRUE(system.allDone());
}

TEST(Processor, EffectiveAddressPastAddressSpaceDies)
{
    // The last word of the space is an ordinary address...
    System system(smallConfig());
    ProgramBuilder builder;
    auto top = static_cast<std::int64_t>(kAddrLimit - 1);
    system.setProgram(0, builder.loadImm(1, top)
                             .loadImm(2, 9)
                             .store(1, 2)
                             .load(3, 1)
                             .halt()
                             .build());
    system.run();
    ASSERT_TRUE(system.allDone());
    EXPECT_EQ(system.processor(0).reg(3), 9u);

    // ...and one word further is refused, not aliased onto address 0.
    System past(smallConfig());
    ProgramBuilder past_builder;
    past.setProgram(0, past_builder.loadImm(1, top)
                           .load(2, 1, /*offset=*/1)
                           .halt()
                           .build());
    EXPECT_DEATH(past.run(100), "48-bit address space");
}

TEST(Processor, RunningOffTheEndDies)
{
    System system(smallConfig());
    ProgramBuilder builder;
    system.setProgram(0, builder.nop().build()); // no halt
    EXPECT_DEATH(system.run(10), "ran off");
}

} // namespace
} // namespace ddc
