/** @file Unit tests for MemRef traces and their serialization. */

#include <gtest/gtest.h>

#include <sstream>

#include "trace/trace.hh"

namespace ddc {
namespace {

TEST(Trace, EmptyTrace)
{
    Trace trace(3);
    EXPECT_EQ(trace.numPes(), 3);
    EXPECT_EQ(trace.totalRefs(), 0u);
    EXPECT_TRUE(trace.stream(0).empty());
}

TEST(Trace, AppendAndRead)
{
    Trace trace(2);
    MemRef ref{CpuOp::Write, 0x10, 7, DataClass::Shared};
    trace.append(1, ref);
    EXPECT_EQ(trace.totalRefs(), 1u);
    ASSERT_EQ(trace.stream(1).size(), 1u);
    EXPECT_EQ(trace.stream(1)[0], ref);
    EXPECT_TRUE(trace.stream(0).empty());
}

TEST(Trace, RoundTripAllOpsAndClasses)
{
    Trace trace(2);
    trace.append(0, {CpuOp::Read, 1, 0, DataClass::Code});
    trace.append(0, {CpuOp::Write, 2, 5, DataClass::Local});
    trace.append(1, {CpuOp::TestAndSet, 3, 1, DataClass::Shared});
    trace.append(1, {CpuOp::ReadLock, 4, 0, DataClass::Shared});
    trace.append(1, {CpuOp::WriteUnlock, 4, 9, DataClass::Shared});

    std::stringstream buffer;
    trace.save(buffer);

    Trace loaded;
    ASSERT_TRUE(loaded.load(buffer));
    EXPECT_EQ(loaded, trace);
}

TEST(Trace, LoadRejectsBadMagic)
{
    std::stringstream buffer("wrongmagic 1 2\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsBadVersion)
{
    std::stringstream buffer("ddctrace 9 2\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsOutOfRangePe)
{
    std::stringstream buffer("ddctrace 1 2\n5 R 1 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
    EXPECT_EQ(trace.numPes(), 0);
}

TEST(Trace, LoadRejectsUnknownOp)
{
    std::stringstream buffer("ddctrace 1 1\n0 Q 1 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsUnknownClass)
{
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 Z\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
}

TEST(Trace, LoadRejectsTruncatedLastRecord)
{
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 S\n0 W 5");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
    EXPECT_EQ(trace.numPes(), 0);
}

TEST(Trace, LoadRejectsMalformedLastRecord)
{
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 S\n0 W x 0 S\n");
    Trace trace;
    EXPECT_FALSE(trace.load(buffer));
    EXPECT_EQ(trace.numPes(), 0);
}

TEST(Trace, LoadAcceptsLastRecordWithoutNewline)
{
    std::stringstream buffer("ddctrace 1 1\n0 R 1 0 S\n0 W 5 7 P");
    Trace trace;
    ASSERT_TRUE(trace.load(buffer));
    ASSERT_EQ(trace.stream(0).size(), 2u);
    EXPECT_EQ(trace.stream(0)[1],
              (MemRef{CpuOp::Write, 5, 7, DataClass::Local}));
}

TEST(Trace, CopiesCompareByContent)
{
    Trace trace(2);
    trace.append(0, {CpuOp::Write, 1, 5});
    trace.append(1, {CpuOp::Read, 1});
    Trace copy = trace;
    EXPECT_EQ(copy, trace);

    // Built separately, same references: equal too.
    Trace rebuilt(2);
    rebuilt.append(0, {CpuOp::Write, 1, 5});
    rebuilt.append(1, {CpuOp::Read, 1});
    EXPECT_EQ(rebuilt, trace);

    copy.append(1, {CpuOp::Read, 2});
    EXPECT_NE(copy, trace);
    EXPECT_EQ(trace.stream(1).size(), 1u) << "append must not reach "
                                             "the trace it was copied from";
    EXPECT_NE(rebuilt, Trace(3));
}

TEST(Trace, SharedStreamOutlivesAppendAndTrace)
{
    SharedStream handle;
    {
        Trace trace(1);
        trace.append(0, {CpuOp::Write, 3, 9});
        handle = trace.share(0);
        trace.append(0, {CpuOp::Read, 3});
        EXPECT_EQ(trace.stream(0).size(), 2u);
    }
    ASSERT_EQ(handle->size(), 1u);
    EXPECT_EQ((*handle)[0], (MemRef{CpuOp::Write, 3, 9}));
}

TEST(Trace, MemRefPacksInto24Bytes)
{
    // The name predates the packed layout: a reference is now one
    // word of address, op and class, then its data word.
    static_assert(sizeof(MemRef) == 16);
    MemRef blank;
    EXPECT_EQ(blank.addr, 0u);
    EXPECT_EQ(blank.op, CpuOp::Read);
    EXPECT_EQ(blank.cls, DataClass::Shared);
    EXPECT_EQ(blank.data, 0u);
    MemRef ref{CpuOp::Read, 4};
    EXPECT_EQ(ref.addr, 4u);
    EXPECT_EQ(ref.data, 0u);
    EXPECT_EQ(ref.cls, DataClass::Shared);
    // Every field keeps its full range next to the others.
    MemRef top{CpuOp::WriteUnlock, kAddrLimit - 1, kMaxDataValue,
               DataClass::Code};
    EXPECT_EQ(top.addr, kAddrLimit - 1);
    EXPECT_EQ(top.op, CpuOp::WriteUnlock);
    EXPECT_EQ(top.cls, DataClass::Code);
    EXPECT_EQ(top.data, kMaxDataValue);
}

TEST(Trace, MemRefOutsideAddressSpaceDies)
{
    EXPECT_DEATH((MemRef{CpuOp::Read, kAddrLimit}), "48-bit address space");
    EXPECT_DEATH((MemRef{CpuOp::Write, ~Addr{0}, 1}), "address space");
}

TEST(Trace, LoadRejectsAddressOutsideAddressSpace)
{
    Trace trace;
    std::istringstream past("ddctrace 1 1\n0 R 281474976710656 0 S\n");
    EXPECT_FALSE(trace.load(past));
    EXPECT_EQ(trace.numPes(), 0);
    EXPECT_EQ(trace.totalRefs(), 0u);

    // The last address of the space round-trips.
    Trace top(1);
    top.append(0, {CpuOp::Write, kAddrLimit - 1, 5, DataClass::Shared});
    std::stringstream ss;
    top.save(ss);
    EXPECT_NE(ss.str().find("281474976710655"), std::string::npos);
    Trace loaded;
    ASSERT_TRUE(loaded.load(ss));
    EXPECT_EQ(loaded, top);
    EXPECT_EQ(loaded.stream(0)[0].addr, kAddrLimit - 1);
}

TEST(Trace, ToStringMentionsOpAndClass)
{
    MemRef ref{CpuOp::Read, 0xab, 0, DataClass::Local};
    auto text = toString(ref);
    EXPECT_NE(text.find("R"), std::string::npos);
    EXPECT_NE(text.find("ab"), std::string::npos);
    EXPECT_NE(text.find("Local"), std::string::npos);
}

TEST(Trace, LargeAddressesSurviveRoundTrip)
{
    Trace trace(1);
    trace.append(0, {CpuOp::Write, Addr{1} << 40, 123, DataClass::Shared});
    std::stringstream buffer;
    trace.save(buffer);
    Trace loaded;
    ASSERT_TRUE(loaded.load(buffer));
    EXPECT_EQ(loaded.stream(0)[0].addr, Addr{1} << 40);
}

} // namespace
} // namespace ddc
