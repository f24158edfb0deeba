/**
 * @file
 * Vocabulary types shared by every ddcache layer.
 *
 * The simulated machine follows the assumptions of Rudolph & Segall,
 * "Dynamic Decentralized Cache Schemes for MIMD Parallel Processors"
 * (CMU-CS-84-139, ISCA 1984), Section 2: a logically single shared bus,
 * one private cache per processing element, direct-mapped caches with a
 * one-word block size, and a bus cycle that is no faster than the cache
 * or PE cycle (so everything advances on a single global cycle).
 */

#ifndef DDC_BASE_TYPES_HH
#define DDC_BASE_TYPES_HH

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ddc {

/** Word address of a single shared-memory word (block size is one word). */
using Addr = std::uint64_t;

/**
 * Width of the simulated word-address space.  Every address lies below
 * 2^kAddrBits (the synthetic regions stay below 2^41), so the top 16
 * bits of an address word are free: a MemRef keeps its op and class
 * there and a cache line its tag and write streak.  Addresses are
 * checked where they enter: MemRef's constructor (every ISA effective
 * address) and Trace::load.
 */
inline constexpr unsigned kAddrBits = 48;

/** One past the largest word address. */
inline constexpr Addr kAddrLimit = Addr{1} << kAddrBits;

/** Contents of one memory word. */
using Word = std::uint64_t;

/** Global simulation cycle counter. */
using Cycle = std::uint64_t;

/** Identifier of a processing element / private cache (0-based). */
using PeId = int;

/** PeId value meaning "no PE" (e.g. a bus transaction issued by memory). */
inline constexpr PeId kNoPe = -1;

/**
 * Largest data value a program may store.
 *
 * The paper implements the RWB Bus Invalidate signal "by reserving one
 * value from the range of values assumed by any data word" (Section 5).
 * We reserve the all-ones word; stores of the reserved value are rejected
 * by the memory model so the encoding stays unambiguous.
 */
inline constexpr Word kReservedInvalidateValue = ~Word{0};

/** Largest value a well-formed program may write to memory. */
inline constexpr Word kMaxDataValue = kReservedInvalidateValue - 1;

/**
 * Coherence tag state of one cache line.
 *
 * NotPresent models the paper's NP extension of the product machine
 * (Section 4): the address does not currently occupy its cache line.
 * FirstWrite exists only in the RWB scheme (Section 5); Reserved and
 * Dirty exist only in the Goodman write-once baseline.
 */
enum class LineTag : std::uint8_t {
    NotPresent,
    Invalid,
    Readable,
    Local,
    FirstWrite,
    Valid,     //!< baseline protocols: present and clean
    Reserved,  //!< Goodman write-once: written through exactly once
    Dirty,     //!< Goodman write-once: written locally more than once
};

/** Printable name of a LineTag ("NP", "I", "R", "L", "F", ...). */
std::string_view toString(LineTag tag);

/** Kind of reference a processing element issues to its cache. */
enum class CpuOp : std::uint8_t {
    Read,
    Write,
    /**
     * Atomic test-and-set: one indivisible bus transaction that reads
     * the current value and conditionally stores a new one when the old
     * value is zero.  The paper treats a failing TS "as a non-cachable
     * read" and a succeeding TS "as a write" (Section 6.1) and our bus
     * implements exactly that duality.
     */
    TestAndSet,
    /**
     * First half of the paper's general two-phase read-modify-write:
     * a bus read that locks the memory word.  Bus writes to a locked
     * word by other PEs fail and retry until the owner unlocks.
     */
    ReadLock,
    /** Second half of the two-phase RMW: write the word and unlock. */
    WriteUnlock,
};

/** Printable name of a CpuOp. */
std::string_view toString(CpuOp op);

/**
 * Kind of transaction placed on the shared bus.
 *
 * Rmw is the bus image of CpuOp::TestAndSet.  Invalidate is the RWB
 * scheme's dedicated Bus Invalidate (BI) signal.  ReadLock/WriteUnlock
 * implement the general two-phase read-modify-write the paper sketches
 * for the RB scheme ("read with lock" ... "write-with-unlock").
 */
enum class BusOp : std::uint8_t {
    Read,
    Write,
    Invalidate,
    Rmw,
    ReadLock,
    WriteUnlock,
};

/** Number of BusOp enumerators (op-indexed tables). */
inline constexpr std::size_t kNumBusOps = 6;

/** Printable name of a BusOp. */
std::string_view toString(BusOp op);

/**
 * Software-visible classification of a memory reference.
 *
 * The RB/RWB schemes are transparent and ignore this; it exists so the
 * Cm*-style baseline (Table 1-1) can restrict caching to code and local
 * data, and so statistics can be broken down the way the paper reports
 * them.
 */
enum class DataClass : std::uint8_t {
    Code,    //!< instruction fetch / read-only
    Local,   //!< private to one PE
    Shared,  //!< potentially referenced by several PEs
};

/** Printable name of a DataClass. */
std::string_view toString(DataClass cls);

} // namespace ddc

#endif // DDC_BASE_TYPES_HH
