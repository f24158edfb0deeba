/**
 * @file
 * Full-machine wiring: N PEs, N (x buses) private caches, arbitrated
 * shared bus(es) and interleaved memory banks, over the Multiprocessor
 * core (clock, kernel, agents).
 *
 * With num_buses == 1 this is the paper's baseline machine; with
 * num_buses == k it is the Figure 7-1 multiple-shared-bus extension
 * (addresses interleaved across buses by their low-order bits, one
 * memory bank and one cache bank per bus per PE).
 */

#ifndef DDC_SIM_SYSTEM_HH
#define DDC_SIM_SYSTEM_HH

#include <memory>
#include <string_view>
#include <vector>

#include "base/types.hh"
#include "core/factory.hh"
#include "sim/arbiter.hh"
#include "sim/bus.hh"
#include "sim/cache.hh"
#include "sim/memory.hh"
#include "sim/multiprocessor.hh"
#include "stats/counter.hh"

namespace ddc {

/** Configuration of one simulated machine. */
struct SystemConfig
{
    int num_pes = 4;
    /** Lines per cache bank; capacity in words = lines * block_words. */
    std::size_t cache_lines = 1024;
    /** Words per cache block (the paper's assumption 7: 1). */
    std::size_t block_words = 1;
    /** Set associativity (the paper's assumption 7: 1, direct-mapped). */
    std::size_t ways = 1;
    /**
     * Extra bus-occupancy cycles per memory-touching transaction
     * (0 = the paper's unified bus/cache/PE cycle, assumption 5).
     */
    std::size_t memory_latency = 0;
    ProtocolKind protocol = ProtocolKind::Rb;
    /** RWB's writes-to-local threshold k (RWB only). */
    int rwb_writes_to_local = 2;
    /** Number of interleaved shared buses (Section 7). */
    int num_buses = 1;
    ArbiterKind arbiter = ArbiterKind::RoundRobin;
    /** Seed for the Random arbitration policy. */
    std::uint64_t arbiter_seed = 1;
    /** Record the serial execution log for consistency checking. */
    bool record_log = false;
    /**
     * Fast paths and observers; results are byte-identical under any
     * setting.  Starts from engineDefaults() (the engine flags), and
     * a field set in code wins.
     */
    EngineKnobs engine = engineDefaults();
};

// EngineKnobs and RunStatus live with the kernel (sim/kernel.hh) and
// are re-exported through this header for the many existing includers.

/** A complete simulated shared-bus multiprocessor. */
class System final : public Multiprocessor
{
  public:
    explicit System(const SystemConfig &config);

    int numBuses() const { return config.num_buses; }
    const SystemConfig &configuration() const { return config; }

    /** Coherence state PE @p pe's cache holds for @p addr. */
    LineState lineState(PeId pe, Addr addr) const;

    /** Value PE @p pe's cache holds for @p addr (0 if absent). */
    Word cacheValue(PeId pe, Addr addr) const;

    /** Memory's current value of @p addr. */
    Word memoryValue(Addr addr) const;

    /**
     * The latest value of @p addr in the machine: the dirty owner's
     * cached copy when one exists (Local/Dirty), otherwise memory.
     */
    Word coherentValue(Addr addr) const;

    /**
     * Overwrite a memory word directly (fault injection / test hook;
     * bypasses the bus, coherence, and statistics).
     */
    void pokeMemory(Addr addr, Word value);

    /** Merged counters from caches, buses, memory, and PEs. */
    stats::CounterSet counters() const override;

    /** Counters of bus @p bus only (bus.* and memory.* of its bank). */
    const stats::CounterSet &busCounters(int bus) const;

    /** Total bus transactions across all buses. */
    std::uint64_t totalBusTransactions() const;

    std::uint64_t snoopVisits() const override;
    std::uint64_t snoopFilterFallbacks() const override;

  private:
    const Cache &cacheBank(PeId pe, Addr addr) const;

    SystemConfig config;
    std::vector<std::unique_ptr<stats::CounterSet>> busStats;
    std::vector<std::unique_ptr<Memory>> memories;
    std::vector<std::unique_ptr<Bus>> buses;
    /** caches[pe * num_buses + bus]. */
    std::vector<std::unique_ptr<Cache>> caches;
};

} // namespace ddc

#endif // DDC_SIM_SYSTEM_HH
