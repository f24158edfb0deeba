/**
 * @file
 * The directory fabric: the hierarchical machine's global
 * interconnect at scale.
 *
 * Replaces the snooping global Bus with H address-interleaved home
 * nodes (block b is served by home b mod H; a shift-free mask when H
 * is a power of two).  Clusters attach and arm requests exactly as on
 * the bus; each cycle the fabric routes every pending request to its
 * block's home by address (the side-effect-free BusClient::pendingAddr
 * hook), and every home independently arbitrates and serves one
 * request.  All per-transaction work is addressed through directory
 * state — owner forwards and sharer deliveries — so cost per
 * transaction is O(sharers), and fabric memory is O(blocks held) +
 * O(clusters), never O(clusters) *per block* and never O(PEs).
 *
 * The per-cycle hot path is O(armed), not O(clients): routing walks
 * one word-bitset of armed clients (the bus's ClientMask), and only
 * the homes that actually received a request this cycle are ticked —
 * the rest are idle-accounted in one batched counter add, which is
 * byte-identical to ticking each of them because every home interns
 * the same "bus.idle_cycles" handle in the shared counter set.
 *
 * Determinism and equivalence:
 *  - Routing walks the armed set in ascending order and re-reads it
 *    after each poll, the bus's rule, and touched homes are served in
 *    ascending id order on the global shard, so requester collection,
 *    arbiter streams, and cross-home delivery order are byte-
 *    identical to the dense scan.  (Homes tick in the global shard,
 *    created (so ticked) first, before the clusters: the snooping bus
 *    commits supply/kill/deliver atomically within a cycle, and the
 *    clusters observe cross-home deliveries in home order.)  A poll arms or
 *    disarms only the polled client itself: ClusterCache::hasRequest
 *    resolves forwards inside its own cluster and re-arms only its
 *    own slot, so no poll can arm a higher client mid-walk.
 *  - With H = 1 the fabric reduces to the snooping global bus
 *    cycle-for-cycle: same requester collection, same arbiter
 *    stream, same memory/lock semantics, same counter family —
 *    deliveries reach only recorded sharers, which is unobservable
 *    because non-holders treat a snoop as a no-op.  The invariance
 *    matrix (tests/invariance_test.cc) pins this.
 *
 * Request arming uses the same per-client mask + count as
 * Bus::setRequestArmed; armedSinceRoute records a disarmed->armed
 * transition (attach included) since the last routing pass began.
 *
 * Quiescence contract: after a routing pass that posted nothing, the
 * fabric reports kNever until the next arm event — a client that is
 * armed but has no pending request must announce new work through
 * setRequestArmed (ClusterCache does: its armed flag tracks
 * "forwards pending" exactly, so a false hasRequest() poll disarms it
 * inside the same call).
 */

#ifndef DDC_DIR_FABRIC_HH
#define DDC_DIR_FABRIC_HH

#include <memory>
#include <vector>

#include "base/types.hh"
#include "dir/home_node.hh"
#include "obs/recorder.hh"
#include "sim/arbiter.hh"
#include "sim/fabric.hh"

namespace ddc {
namespace dir {

/** Address-interleaved home-node interconnect (global level). */
class DirectoryFabric : public GlobalFabric, public Tickable
{
  public:
    /**
     * @param home_nodes Number of home nodes (>= 1).
     * @param arbiter_seed Base seed; home h arbitrates with seed
     *        @p arbiter_seed + h, so home 0 matches the snooping
     *        global bus.
     * @param stats Shared global counter set (see HomeNode).
     */
    DirectoryFabric(int home_nodes, ArbiterKind arbiter_kind,
                    std::uint64_t arbiter_seed,
                    stats::CounterSet &stats);

    // ---- GlobalFabric ---------------------------------------------
    int attach(BusClient *client) override;
    void setRequestArmed(int client, bool is_armed) override;
    std::size_t blockWords() const override { return 1; }

    // ---- Tickable -------------------------------------------------
    /**
     * Advance one cycle: route every armed pending request to its
     * home, then tick the touched homes in ascending order (at most
     * one new transaction per home per cycle) and idle-account the
     * rest in one batch.
     */
    void tick() override;

    /**
     * @p now while any client is armed AND the fabric may have work:
     * either an arm event arrived since the last routing pass, or
     * that pass posted at least one request.  kNever otherwise —
     * in particular when every armed client polled "no request" last
     * cycle, so the quiescent-skip engine engages (see the
     * quiescence contract in the file header).
     */
    Cycle
    nextEventCycle(Cycle now) const override
    {
        if (armedClients() == 0)
            return kNever;
        return armedSinceRoute || lastRoutingPosted > 0 ? now : kNever;
    }

    /** Account @p count quiescent cycles (idle at every home). */
    void skipCycles(Cycle count) override;

    // ---- Topology & inspection ------------------------------------
    int numHomes() const { return static_cast<int>(homes.size()); }

    /** The home node serving @p addr. */
    int
    homeOf(Addr addr) const
    {
        if (homesPow2)
            return static_cast<int>(addr & homeMask);
        return static_cast<int>(addr %
                                static_cast<Addr>(homes.size()));
    }

    HomeNode &home(int h) { return *homes[static_cast<std::size_t>(h)]; }
    const HomeNode &
    home(int h) const
    {
        return *homes[static_cast<std::size_t>(h)];
    }

    /** Global memory's value of @p addr (routed to its home bank). */
    Word memoryValue(Addr addr) const;

    /** Overwrite home memory directly (fault-injection hook). */
    void pokeMemory(Addr addr, Word value);

    /**
     * Point-to-point messages sent so far (owner forwards + sharer
     * deliveries); the directory-mode analogue of Bus::snoopVisits,
     * and — like it — plain bookkeeping, not a CounterSet statistic.
     */
    std::uint64_t messageVisits() const { return visitCount; }

    /** Blocks with directory state, summed across homes. */
    std::size_t directoryBlocks() const;

    /**
     * Highest load factor any home's flat-map state table (directory
     * entries or memory bank) ever reached — the table-health metric
     * surfaced per run alongside directoryBlocks().
     */
    double maxLoadFactor() const;

    std::size_t
    armedClients() const
    {
        return armedCount;
    }

    // ---- Observability ---------------------------------------------
    /**
     * Attach observability: dir-category trace, directory histograms
     * and the lock log for every home, plus request-latency tracking
     * stamped by the routing pass from @p clock (the machine clock).
     * @p recorder may be null.  Call after every cluster attached.
     */
    void setObserver(obs::Recorder *recorder, const Clock *clock);

    /**
     * Route the host phase split (route vs serve wall ms) into
     * @p profile's fabric_route_ms / fabric_serve_ms; chrono calls
     * only when non-null (off by default).
     */
    void setProfile(obs::PhaseProfile *profile)
    {
        this->profile = profile;
    }

    /** Wall time spent routing requests to homes, in milliseconds. */
    double
    routePhaseMs() const
    {
        return profile ? profile->fabric_route_ms : 0.0;
    }

    /** Wall time spent serving touched homes, in milliseconds. */
    double
    servePhaseMs() const
    {
        return profile ? profile->fabric_serve_ms : 0.0;
    }

    /** Largest per-home message count (hot-home skew numerator). */
    std::uint64_t maxHomeMessages() const;

    /** Mean per-home message count (hot-home skew denominator). */
    double meanHomeMessages() const;

  private:
    std::vector<std::unique_ptr<HomeNode>> homes;
    std::vector<BusClient *> clients;
    /** Armed clients (see Bus::setRequestArmed). */
    ClientMask armed;
    std::size_t armedCount = 0;
    /** A client armed (or attached) since the last routing pass began. */
    bool armedSinceRoute = false;
    /** Homes with a non-empty inbox this cycle (served in id order). */
    ClientMask touchedHomes;
    /** Requests posted by the most recent routing pass. */
    std::size_t lastRoutingPosted = 0;
    /** True when the home count is a power of two (mask routing). */
    bool homesPow2;
    /** homes.size() - 1 when homesPow2. */
    Addr homeMask;
    stats::CounterSet &stats;
    /** Shared "bus.idle_cycles" handle for batched idle accounting. */
    stats::CounterId statIdle;
    std::uint64_t visitCount = 0;
    /** Host phase-split accumulator (null = profiling off). */
    obs::PhaseProfile *profile = nullptr;
    /** Shared per-home observability context (see HomeObs). */
    HomeObs homeObs;
    /** Per-client first-routed cycle (home_service latency). */
    std::vector<Cycle> requestStart;
};

} // namespace dir
} // namespace ddc

#endif // DDC_DIR_FABRIC_HH
