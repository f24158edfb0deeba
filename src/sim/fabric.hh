/**
 * @file
 * Interconnect-neutral interfaces between the kernel, the clients,
 * and whatever fabric carries their coherence traffic.
 *
 * Tickable is what a Shard drives: anything with a per-cycle tick()
 * plus the two quiescent-skip hooks (nextEventCycle / skipCycles).
 * The snooping Bus and the directory fabric (src/dir) both implement
 * it, so the shard and kernel machinery is interconnect-agnostic.
 *
 * GlobalFabric is what a global-level client (the hierarchical
 * machine's ClusterCache) attaches to: a request slot it can arm and
 * disarm, on either the snooping global Bus or the home-node
 * directory fabric, with the same arming contract for every
 * implementation (see Bus::setRequestArmed).
 */

#ifndef DDC_SIM_FABRIC_HH
#define DDC_SIM_FABRIC_HH

#include <cstddef>

#include "base/types.hh"

namespace ddc {

class BusClient;

/** Anything a Shard ticks once per cycle (bus or directory fabric). */
class Tickable
{
  public:
    virtual ~Tickable() = default;

    /** Advance one cycle. */
    virtual void tick() = 0;

    /**
     * Earliest cycle at which this component can next change state
     * (@p now when runnable this cycle, kNever when fully blocked).
     * Side-effect free; see Bus::nextEventCycle for the contract.
     */
    virtual Cycle nextEventCycle(Cycle now) const = 0;

    /**
     * Account for @p count quiescent cycles at once, exactly as
     * @p count consecutive tick() calls would have.  The caller
     * guarantees no grant opportunity is skipped over.
     */
    virtual void skipCycles(Cycle count) = 0;
};

/** The global interconnect as seen by an attaching client. */
class GlobalFabric
{
  public:
    virtual ~GlobalFabric() = default;

    /** Attach a client; returns its client index on this fabric. */
    virtual int attach(BusClient *client) = 0;

    /**
     * Arm/disarm client @p client's request slot (see
     * Bus::setRequestArmed).  Disarming is strictly a promise that
     * hasRequest() would return false until the client re-arms.
     */
    virtual void setRequestArmed(int client, bool is_armed) = 0;

    /** Words per block on this fabric. */
    virtual std::size_t blockWords() const = 0;
};

} // namespace ddc

#endif // DDC_SIM_FABRIC_HH
