/**
 * @file
 * Latency-distribution metrics (--histograms): the bundle of
 * stats::Histogram instances the hot path samples into when the
 * histograms flag is on.  All inputs are simulated-cycle quantities,
 * so the recorded distributions are deterministic — identical across
 * --jobs counts and host machines.
 */

#ifndef DDC_OBS_METRICS_HH
#define DDC_OBS_METRICS_HH

#include "stats/histogram.hh"

namespace ddc {
namespace obs {

/**
 * Per-run latency/behavior distributions.  Components hold a
 * RunMetrics pointer that is null unless --histograms (or the
 * per-config flag) is set; the disabled path is one pointer test.
 *
 * Bucket widths are coarse on purpose: the interesting quantities
 * (memory latency, spin intervals) are tens of cycles, and the
 * overflow bucket still reports exact min/max/mean/percentile caps.
 */
struct RunMetrics
{
    /** Miss issue -> completion, cycles (includes retries). */
    stats::Histogram miss_service{64, 4};
    /** Per bus transaction: phase start -> requestComplete, cycles. */
    stats::Histogram bus_wait{64, 4};
    /** NACKs + kill-restarts absorbed by one miss (L-interrupts). */
    stats::Histogram miss_retries{16, 1};
    /** Lock word: first failed attempt -> successful RMW, cycles. */
    stats::Histogram lock_acquire{64, 8};
    /** Lock word: release -> next successful RMW, cycles. */
    stats::Histogram lock_handoff{64, 8};
    /**
     * Cycles between consecutive CPU writes to the same resident
     * block — the quantity RWB's k-consecutive-writes rule bets on.
     */
    stats::Histogram write_gap{64, 4};
    /** Home node: request grant -> completion, cycles (with NACKs). */
    stats::Histogram home_service{64, 4};
    /** Sharer invalidations acknowledged per write-like grant. */
    stats::Histogram acks_per_inval{16, 1};
    /** Directory blocks held fabric-wide at each sample point. */
    stats::Histogram dir_occupancy{64, 64};
};

} // namespace obs
} // namespace ddc

#endif // DDC_OBS_METRICS_HH
