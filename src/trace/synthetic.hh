/**
 * @file
 * Synthetic workload generators.
 *
 * The paper's evaluation rests on (a) the Cm* reference-mix data of
 * Table 1-1 (Raskin's traces, which no longer exist in machine-readable
 * form — we synthesize streams with the same mix and a locality model
 * whose read-miss ratio declines with cache size) and (b) archetypal
 * shared-data reference patterns the text calls out: array
 * initialization (Section 5), producer/consumer "written by one PE and
 * then read by others" cycles, migratory read-modify-write data, and
 * lock hot spots (Section 6).  Each generator below produces one of
 * those patterns as a deterministic multi-PE Trace.
 */

#ifndef DDC_TRACE_SYNTHETIC_HH
#define DDC_TRACE_SYNTHETIC_HH

#include <cstdint>

#include "trace/rng.hh"
#include "trace/trace.hh"

namespace ddc {

/**
 * Parameters of a Cm*-style application reference mix (Table 1-1).
 *
 * Fractions are of all references; the remainder after local writes and
 * shared references is split between code reads and local reads.
 * Address locality for code and local data follows a three-tier
 * working-set model (a tiny hot set, a mid-size loop working set, and
 * a cold uniform tail over the footprint), each tier a contiguous
 * region.  The tier sizes are calibrated so the Cm* policy's
 * read-miss ratio falls from the mid-20s% at a 256-word cache to
 * ~6% at 2048 words, the Table 1-1 curve.
 */
struct CmStarAppParams
{
    /** Fraction of references that are writes to local data. */
    double local_write_fraction = 0.08;
    /** Fraction of references that touch shared read/write data. */
    double shared_fraction = 0.05;
    /** Of the shared references, fraction that are reads. */
    double shared_read_fraction = 0.7;
    /** Of the remaining (read) references, fraction that fetch code. */
    double code_fraction = 0.75;
    /** Private footprint (words) for code, per PE. */
    std::uint64_t code_footprint = 32768;
    /** Private footprint (words) for local data, per PE. */
    std::uint64_t local_footprint = 8192;
    /** Shared footprint (words), common to all PEs. */
    std::uint64_t shared_footprint = 512;

    /** Innermost working set (words) for code / local data. */
    std::uint64_t code_hot_words = 128;
    std::uint64_t local_hot_words = 48;
    /** Loop working set (words) for code / local data. */
    std::uint64_t code_mid_words = 800;
    std::uint64_t local_mid_words = 260;
    /** Fraction of code/local references hitting the hot tier. */
    double hot_fraction = 0.66;
    /** Fraction hitting the mid tier (the rest is a cold tail). */
    double mid_fraction = 0.285;
    /**
     * Mean temporal burst length: consecutive references of one class
     * repeat the previous address with probability 1 - 1/burst_length
     * (real code re-references the same words in tight runs, which is
     * what makes one-word direct-mapped caches viable at all).
     */
    double burst_length = 1.9;
};

/** Table 1-1's "Application A" mix (8% local writes, 5% shared). */
CmStarAppParams cmStarApplicationA();

/** Table 1-1's "Application B" mix (6.7% local writes, 10% shared). */
CmStarAppParams cmStarApplicationB();

/**
 * Generate a Cm*-style mixed reference stream.
 *
 * @param params Reference-mix parameters.
 * @param num_pes Number of PE streams.
 * @param refs_per_pe References per PE.
 * @param seed RNG seed.
 */
Trace makeCmStarTrace(const CmStarAppParams &params, int num_pes,
                      std::size_t refs_per_pe, std::uint64_t seed);

/**
 * Uniform random reads/writes/test-and-sets over a small shared region;
 * the adversarial workload used by the consistency property tests.
 *
 * @param num_pes Number of PE streams.
 * @param refs_per_pe References per PE.
 * @param footprint Number of distinct shared words.
 * @param write_fraction Fraction of references that are writes.
 * @param ts_fraction Fraction of references that are test-and-sets.
 * @param seed RNG seed.
 */
Trace makeUniformRandomTrace(int num_pes, std::size_t refs_per_pe,
                             std::uint64_t footprint, double write_fraction,
                             double ts_fraction, std::uint64_t seed);

/**
 * Array initialization: each PE sweeps a disjoint region writing each
 * element exactly once (Section 5's motivating example: RB pays two bus
 * writes per element, RWB one).
 *
 * @param num_pes Number of PE streams.
 * @param elements_per_pe Words initialized by each PE.
 */
Trace makeArrayInitTrace(int num_pes, std::uint64_t elements_per_pe);

/**
 * Producer/consumer: each round, PE 0 writes @p buffer_words shared
 * words; every other PE then reads all of them @p reads_per_round
 * times.  This is the "written by some one PE and then read by others"
 * cyclic pattern of Section 5.
 */
Trace makeProducerConsumerTrace(int num_pes, std::uint64_t buffer_words,
                                int rounds, int reads_per_round);

/**
 * Migratory data: a single record of @p record_words is read and then
 * rewritten by each PE in turn for @p rounds laps.
 */
Trace makeMigratoryTrace(int num_pes, std::uint64_t record_words,
                         int rounds);

/**
 * Lock hot spot at trace level: every PE alternates @p spins reads of
 * one shared lock word with one TestAndSet attempt, for @p attempts
 * attempts (the Section 6 reference pattern without program control
 * flow; the sync layer provides the faithful program-driven version).
 */
Trace makeHotSpotTrace(int num_pes, int attempts, int spins);

/**
 * Sequential private walk: each PE streams read-mostly through its
 * own region in address order for @p passes passes (the
 * spatial-locality pattern that larger cache blocks reward).
 *
 * @param num_pes Number of PE streams.
 * @param words Region size per PE.
 * @param passes Sweeps over the region.
 * @param write_every Every n-th reference is a write (0 = reads only).
 */
Trace makeSequentialWalkTrace(int num_pes, std::uint64_t words, int passes,
                              int write_every = 0);

/**
 * False sharing: PE i repeatedly writes and reads word i of a single
 * contiguous shared array, so with multi-word blocks unrelated PEs
 * fight over the same block while with one-word blocks they never
 * interact — the paper's argument for assumption 7 ("There is no
 * reason to suspect that nearby address of shared variables will be
 * used by the same processor at the same time").
 *
 * @param num_pes Number of PE streams (PE i owns word i).
 * @param rounds Write+read rounds per PE.
 */
Trace makeFalseSharingTrace(int num_pes, int rounds);

/**
 * Clustered sharing: PEs are grouped in clusters; a fraction of each
 * PE's shared references target words shared only within its cluster,
 * the rest target globally shared words.  The workload behind the
 * hierarchical-machine experiment (Section 8): the higher the cluster
 * locality, the more traffic a cluster cache can keep off the global
 * bus.
 *
 * @param num_clusters Number of clusters, at most 1024 (cluster
 *        regions sit 1024 words apart below the global region).
 * @param pes_per_cluster PEs per cluster (streams are cluster-major).
 * @param refs_per_pe References per PE.
 * @param cluster_local_fraction Of the references, fraction aimed at
 *        this cluster's private shared region.
 * @param write_fraction Fraction of references that are writes.
 * @param seed RNG seed.
 */
Trace makeClusteredTrace(int num_clusters, int pes_per_cluster,
                         std::size_t refs_per_pe,
                         double cluster_local_fraction,
                         double write_fraction, std::uint64_t seed);

/** Base word address of PE @p pe's private code region. */
Addr codeBase(PeId pe);

/** Base word address of PE @p pe's private local-data region. */
Addr localBase(PeId pe);

/** Base word address of the shared region. */
Addr sharedBase();

} // namespace ddc

#endif // DDC_TRACE_SYNTHETIC_HH
