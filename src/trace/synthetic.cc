#include "trace/synthetic.hh"

#include "base/logging.hh"

namespace ddc {

namespace {

/** Private regions are 1 MiW apart; shared lives above all of them. */
constexpr Addr kPeRegionBytes = Addr{1} << 20;
constexpr Addr kLocalOffset = Addr{1} << 16;
constexpr Addr kSharedRegion = Addr{1} << 40;

/** Next deterministic data value: 1, 2, 3, ... (wraps well below the
 *  reserved invalidate encoding). */
Word
nextValue(Word &counter)
{
    counter = counter % (kMaxDataValue / 2) + 1;
    return counter;
}

/** @p n as a size; a negative count generates nothing. */
std::size_t
countOf(std::int64_t n)
{
    return n > 0 ? static_cast<std::size_t>(n) : 0;
}

} // namespace

Addr
codeBase(PeId pe)
{
    return static_cast<Addr>(pe) * kPeRegionBytes;
}

Addr
localBase(PeId pe)
{
    return static_cast<Addr>(pe) * kPeRegionBytes + kLocalOffset;
}

Addr
sharedBase()
{
    return kSharedRegion;
}

CmStarAppParams
cmStarApplicationA()
{
    CmStarAppParams params;
    params.local_write_fraction = 0.08;
    params.shared_fraction = 0.05;
    return params;
}

CmStarAppParams
cmStarApplicationB()
{
    CmStarAppParams params;
    params.local_write_fraction = 0.067;
    params.shared_fraction = 0.10;
    return params;
}

Trace
makeCmStarTrace(const CmStarAppParams &params, int num_pes,
                std::size_t refs_per_pe, std::uint64_t seed)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    ddc_assert(params.local_write_fraction + params.shared_fraction < 1.0,
               "reference-mix fractions exceed 1");

    Trace trace(num_pes);
    Rng rng(seed);
    Word value_counter = 0;

    // Three-tier working-set sampler: contiguous hot / mid / cold
    // regions, so a cache at least as large as a tier holds it without
    // conflict misses (the knee of the Table 1-1 curve).
    auto tiered = [&](std::uint64_t hot, std::uint64_t mid,
                      std::uint64_t footprint, Addr rotation) {
        double pick = rng.nextDouble();
        std::uint64_t offset;
        if (pick < params.hot_fraction) {
            offset = rng.nextBelow(hot);
        } else if (pick < params.hot_fraction + params.mid_fraction) {
            offset = hot + rng.nextBelow(mid);
        } else {
            offset = rng.nextBelow(footprint);
        }
        return (offset + rotation) % footprint;
    };

    for (PeId pe = 0; pe < num_pes; pe++) {
        trace.reserve(pe, refs_per_pe);
        // Per-PE rotation decorrelates the PEs' hot addresses so they
        // do not all conflict-map to the same cache lines.
        Addr code_rot = rng.nextBelow(params.code_footprint);
        Addr local_rot = rng.nextBelow(params.local_footprint);
        double repeat_p = params.burst_length <= 1.0
                              ? 0.0 : 1.0 - 1.0 / params.burst_length;
        Addr code_last = codeBase(pe);
        Addr local_last = localBase(pe);
        auto code_addr = [&] {
            if (!rng.chance(repeat_p)) {
                code_last = codeBase(pe) +
                            tiered(params.code_hot_words,
                                   params.code_mid_words,
                                   params.code_footprint, code_rot);
            }
            return code_last;
        };
        auto local_addr = [&] {
            if (!rng.chance(repeat_p)) {
                local_last = localBase(pe) +
                             tiered(params.local_hot_words,
                                    params.local_mid_words,
                                    params.local_footprint, local_rot);
            }
            return local_last;
        };
        for (std::size_t i = 0; i < refs_per_pe; i++) {
            MemRef ref;
            double pick = rng.nextDouble();
            if (pick < params.local_write_fraction) {
                ref.op = CpuOp::Write;
                ref.cls = DataClass::Local;
                ref.addr = local_addr();
                ref.data = nextValue(value_counter);
            } else if (pick <
                       params.local_write_fraction + params.shared_fraction) {
                ref.cls = DataClass::Shared;
                ref.addr = sharedBase() +
                           rng.nextBelow(params.shared_footprint);
                if (rng.chance(params.shared_read_fraction)) {
                    ref.op = CpuOp::Read;
                } else {
                    ref.op = CpuOp::Write;
                    ref.data = nextValue(value_counter);
                }
            } else if (rng.chance(params.code_fraction)) {
                ref.op = CpuOp::Read;
                ref.cls = DataClass::Code;
                ref.addr = code_addr();
            } else {
                ref.op = CpuOp::Read;
                ref.cls = DataClass::Local;
                ref.addr = local_addr();
            }
            trace.append(pe, ref);
        }
    }
    return trace;
}

Trace
makeUniformRandomTrace(int num_pes, std::size_t refs_per_pe,
                       std::uint64_t footprint, double write_fraction,
                       double ts_fraction, std::uint64_t seed)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    ddc_assert(footprint > 0, "need a positive footprint");
    ddc_assert(write_fraction + ts_fraction <= 1.0,
               "op-mix fractions exceed 1");

    Trace trace(num_pes);
    Rng rng(seed);
    Word value_counter = 0;

    for (PeId pe = 0; pe < num_pes; pe++) {
        trace.reserve(pe, refs_per_pe);
        for (std::size_t i = 0; i < refs_per_pe; i++) {
            MemRef ref;
            ref.cls = DataClass::Shared;
            ref.addr = sharedBase() + rng.nextBelow(footprint);
            double pick = rng.nextDouble();
            if (pick < write_fraction) {
                ref.op = CpuOp::Write;
                ref.data = nextValue(value_counter);
            } else if (pick < write_fraction + ts_fraction) {
                ref.op = CpuOp::TestAndSet;
                ref.data = nextValue(value_counter);
            } else {
                ref.op = CpuOp::Read;
            }
            trace.append(pe, ref);
        }
    }
    return trace;
}

Trace
makeArrayInitTrace(int num_pes, std::uint64_t elements_per_pe)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    Trace trace(num_pes);
    Word value_counter = 0;
    for (PeId pe = 0; pe < num_pes; pe++) {
        Addr base = sharedBase() +
                    static_cast<Addr>(pe) * elements_per_pe;
        trace.reserve(pe, elements_per_pe);
        for (std::uint64_t i = 0; i < elements_per_pe; i++) {
            MemRef ref;
            ref.op = CpuOp::Write;
            ref.cls = DataClass::Shared;
            ref.addr = base + i;
            ref.data = nextValue(value_counter);
            trace.append(pe, ref);
        }
    }
    return trace;
}

Trace
makeProducerConsumerTrace(int num_pes, std::uint64_t buffer_words,
                          int rounds, int reads_per_round)
{
    ddc_assert(num_pes >= 2, "producer/consumer needs >= 2 PEs");
    Trace trace(num_pes);
    trace.reserve(0, countOf(rounds) * buffer_words);
    for (PeId pe = 1; pe < num_pes; pe++) {
        trace.reserve(pe, countOf(rounds) * countOf(reads_per_round) *
                              buffer_words);
    }
    Word value_counter = 0;
    for (int round = 0; round < rounds; round++) {
        for (std::uint64_t w = 0; w < buffer_words; w++) {
            MemRef ref;
            ref.op = CpuOp::Write;
            ref.cls = DataClass::Shared;
            ref.addr = sharedBase() + w;
            ref.data = nextValue(value_counter);
            trace.append(0, ref);
        }
        for (PeId pe = 1; pe < num_pes; pe++) {
            for (int r = 0; r < reads_per_round; r++) {
                for (std::uint64_t w = 0; w < buffer_words; w++) {
                    MemRef ref;
                    ref.op = CpuOp::Read;
                    ref.cls = DataClass::Shared;
                    ref.addr = sharedBase() + w;
                    trace.append(pe, ref);
                }
            }
        }
    }
    return trace;
}

Trace
makeMigratoryTrace(int num_pes, std::uint64_t record_words, int rounds)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    Trace trace(num_pes);
    for (PeId pe = 0; pe < num_pes; pe++)
        trace.reserve(pe, countOf(rounds) * record_words * 2);
    Word value_counter = 0;
    for (int round = 0; round < rounds; round++) {
        for (PeId pe = 0; pe < num_pes; pe++) {
            for (std::uint64_t w = 0; w < record_words; w++) {
                MemRef read;
                read.op = CpuOp::Read;
                read.cls = DataClass::Shared;
                read.addr = sharedBase() + w;
                trace.append(pe, read);

                MemRef write = read;
                write.op = CpuOp::Write;
                write.data = nextValue(value_counter);
                trace.append(pe, write);
            }
        }
    }
    return trace;
}

Trace
makeSequentialWalkTrace(int num_pes, std::uint64_t words, int passes,
                        int write_every)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    ddc_assert(words > 0, "need a non-empty region");
    Trace trace(num_pes);
    Word value_counter = 0;
    for (PeId pe = 0; pe < num_pes; pe++) {
        trace.reserve(pe, countOf(passes) * words);
        int count = 0;
        for (int pass = 0; pass < passes; pass++) {
            for (std::uint64_t w = 0; w < words; w++) {
                MemRef ref;
                ref.addr = localBase(pe) + w;
                ref.cls = DataClass::Local;
                count++;
                if (write_every > 0 && count % write_every == 0) {
                    ref.op = CpuOp::Write;
                    ref.data = nextValue(value_counter);
                } else {
                    ref.op = CpuOp::Read;
                }
                trace.append(pe, ref);
            }
        }
    }
    return trace;
}

Trace
makeFalseSharingTrace(int num_pes, int rounds)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    Trace trace(num_pes);
    Word value_counter = 0;
    for (PeId pe = 0; pe < num_pes; pe++) {
        Addr addr = sharedBase() + static_cast<Addr>(pe);
        trace.reserve(pe, countOf(rounds) * 2);
        for (int round = 0; round < rounds; round++) {
            MemRef write;
            write.op = CpuOp::Write;
            write.cls = DataClass::Shared;
            write.addr = addr;
            write.data = nextValue(value_counter);
            trace.append(pe, write);

            MemRef read = write;
            read.op = CpuOp::Read;
            read.data = 0;
            trace.append(pe, read);
        }
    }
    return trace;
}

Trace
makeClusteredTrace(int num_clusters, int pes_per_cluster,
                   std::size_t refs_per_pe,
                   double cluster_local_fraction, double write_fraction,
                   std::uint64_t seed)
{
    // Cluster c's region starts c * 1024 words above sharedBase() and
    // the global region 2^20 words above it: a 1025th cluster's region
    // would be the global one.
    ddc_assert(num_clusters > 0 && pes_per_cluster > 0,
               "need at least one cluster and one PE per cluster");
    ddc_assert(num_clusters <= 1024,
               "makeClusteredTrace supports at most 1024 clusters, got ",
               num_clusters);
    const std::uint64_t region_words = 24;
    int num_pes = num_clusters * pes_per_cluster;
    Trace trace(num_pes);
    Rng rng(seed);
    Word value_counter = 0;

    Addr global_region = sharedBase() + (Addr{1} << 20);
    for (PeId pe = 0; pe < num_pes; pe++) {
        int cluster = pe / pes_per_cluster;
        Addr cluster_region = sharedBase() +
                              static_cast<Addr>(cluster) * 1024;
        trace.reserve(pe, refs_per_pe);
        for (std::size_t i = 0; i < refs_per_pe; i++) {
            MemRef ref;
            ref.cls = DataClass::Shared;
            Addr base = rng.chance(cluster_local_fraction)
                            ? cluster_region : global_region;
            ref.addr = base + rng.nextBelow(region_words);
            if (rng.chance(write_fraction)) {
                ref.op = CpuOp::Write;
                ref.data = nextValue(value_counter);
            } else {
                ref.op = CpuOp::Read;
            }
            trace.append(pe, ref);
        }
    }
    return trace;
}

Trace
makeHotSpotTrace(int num_pes, int attempts, int spins)
{
    ddc_assert(num_pes > 0, "need at least one PE");
    Trace trace(num_pes);
    const Addr lock = sharedBase();
    for (PeId pe = 0; pe < num_pes; pe++) {
        trace.reserve(pe, countOf(attempts) * (countOf(spins) + 1));
        for (int a = 0; a < attempts; a++) {
            for (int s = 0; s < spins; s++) {
                MemRef spin;
                spin.op = CpuOp::Read;
                spin.cls = DataClass::Shared;
                spin.addr = lock;
                trace.append(pe, spin);
            }
            MemRef ts;
            ts.op = CpuOp::TestAndSet;
            ts.cls = DataClass::Shared;
            ts.addr = lock;
            ts.data = 1;
            trace.append(pe, ts);
        }
    }
    return trace;
}

} // namespace ddc
