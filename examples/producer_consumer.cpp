/**
 * @file
 * Producer/consumer cycles: "Many shared variables tend to be
 * referenced in the cyclical pattern: written by some one PE and then
 * read by others." (Section 5.)  One producer updates a buffer; every
 * other PE reads it repeatedly.  Compares all five schemes and breaks
 * the traffic down by transaction type.
 *
 *   ./producer_consumer
 */

#include <iostream>

#include "exp/runner.hh"
#include "stats/table.hh"
#include "trace/synthetic.hh"

using namespace ddc;

int
main()
{
    std::cout << "=== Producer/consumer: scheme comparison ===\n\n"
              << "4 PEs; PE0 rewrites a 16-word buffer each round; the\n"
              << "other three read the whole buffer twice per round;\n"
              << "16 rounds.\n\n";

    auto trace = makeProducerConsumerTrace(/*num_pes=*/4,
                                           /*buffer_words=*/16,
                                           /*rounds=*/16,
                                           /*reads_per_round=*/2);

    stats::Table table;
    table.setHeader({"scheme", "bus reads", "bus writes", "invalidates",
                     "total bus ops", "bus ops/ref", "cycles"});
    for (auto kind : allProtocolKinds()) {
        SystemConfig config;
        config.num_pes = 4;
        config.cache_lines = 256;
        config.protocol = kind;
        auto run = exp::executeTraceRun(
            {.config = config, .trace = trace, .check_consistency = true});
        if (!run.consistent) {
            std::cerr << "consistency violation under " << toString(kind)
                      << "\n";
            return 1;
        }
        table.addRow({std::string(toString(kind)),
                      std::to_string(run.counters.get("bus.read")),
                      std::to_string(run.counters.get("bus.write")),
                      std::to_string(
                          run.counters.get("bus.invalidate")),
                      std::to_string(run.bus_transactions),
                      stats::Table::num(run.metric("bus_per_ref"), 3),
                      std::to_string(run.cycles)});
    }
    std::cout << table.render() << "\n";

    std::cout
        << "Reading the table:\n"
        << "  - RWB: the producer's bus write *updates* the consumers'\n"
        << "    caches, so consumer reads are hits -- near-zero bus\n"
        << "    reads. 'the bus write ... simply broadcasts the new\n"
        << "    value to all interested caches.  Subsequent read\n"
        << "    references will cause no bus activity.' (Section 5)\n"
        << "  - RB: each producer write invalidates; the first consumer\n"
        << "    read per round refills every cache at once (read\n"
        << "    broadcast), so RB pays ~1 bus read per word per round.\n"
        << "  - WriteOnce has no read broadcast: every consumer pays\n"
        << "    its own refill. WriteThrough likewise. CmStar cannot\n"
        << "    cache shared data at all.\n";
    return 0;
}
