/**
 * @file
 * Figure 3-1 reproduction: the RB scheme's per-line state transition
 * diagram, printed as a transition table generated from the shipped
 * protocol object (so the table cannot drift from the code).
 */

#include "bench_common.hh"

#include <iostream>
#include <sstream>

#include "core/rb.hh"
#include "stats/table.hh"
#include "verify/product_machine.hh"

namespace {

using namespace ddc;

/** Render a CPU-side transition row. */
std::string
cpuEffect(const RbProtocol &rb, LineState state, CpuOp op)
{
    auto reaction = rb.onCpuAccess(state, op, DataClass::Shared);
    if (!reaction.needs_bus)
        return std::string(toString(reaction.next)) + " (in cache)";
    std::string bus{toString(reaction.bus_op)};
    LineState next = rb.afterBusOp(state, reaction.bus_op, true);
    return std::string(toString(next)) + " (" + bus + ")";
}

/** Render a snoop-side transition row. */
std::string
snoopEffect(const RbProtocol &rb, LineState state, BusOp op)
{
    auto reaction = rb.onSnoop(state, op);
    if (reaction.supply)
        return "interrupt BR, supply data, -> R";
    std::string result{toString(reaction.next)};
    if (reaction.snarf)
        result += " (snarf data)";
    return result;
}

/** Build the whole Figure 3-1 reproduction as one custom point. */
exp::RunResult
measure()
{
    using stats::Table;
    RbProtocol rb;
    std::ostringstream os;

    os <<
        "Figure 3-1: state transition diagram for each cache entry,\n"
        "RB scheme (generated from the implementation)\n"
        "Legend: CW/CR = CPU write/read, BW/BR = bus write/read;\n"
        "modifiers: 1 = generate BW (write through), 2 = interrupt BR\n"
        "and supply data, 3 = generate BR (cache miss)\n\n";

    const LineState states[] = {{LineTag::Invalid, 0},
                                {LineTag::Readable, 0},
                                {LineTag::Local, 0},
                                {LineTag::NotPresent, 0}};

    Table table;
    table.setHeader({"State", "CR (CPU read)", "CW (CPU write)",
                     "BR (bus read)", "BW (bus write)"});
    for (auto state : states) {
        table.addRow({std::string(toString(state)),
                      cpuEffect(rb, state, CpuOp::Read),
                      cpuEffect(rb, state, CpuOp::Write),
                      snoopEffect(rb, state, BusOp::Read),
                      snoopEffect(rb, state, BusOp::Write)});
    }
    os << table.render() << "\n";
    os <<
        "Paper edges covered: I--CR/3-->R, I--CW/1-->L, I--BR-->R(snarf),\n"
        "I--BW-->I, R--CR-->R, R--CW/1-->L, R--BR-->R, R--BW-->I,\n"
        "L--CR-->L, L--CW-->L, L--BR/2-->R (interrupt + supply),\n"
        "L--BW-->I.  Every edge is also unit-tested in\n"
        "tests/protocol_rb_test.cc and model-checked exhaustively in\n"
        "tests/product_machine_test.cc.\n\n";

    // The Section 4 lemma, made visible: enumerate every reachable
    // 3-cache configuration of this exact implementation.
    auto check = checkProductMachine(rb, 3);
    os << "Section 4 lemma check (3 caches, exhaustive: "
       << check.states_explored << " states): "
       << (check.ok ? "PASS" : "FAIL") << "\n"
       << "Reachable configurations (sorted tag multisets):\n";
    for (const auto &config : check.configurations)
        os << "  [" << config << "]\n";
    os <<
        "Every configuration is local-type (one L, rest dead) or\n"
        "shared-type (only R/I/NP) - exactly the lemma.\n\n";

    exp::RunResult result;
    result.rendered = os.str();
    result.setMetric("states_explored",
                     static_cast<double>(check.states_explored));
    result.setMetric("lemma_ok", check.ok ? 1.0 : 0.0);
    return result;
}

void
printReproduction(exp::Session &session)
{
    exp::Experiment spec("fig_3_1_rb_transitions",
                         "Figure 3-1: RB transition table and Section 4 "
                         "lemma check, generated from the code");
    spec.addCustom({{"scheme", "RB"}}, measure);
    const auto &results = session.run(spec);
    std::cout << results[0].rendered;
}

} // namespace

DDC_BENCH_MAIN(printReproduction)
