/**
 * @file
 * The global cycle counter shared by every component of one System.
 *
 * Per the paper's timing assumptions (Section 2, assumption 5) the bus,
 * cache, and PE cycles are unified: one Clock tick is one *potential*
 * bus cycle — a cycle in which at most one bus transaction may begin
 * and every non-stalled PE executes one instruction.  The run loops
 * are free to advance `now` across a whole quiescent interval at once
 * (next-event time advance, see System::run); components must never
 * assume consecutive observations of `now` differ by exactly one.
 */

#ifndef DDC_SIM_CLOCK_HH
#define DDC_SIM_CLOCK_HH

#include "base/types.hh"

namespace ddc {

/** Shared simulation clock. */
struct Clock
{
    Cycle now = 0;
};

/**
 * Sentinel next-event cycle of a component that cannot change state on
 * its own: it only becomes runnable again through another component's
 * action (a client arming its request slot).
 */
inline constexpr Cycle kNever = ~Cycle{0};

} // namespace ddc

#endif // DDC_SIM_CLOCK_HH
