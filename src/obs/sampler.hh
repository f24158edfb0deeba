/**
 * @file
 * Time-series counter sampling (--sample-every=N): snapshots
 * registered columns every N cycles so benches can separate warm-up
 * from steady state.  Columns are registered once at System
 * construction; sampling reads them through stored callbacks, so the
 * run loop's disabled path is a single null-pointer test.
 */

#ifndef DDC_OBS_SAMPLER_HH
#define DDC_OBS_SAMPLER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/types.hh"

namespace ddc {
namespace obs {

/** One recorded sample row: cycle + the value of every column. */
struct SampleRow
{
    Cycle cycle = 0;
    std::vector<std::uint64_t> values;
};

/** The collected series: column names plus rows, oldest first. */
struct SampleSeries
{
    Cycle interval = 0;
    std::vector<std::string> columns;
    std::vector<SampleRow> rows;

    bool empty() const { return rows.empty(); }
};

/**
 * Snapshots cumulative counters on a fixed cycle interval.
 *
 * Values are cumulative (as the underlying counters are); consumers
 * difference adjacent rows to get per-interval rates, which keeps
 * sampling itself allocation-light and cheap.
 */
class CounterSampler
{
  public:
    /** Reads one value at the sample cycle it is passed. */
    using Column = std::function<std::uint64_t(Cycle)>;

    explicit CounterSampler(Cycle interval) : every(interval) {}

    /** Register a column; call only before the run starts. */
    void
    addColumn(std::string name, Column read)
    {
        names.push_back(std::move(name));
        readers.push_back(std::move(read));
    }

    Cycle interval() const { return every; }

    /** True when @p now has reached the next sampling point. */
    bool due(Cycle now) const { return every > 0 && now >= next; }

    /**
     * The next scheduled sample cycle.  The kernel clamps quiescent
     * skips to this bound so rows land exactly on the sampling grid.
     */
    Cycle nextAt() const { return next; }

    /**
     * Record one row at @p now and schedule the next sample.  Safe
     * to call after a quiescent skip jumped past several points: one
     * row is recorded and the schedule realigns to the grid.
     */
    void
    sample(Cycle now)
    {
        SampleRow row;
        row.cycle = now;
        row.values.reserve(readers.size());
        for (const Column &read : readers)
            row.values.push_back(read(now));
        recorded.rows.push_back(std::move(row));
        next = (now / every + 1) * every;
    }

    /** The series collected so far (columns + rows). */
    const SampleSeries &
    series()
    {
        recorded.interval = every;
        recorded.columns = names;
        return recorded;
    }

  private:
    Cycle every;
    Cycle next = 0;
    std::vector<std::string> names;
    std::vector<Column> readers;
    SampleSeries recorded;
};

} // namespace obs
} // namespace ddc

#endif // DDC_OBS_SAMPLER_HH
