#include "sim/arbiter.hh"

#include "base/logging.hh"

namespace ddc {

std::string_view
toString(ArbiterKind kind)
{
    switch (kind) {
      case ArbiterKind::RoundRobin:    return "RoundRobin";
      case ArbiterKind::FixedPriority: return "FixedPriority";
      case ArbiterKind::Random:        return "Random";
    }
    return "?";
}

int
ClientMask::nth(std::size_t n) const
{
    for (std::size_t w = 0; w < words.size(); w++) {
        std::uint64_t bits = words[w];
        auto in_word = static_cast<std::size_t>(std::popcount(bits));
        if (n >= in_word) {
            n -= in_word;
            continue;
        }
        for (; n > 0; n--)
            bits &= bits - 1;
        return static_cast<int>(w * 64) + std::countr_zero(bits);
    }
    ddc_panic("client mask has no member ", n);
}

std::size_t
ClientMask::countBelow(int client) const
{
    auto limit = static_cast<std::size_t>(client);
    std::size_t total = 0;
    for (std::size_t w = 0; w < words.size() && w * 64 < limit; w++) {
        std::uint64_t bits = words[w];
        if (limit < (w + 1) * 64)
            bits &= (std::uint64_t{1} << (limit % 64)) - 1;
        total += static_cast<std::size_t>(std::popcount(bits));
    }
    return total;
}

bool
ClientMask::subsetOf(const ClientMask &other) const
{
    for (std::size_t w = 0; w < words.size(); w++) {
        std::uint64_t theirs = w < other.numWords() ? other.word(w) : 0;
        if (words[w] & ~theirs)
            return false;
    }
    return true;
}

namespace {

/**
 * Walk the members of @p ready in [@p lo, @p hi) upward, adding to
 * @p run each one that is in @p repeaters; true when a member outside
 * @p repeaters ends the walk.
 */
bool
walkRepeaters(const ClientMask &ready, const ClientMask &repeaters,
              std::size_t lo, std::size_t hi, std::uint64_t &run)
{
    for (std::size_t w = lo / 64; w < ready.numWords() && w * 64 < hi;
         w++) {
        std::uint64_t bits = ready.word(w);
        if (w == lo / 64)
            bits &= ~std::uint64_t{0} << (lo % 64);
        if (hi < (w + 1) * 64)
            bits &= (std::uint64_t{1} << (hi % 64)) - 1;
        std::uint64_t others =
            bits & ~(w < repeaters.numWords() ? repeaters.word(w) : 0);
        if (others != 0) {
            run += static_cast<std::uint64_t>(
                std::popcount(bits & ((others & -others) - 1)));
            return true;
        }
        run += static_cast<std::uint64_t>(std::popcount(bits));
    }
    return false;
}

/** Rotating-priority arbitration; guarantees progress for every client. */
class RoundRobinArbiter : public Arbiter
{
  public:
    int
    pick(const ClientMask &requesters) override
    {
        // Grant the smallest index strictly greater than the previous
        // grant, wrapping around.
        int grant = requesters.nextAfter(last);
        if (grant < 0)
            grant = requesters.first();
        ddc_assert(grant >= 0, "arbiter invoked with no requests");
        last = grant;
        return grant;
    }

    std::uint64_t
    repeatRun(const ClientMask &ready,
              const ClientMask &repeaters) const override
    {
        // The picks visit ready's members in rotation from the one
        // after the last grant: count them up to the first
        // non-repeater, above the last grant and then wrapped round.
        auto from = static_cast<std::size_t>(last + 1);
        std::uint64_t run = 0;
        if (walkRepeaters(ready, repeaters, from, ready.numWords() * 64,
                          run) ||
            walkRepeaters(ready, repeaters, 0, from, run))
            return run;
        return kUnbounded;
    }

    void
    advance(const ClientMask &ready, std::uint64_t count) override
    {
        if (count == 0)
            return;
        // The first pick is the member ranked just above the last
        // grant; the count-th is count - 1 ranks further round.
        std::uint64_t members = ready.count();
        std::uint64_t first = ready.countBelow(last + 1);
        last = ready.nth(static_cast<std::size_t>(
            (first + (count - 1) % members) % members));
    }

  private:
    int last = -1;
};

/** Lowest index always wins; can starve high-index clients. */
class FixedPriorityArbiter : public Arbiter
{
  public:
    int
    pick(const ClientMask &requesters) override
    {
        int grant = requesters.first();
        ddc_assert(grant >= 0, "arbiter invoked with no requests");
        return grant;
    }

    std::uint64_t
    repeatRun(const ClientMask &ready,
              const ClientMask &repeaters) const override
    {
        // Every pick goes to the lowest member.
        int first = ready.first();
        bool repeats = first >= 0 &&
                       static_cast<std::size_t>(first) / 64 <
                           repeaters.numWords() &&
                       repeaters.test(first);
        return repeats ? kUnbounded : 0;
    }

    void
    advance(const ClientMask &ready, std::uint64_t count) override
    {
        (void)ready;
        (void)count;
    }
};

/** Uniform random grant; starvation-free in expectation. */
class RandomArbiter : public Arbiter
{
  public:
    explicit RandomArbiter(std::uint64_t seed) : rng(seed) {}

    int
    pick(const ClientMask &requesters) override
    {
        std::size_t count = requesters.count();
        ddc_assert(count > 0, "arbiter invoked with no requests");
        return requesters.nth(rng.nextBelow(count));
    }

    std::uint64_t
    repeatRun(const ClientMask &ready,
              const ClientMask &repeaters) const override
    {
        // Which member a pick lands on is up to the RNG, so a run is
        // certain only when every member repeats.
        return ready.subsetOf(repeaters) ? kUnbounded : 0;
    }

    void
    advance(const ClientMask &ready, std::uint64_t count) override
    {
        // Replay the draws, so the RNG stream stays the baseline's.
        for (; count > 0; count--)
            pick(ready);
    }

  private:
    Rng rng;
};

} // namespace

std::unique_ptr<Arbiter>
makeArbiter(ArbiterKind kind, std::uint64_t seed)
{
    switch (kind) {
      case ArbiterKind::RoundRobin:
        return std::make_unique<RoundRobinArbiter>();
      case ArbiterKind::FixedPriority:
        return std::make_unique<FixedPriorityArbiter>();
      case ArbiterKind::Random:
        return std::make_unique<RandomArbiter>(seed);
    }
    ddc_panic("unhandled ArbiterKind");
}

} // namespace ddc
