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

namespace {

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
