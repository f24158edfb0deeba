/**
 * @file
 * Bus arbitration policies (the paper's assumption 2: "There is a bus
 * arbitrator that allocates access to the bus").
 */

#ifndef DDC_SIM_ARBITER_HH
#define DDC_SIM_ARBITER_HH

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "trace/rng.hh"

namespace ddc {

/**
 * A set of client indices as a word bitset: bit i of word i / 64 is
 * client i, so walking set bits upward visits clients in ascending
 * order.  Sized once (resize) and reused every cycle without
 * allocating.
 */
class ClientMask
{
  public:
    ClientMask() = default;

    /** The set holding exactly @p members (sized to the largest). */
    ClientMask(std::initializer_list<int> members)
    {
        for (int client : members) {
            resize(static_cast<std::size_t>(client) + 1);
            set(client);
        }
    }

    /** Make room for clients [0, @p clients); members are kept. */
    void
    resize(std::size_t clients)
    {
        std::size_t needed = (clients + 63) / 64;
        if (needed > words.size())
            words.resize(needed, 0);
    }

    std::size_t numWords() const { return words.size(); }
    std::uint64_t word(std::size_t w) const { return words[w]; }
    std::uint64_t &word(std::size_t w) { return words[w]; }

    bool
    test(int client) const
    {
        return (words[index(client)] >> (client & 63)) & 1;
    }

    void set(int client) { words[index(client)] |= bit(client); }
    void reset(int client) { words[index(client)] &= ~bit(client); }

    /** Remove every member (the size is kept). */
    void
    clear()
    {
        for (std::uint64_t &w : words)
            w = 0;
    }

    bool
    empty() const
    {
        for (std::uint64_t w : words) {
            if (w != 0)
                return false;
        }
        return true;
    }

    /** Number of members. */
    std::size_t
    count() const
    {
        std::size_t total = 0;
        for (std::uint64_t w : words)
            total += static_cast<std::size_t>(std::popcount(w));
        return total;
    }

    /** The lowest member above @p client (-1: the lowest), or -1. */
    int
    nextAfter(int client) const
    {
        std::size_t from = static_cast<std::size_t>(client + 1);
        for (std::size_t w = from / 64; w < words.size(); w++) {
            std::uint64_t bits = words[w];
            if (w == from / 64)
                bits &= ~std::uint64_t{0} << (from % 64);
            if (bits != 0)
                return static_cast<int>(w * 64) + std::countr_zero(bits);
        }
        return -1;
    }

    /** The lowest member, or -1 when empty. */
    int first() const { return nextAfter(-1); }

    /** The @p n-th lowest member (0-based; n < count()). */
    int nth(std::size_t n) const;

    /** Number of members below @p client (0 <= client). */
    std::size_t countBelow(int client) const;

    /** Whether every member is also a member of @p other. */
    bool subsetOf(const ClientMask &other) const;

    bool operator==(const ClientMask &other) const = default;

  private:
    static std::size_t
    index(int client)
    {
        return static_cast<std::size_t>(client) / 64;
    }

    static std::uint64_t
    bit(int client)
    {
        return std::uint64_t{1} << (client & 63);
    }

    std::vector<std::uint64_t> words;
};

/** Available arbitration policies. */
enum class ArbiterKind
{
    RoundRobin,    //!< rotating priority; starvation-free
    FixedPriority, //!< lowest requester index always wins
    Random,        //!< uniform random among requesters
};

/** Printable name of an ArbiterKind. */
std::string_view toString(ArbiterKind kind);

/** Picks which requester owns the bus this cycle. */
class Arbiter
{
  public:
    /** A run of picks with no end in sight (see repeatRun). */
    static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

    virtual ~Arbiter() = default;

    /**
     * Choose one member of @p requesters (non-empty).  Called once per
     * cycle with at least one requester.
     */
    virtual int pick(const ClientMask &requesters) = 0;

    /**
     * Bulk arbitration for a parked bus (DESIGN.md, "NACK-repeat
     * parking"): of the picks this arbiter would make next over the
     * unchanging, non-empty requester set @p ready, how many go to
     * members of @p repeaters before the first that goes to a
     * non-member.  kUnbounded when every pick would; 0 when the next
     * would not, or when the arbiter cannot tell, which declines the
     * park.  Side-effect free.
     */
    virtual std::uint64_t repeatRun(const ClientMask &ready,
                                    const ClientMask &repeaters) const = 0;

    /**
     * Leave the arbiter exactly as @p count consecutive pick(@p ready)
     * calls would; @p count is within the repeatRun() just granted.
     */
    virtual void advance(const ClientMask &ready, std::uint64_t count) = 0;
};

/**
 * Build an arbiter.
 * @param seed Used by ArbiterKind::Random only.
 */
std::unique_ptr<Arbiter> makeArbiter(ArbiterKind kind,
                                     std::uint64_t seed = 0);

} // namespace ddc

#endif // DDC_SIM_ARBITER_HH
