/**
 * @file
 * Content-addressed result cache for `memoria serve`.
 *
 * Repeat traffic is the common case for a compile service, and the
 * pipeline is deterministic for a given (program, options) pair — so
 * finished responses are cached under a canonical key and replayed for
 * the cost of a hash lookup. Two cooperating mechanisms:
 *
 *  - a bounded LRU (entry count and byte budget) mapping the cache key
 *    to the response body, with `serve.cache.{hits,misses,evictions}`
 *    counters and `serve.cache.{entries,bytes}` gauges;
 *  - single-flight dedup: when N identical requests are in flight at
 *    once, one of them (the *leader*) computes while the rest
 *    (*followers*) block on the flight and are answered from the
 *    leader's published result (`serve.cache.inflight_joins`). A
 *    leader that fails or refuses to publish *abandons* the flight,
 *    which wakes exactly one follower to take over as the new leader —
 *    followers are never left hanging on a dead leader. A follower
 *    whose own deadline expires first detaches and computes alone.
 *
 * The key is a canonical-print hash: the program is parsed and
 * pretty-printed so formatting-only variants share an entry, and the
 * key material includes the request kind, the *effective* simulate/
 * rung options, and a digest of the server's model parameters and
 * cache geometries — so a snapshot written under one configuration is
 * never served under another.
 *
 * Thread-safe. Durability lives in serve/snapshot.hh: `entries()`
 * exports the LRU for snapshotting, `seed()` warm-starts it.
 */

#ifndef MEMORIA_SERVE_CACHE_HH
#define MEMORIA_SERVE_CACHE_HH

#include <array>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cachesim/cache.hh"
#include "model/params.hh"

namespace memoria {
namespace serve {

/** Result-cache bounds. */
struct CacheOptions
{
    /** Maximum cached responses (0 disables the cache). */
    size_t maxEntries = 512;

    /** Byte budget across keys + bodies. */
    size_t maxBytes = 32u << 20;
};

/** Point-in-time view for health/top and tests. */
struct ResultCacheStats
{
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t inflightJoins = 0;
    uint64_t evictions = 0;
    size_t entries = 0;
    size_t bytes = 0;
};

/**
 * The result-cache counters a shard reports under `cache` in its
 * `health` answer, in wire order. The front reads them off worker
 * heartbeats and mirrors their sums into `serve.cache.<name>` gauges.
 */
inline constexpr const char *kCacheCounterNames[] = {
    "hits",    "misses", "inflight_joins",    "evictions",
    "entries", "bytes",  "snapshot_rejected", "snapshot_loaded_entries"};

/** One value per kCacheCounterNames entry, in that order. */
using CacheCounters =
    std::array<uint64_t, std::size(kCacheCounterNames)>;

/**
 * Digest of the serve-side configuration a cached result depends on
 * (model parameters + simulated cache geometries). Folded into every
 * cache key and stamped into snapshot headers, so a configuration
 * change invalidates both transparently.
 */
std::string serveConfigDigest(const ModelParams &params,
                              const std::vector<CacheConfig> &configs);

/**
 * The cache key for one request: canonical-print hash of the program
 * (raw text when it does not parse — the Diag it will produce is
 * deterministic too) combined with the kind name, the effective
 * simulate flag and start rung, and `configDigest`.
 */
std::string resultCacheKey(const std::string &program,
                           const std::string &kindName, bool simulate,
                           int startRung,
                           const std::string &configDigest);

/** Bounded LRU + single-flight. All methods are thread-safe. */
class ResultCache
{
  public:
    explicit ResultCache(CacheOptions opts);

    ResultCache(const ResultCache &) = delete;
    ResultCache &operator=(const ResultCache &) = delete;

    /** How `begin()` classified the caller. */
    enum class Role
    {
        Hit,       ///< cached body returned, nothing to compute
        Leader,    ///< caller computes; must publish() or abandon()
        Follower,  ///< identical request in flight; call wait()
    };

    /** What a follower's wait() ended with. */
    enum class WaitOutcome
    {
        Value,     ///< leader published; ticket.body is the response
        Elected,   ///< leader abandoned; caller is the new leader
        TimedOut,  ///< own deadline expired; compute alone, no cache
    };

    struct Flight;

    /** One participation in the cache protocol. */
    struct Ticket
    {
        Role role = Role::Leader;
        std::string key;
        std::string body;  ///< valid for Hit and WaitOutcome::Value
        std::shared_ptr<Flight> flight;  ///< Leader/Follower only
    };

    /** Look up `key`; classify the caller (see Role). */
    Ticket begin(const std::string &key);

    /**
     * Leader: store `body` under the ticket's key and wake every
     * follower with it. Ends the flight.
     */
    void publish(const Ticket &t, const std::string &body);

    /**
     * Leader: give up without a cacheable result (timeout, contained
     * panic, breaker-degraded run). Wakes one follower to re-elect;
     * with no followers waiting the flight is dissolved.
     */
    void abandon(const Ticket &t);

    /**
     * Follower: block until the leader publishes (Value), the leader
     * abandons and this caller wins re-election (Elected — the ticket
     * becomes a Leader ticket), or `timeoutMs` expires (TimedOut).
     */
    WaitOutcome wait(Ticket &t, int64_t timeoutMs);

    /** Warm-start insert (snapshot load); no counters bumped. */
    void seed(const std::string &key, const std::string &body);

    /**
     * Evict LRU-order down to at most `maxEntries` entries and
     * `maxBytes` bytes (0 = leave that bound alone). The configured
     * bounds are untouched — this is a one-shot squeeze the memory
     * governor applies under RSS pressure; the cache regrows to its
     * configured bounds afterwards. Returns the entries evicted.
     */
    size_t shrinkTo(size_t maxEntries, size_t maxBytes);

    /** MRU-first copy of the LRU for snapshotting. */
    std::vector<std::pair<std::string, std::string>> entries() const;

    ResultCacheStats stats() const;

  private:
    struct Entry
    {
        std::string key;
        std::string body;
    };

    /** Insert/refresh under mu_; evicts past the bounds. */
    void insertLocked(const std::string &key, const std::string &body);
    void eraseFlightLocked(const std::string &key,
                           const std::shared_ptr<Flight> &flight);
    void publishGauges() const;

    CacheOptions opts_;

    mutable std::mutex mu_;
    std::list<Entry> lru_;  ///< front = most recent
    std::unordered_map<std::string, std::list<Entry>::iterator> index_;
    std::unordered_map<std::string, std::shared_ptr<Flight>> inflight_;
    size_t bytes_ = 0;
    uint64_t hits_ = 0, misses_ = 0, joins_ = 0, evictions_ = 0;
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_CACHE_HH
