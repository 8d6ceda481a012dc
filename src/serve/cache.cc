#include "serve/cache.hh"

#include <chrono>

#include "frontend/parser.hh"
#include "ir/printer.hh"
#include "support/hash.hh"
#include "support/stats.hh"

namespace memoria {
namespace serve {

namespace {

/** 128 bits of key: two differently-seeded FNV passes. Collisions
 *  would serve a wrong-but-well-formed response, so 64 bits is not
 *  enough headroom for a long-lived cache; 128 is. */
std::string
digest128(const std::string &material)
{
    return hex64(fnv1a64(material)) +
           hex64(fnv1a64(material, 0xcbf29ce484222325ull ^
                                       0x9e3779b97f4a7c15ull));
}

} // namespace

std::string
serveConfigDigest(const ModelParams &params,
                  const std::vector<CacheConfig> &configs)
{
    std::string m = "line_bytes=" + std::to_string(params.lineBytes) +
                    ";policy=" +
                    std::to_string(static_cast<int>(params.policy)) +
                    ";group_dist=" +
                    std::to_string(params.maxGroupDist) + ";caches=";
    for (const CacheConfig &c : configs) {
        m += c.name + ":" + std::to_string(c.sizeBytes) + ":" +
             std::to_string(c.associativity) + ":" +
             std::to_string(c.lineBytes) + ",";
    }
    return hex64(fnv1a64(m));
}

std::string
resultCacheKey(const std::string &program, const std::string &kindName,
               bool simulate, int startRung,
               const std::string &configDigest)
{
    // Canonical print: formatting-only variants of the same program
    // share an entry. Unparsable text keys on the raw bytes — it will
    // deterministically produce the same Diag either way.
    std::string canonical;
    ParseError perr;
    if (std::optional<Program> prog = parseProgram(program, &perr))
        canonical = printProgram(*prog);
    else
        canonical = program;

    std::string material = "kind=" + kindName +
                           ";sim=" + (simulate ? "1" : "0") +
                           ";rung=" + std::to_string(startRung) +
                           ";cfg=" + configDigest + ";program=" +
                           canonical;
    return digest128(material);
}

/**
 * One in-flight computation. The flight's own mutex orders the
 * leader-hand-off protocol; it is never held together with the cache
 * mutex (publish/abandon take them strictly one after the other), so
 * there is no lock-order cycle between flights and the LRU.
 */
struct ResultCache::Flight
{
    std::mutex m;
    std::condition_variable cv;
    bool done = false;       ///< leader published; body is valid
    bool hasLeader = true;   ///< false between abandon and re-election
    int waiters = 0;
    std::string body;
};

ResultCache::ResultCache(CacheOptions opts) : opts_(opts) {}

ResultCache::Ticket
ResultCache::begin(const std::string &key)
{
    Ticket t;
    t.key = key;
    std::lock_guard<std::mutex> lock(mu_);
    auto hit = index_.find(key);
    if (hit != index_.end()) {
        lru_.splice(lru_.begin(), lru_, hit->second);
        ++hits_;
        ++obs::counter("serve.cache.hits");
        t.role = Role::Hit;
        t.body = hit->second->body;
        return t;
    }
    auto fl = inflight_.find(key);
    if (fl != inflight_.end()) {
        ++joins_;
        ++obs::counter("serve.cache.inflight_joins");
        t.role = Role::Follower;
        t.flight = fl->second;
        return t;
    }
    ++misses_;
    ++obs::counter("serve.cache.misses");
    t.role = Role::Leader;
    t.flight = std::make_shared<Flight>();
    inflight_.emplace(key, t.flight);
    return t;
}

void
ResultCache::publish(const Ticket &t, const std::string &body)
{
    if (!t.flight)
        return;
    {
        std::lock_guard<std::mutex> lock(mu_);
        insertLocked(t.key, body);
        eraseFlightLocked(t.key, t.flight);
    }
    {
        std::lock_guard<std::mutex> fl(t.flight->m);
        t.flight->done = true;
        t.flight->body = body;
    }
    t.flight->cv.notify_all();
}

void
ResultCache::abandon(const Ticket &t)
{
    if (!t.flight)
        return;
    bool dissolve = false;
    {
        std::lock_guard<std::mutex> fl(t.flight->m);
        t.flight->hasLeader = false;
        dissolve = t.flight->waiters == 0;
    }
    if (dissolve) {
        // Nobody to re-elect: remove the flight so the next arrival
        // starts fresh. A follower whose begin() raced this sees
        // hasLeader == false on its detached flight and self-elects;
        // its eventual publish() then only fills the LRU.
        std::lock_guard<std::mutex> lock(mu_);
        eraseFlightLocked(t.key, t.flight);
    }
    t.flight->cv.notify_all();
}

ResultCache::WaitOutcome
ResultCache::wait(Ticket &t, int64_t timeoutMs)
{
    if (!t.flight)
        return WaitOutcome::TimedOut;
    std::shared_ptr<Flight> f = t.flight;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              timeoutMs > 0 ? timeoutMs : 1);
    std::unique_lock<std::mutex> fl(f->m);
    ++f->waiters;
    for (;;) {
        if (f->done) {
            --f->waiters;
            t.body = f->body;
            return WaitOutcome::Value;
        }
        if (!f->hasLeader) {
            // First waiter through here wins the re-election; the
            // rest go back to waiting on the new leader.
            f->hasLeader = true;
            --f->waiters;
            t.role = Role::Leader;
            return WaitOutcome::Elected;
        }
        if (f->cv.wait_until(fl, deadline) ==
            std::cv_status::timeout) {
            --f->waiters;
            return WaitOutcome::TimedOut;
        }
    }
}

void
ResultCache::seed(const std::string &key, const std::string &body)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (index_.count(key))
        return;
    insertLocked(key, body);
}

size_t
ResultCache::shrinkTo(size_t maxEntries, size_t maxBytes)
{
    std::lock_guard<std::mutex> lock(mu_);
    size_t evicted = 0;
    while (!lru_.empty() &&
           ((maxEntries > 0 && lru_.size() > maxEntries) ||
            (maxBytes > 0 && bytes_ > maxBytes))) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.key.size() + victim.body.size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++evictions_;
        ++evicted;
        ++obs::counter("serve.cache.evictions");
    }
    if (evicted > 0)
        publishGauges();
    return evicted;
}

std::vector<std::pair<std::string, std::string>>
ResultCache::entries() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(lru_.size());
    for (const Entry &e : lru_)
        out.emplace_back(e.key, e.body);
    return out;
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    ResultCacheStats s;
    s.hits = hits_;
    s.misses = misses_;
    s.inflightJoins = joins_;
    s.evictions = evictions_;
    s.entries = lru_.size();
    s.bytes = bytes_;
    return s;
}

void
ResultCache::insertLocked(const std::string &key,
                          const std::string &body)
{
    const size_t size = key.size() + body.size();
    // An entry that alone overflows the byte budget would evict the
    // whole cache and still not fit; skip it.
    if (opts_.maxEntries == 0 ||
        (opts_.maxBytes > 0 && size > opts_.maxBytes))
        return;
    auto it = index_.find(key);
    if (it != index_.end()) {
        bytes_ -= it->second->key.size() + it->second->body.size();
        it->second->body = body;
        bytes_ += size;
        lru_.splice(lru_.begin(), lru_, it->second);
    } else {
        lru_.push_front(Entry{key, body});
        index_[key] = lru_.begin();
        bytes_ += size;
    }
    while (!lru_.empty() &&
           (lru_.size() > opts_.maxEntries ||
            (opts_.maxBytes > 0 && bytes_ > opts_.maxBytes))) {
        const Entry &victim = lru_.back();
        bytes_ -= victim.key.size() + victim.body.size();
        index_.erase(victim.key);
        lru_.pop_back();
        ++evictions_;
        ++obs::counter("serve.cache.evictions");
    }
    publishGauges();
}

void
ResultCache::eraseFlightLocked(const std::string &key,
                               const std::shared_ptr<Flight> &flight)
{
    auto it = inflight_.find(key);
    // Pointer-compared: a detached flight's late publish must not
    // tear down an unrelated newer flight for the same key.
    if (it != inflight_.end() && it->second == flight)
        inflight_.erase(it);
}

void
ResultCache::publishGauges() const
{
    obs::gauge("serve.cache.entries")
        .set(static_cast<double>(lru_.size()));
    obs::gauge("serve.cache.bytes").set(static_cast<double>(bytes_));
}

} // namespace serve
} // namespace memoria
