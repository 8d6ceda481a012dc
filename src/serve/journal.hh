/**
 * @file
 * Bounded write-ahead admission journal for the serve supervisor.
 *
 * Every work request the supervisor admits is appended as one JSONL
 * record *before* it is forwarded to a shard worker, and marked done
 * when its terminal response goes out. The journal is what makes the
 * crash-retry contract auditable: after a worker crash the set of
 * admitted-but-unanswered seqs is exactly the set of requests the
 * supervisor must either retry (idempotent kinds, once) or answer
 * with `serve.worker-crashed` — and after a drain the journal must
 * have no incomplete entries at all, which the chaos soak asserts by
 * reading the file back.
 *
 * Record shapes (one JSON object per line):
 *
 *   {"op":"admit","seq":N,"id":"...","kind":"analyze","shard":K,
 *    "replay":false,"line":"<raw request>"}
 *   {"op":"done","seq":N,"outcome":"ok|worker-crashed|cancelled|..."}
 *   {"op":"spawn"|"crash"|"retry", ...}        (worker lifecycle)
 *
 * Durability is batched: records are buffered through the kernel and
 * fsync'd every `syncEveryRecords` appends (and on demand at drain),
 * trading a bounded window of loss for not paying an fsync per
 * request. The file is bounded: whenever every admitted record is
 * done and the file exceeds `maxBytes`, it is truncated and restarted
 * — the journal is a window, not an archive.
 */

#ifndef MEMORIA_SERVE_JOURNAL_HH
#define MEMORIA_SERVE_JOURNAL_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "check/diag.hh"

namespace memoria {
namespace serve {

/** Journal bounds and durability knobs. */
struct JournalOptions
{
    /** Rotate (truncate) once all entries are done and the file
     *  exceeds this. */
    size_t maxBytes = 8u << 20;

    /** fsync after this many appended records (1 = every record). */
    int syncEveryRecords = 16;
};

/** One admitted-but-unanswered record, as read back from disk. */
struct JournalEntry
{
    uint64_t seq = 0;
    std::string id;
    std::string kind;
    int shard = -1;
    bool replay = false;
    std::string line;  ///< the raw request line, replayable as-is
};

/** Append-only JSONL journal. All methods are thread-safe. */
class Journal
{
  public:
    /** Open (create, truncate) the journal file; parent directories
     *  are created. Returns a Diag ("serve.journal") on failure. */
    static Result<std::unique_ptr<Journal>>
    open(const std::string &path, const JournalOptions &opts = {});

    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    /** Record an admission (write-ahead: call before forwarding). */
    void appendAdmit(uint64_t seq, const std::string &id,
                     const std::string &kind, int shard, bool replay,
                     const std::string &rawLine);

    /** Record the terminal response for `seq`. */
    void appendDone(uint64_t seq, const std::string &outcome);

    /** Record a worker lifecycle event (spawn/crash/retry/...). */
    void appendEvent(const std::string &op,
                     const std::vector<std::pair<std::string,
                                                 std::string>> &fields);

    /** fsync whatever is pending now (drain calls this). */
    void sync();

    /** Admitted records not yet marked done. */
    size_t depth() const;

    /** Bytes appended to the current file generation. */
    size_t bytes() const;

    const std::string &path() const { return path_; }

    /**
     * Read a journal file back and return the admitted entries that
     * never got a "done" — empty after a clean drain. Static so a
     * post-mortem (tests, the chaos soak) can inspect a dead server's
     * journal without a Journal instance.
     */
    static Result<std::vector<JournalEntry>>
    readIncomplete(const std::string &path);

  private:
    Journal(std::string path, int fd, JournalOptions opts);

    void appendLocked(const std::string &line);
    void maybeRotateLocked();

    std::string path_;
    JournalOptions opts_;

    mutable std::mutex mutex_;
    int fd_ = -1;
    size_t bytes_ = 0;
    int unsynced_ = 0;
    bool disabled_ = false;  ///< ENOSPC: journal off, service on

    std::map<uint64_t, bool> open_;  ///< admitted seqs awaiting done
};

} // namespace serve
} // namespace memoria

#endif // MEMORIA_SERVE_JOURNAL_HH
