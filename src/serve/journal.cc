#include "serve/journal.hh"

#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

#include "support/fdio.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

Diag
journalError(const std::string &path, const std::string &why)
{
    return Diag::error("serve.journal", "'" + path + "': " + why);
}

} // namespace

Result<std::unique_ptr<Journal>>
Journal::open(const std::string &path, const JournalOptions &opts)
{
    std::filesystem::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        std::filesystem::create_directories(p.parent_path(), ec);
        // bind failure surfaces below; create_directories errors on
        // e.g. an existing file in the way are caught by ::open.
    }
    int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC
#ifdef O_CLOEXEC
                                      | O_CLOEXEC
#endif
                    ,
                    0644);
    if (fd < 0) {
        return Result<std::unique_ptr<Journal>>::err(
            journalError(path, std::strerror(errno)));
    }
    return std::unique_ptr<Journal>(new Journal(path, fd, opts));
}

Journal::Journal(std::string path, int fd, JournalOptions opts)
    : path_(std::move(path)), opts_(opts), fd_(fd)
{
}

Journal::~Journal()
{
    if (fd_ >= 0) {
        fsyncRetry(fd_);
        ::close(fd_);
    }
}

void
Journal::appendLocked(const std::string &line)
{
    if (disabled_)
        return;
    std::string rec = line + "\n";
    const int err = writeAll(fd_, rec);
    if (err == ENOSPC) {
        // A full disk is a structured degradation: the journal goes
        // dark, the service keeps answering. Crash-retry auditing is
        // lost until restart; that is strictly better than taking the
        // worker down.
        disabled_ = true;
        ++obs::counter("serve.journal.disabled");
        obs::traceEvent("serve", "journal_disabled", {{"path", path_}});
        return;
    }
    if (err != 0) {
        // Any other journal write error must not take requests down
        // with it; count it and keep serving.
        ++obs::counter("serve.worker.journal_errors");
        return;
    }
    bytes_ += rec.size();
    if (opts_.syncEveryRecords > 0 &&
        ++unsynced_ >= opts_.syncEveryRecords) {
        fsyncRetry(fd_);
        unsynced_ = 0;
    }
}

void
Journal::maybeRotateLocked()
{
    if (opts_.maxBytes == 0 || bytes_ <= opts_.maxBytes ||
        !open_.empty())
        return;
    // Every admit is answered: the window can restart.
    if (::ftruncate(fd_, 0) == 0 &&
        ::lseek(fd_, 0, SEEK_SET) >= 0) {
        bytes_ = 0;
        unsynced_ = 0;
        ++obs::counter("serve.worker.journal_rotations");
    }
}

void
Journal::appendAdmit(uint64_t seq, const std::string &id,
                     const std::string &kind, int shard, bool replay,
                     const std::string &rawLine)
{
    json::Value r = json::Value::object();
    r.set("op", json::Value::string("admit"));
    r.set("seq", json::Value::number(static_cast<int64_t>(seq)));
    r.set("id", json::Value::string(id));
    r.set("kind", json::Value::string(kind));
    r.set("shard", json::Value::number(int64_t{shard}));
    r.set("replay", json::Value::boolean(replay));
    r.set("line", json::Value::string(rawLine));

    std::lock_guard<std::mutex> lock(mutex_);
    open_[seq] = true;
    appendLocked(r.dump());
    obs::gauge("serve.worker.journal_depth")
        .set(static_cast<double>(open_.size()));
}

void
Journal::appendDone(uint64_t seq, const std::string &outcome)
{
    json::Value r = json::Value::object();
    r.set("op", json::Value::string("done"));
    r.set("seq", json::Value::number(static_cast<int64_t>(seq)));
    r.set("outcome", json::Value::string(outcome));

    std::lock_guard<std::mutex> lock(mutex_);
    open_.erase(seq);
    appendLocked(r.dump());
    obs::gauge("serve.worker.journal_depth")
        .set(static_cast<double>(open_.size()));
    maybeRotateLocked();
}

void
Journal::appendEvent(
    const std::string &op,
    const std::vector<std::pair<std::string, std::string>> &fields)
{
    json::Value r = json::Value::object();
    r.set("op", json::Value::string(op));
    for (const auto &[k, v] : fields)
        r.set(k, json::Value::string(v));
    std::lock_guard<std::mutex> lock(mutex_);
    appendLocked(r.dump());
}

void
Journal::sync()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (unsynced_ > 0) {
        fsyncRetry(fd_);
        unsynced_ = 0;
    }
}

size_t
Journal::depth() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return open_.size();
}

size_t
Journal::bytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return bytes_;
}

Result<std::vector<JournalEntry>>
Journal::readIncomplete(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        return Result<std::vector<JournalEntry>>::err(
            journalError(path, "cannot open for reading"));
    }
    std::map<uint64_t, JournalEntry> open;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Result<json::Value> parsed = json::parse(line);
        if (!parsed.ok()) {
            // A torn final record (killed mid-append) is expected
            // after a hard crash; everything before it still counts.
            continue;
        }
        const json::Value &v = parsed.value();
        std::string op = v.getString("op");
        if (op == "admit") {
            JournalEntry e;
            e.seq = static_cast<uint64_t>(v.getInt("seq"));
            e.id = v.getString("id");
            e.kind = v.getString("kind");
            e.shard = static_cast<int>(v.getInt("shard", -1));
            e.replay = v.getBool("replay", false);
            e.line = v.getString("line");
            open[e.seq] = std::move(e);
        } else if (op == "done") {
            open.erase(static_cast<uint64_t>(v.getInt("seq")));
        }
    }
    std::vector<JournalEntry> out;
    out.reserve(open.size());
    for (auto &[seq, e] : open)
        out.push_back(std::move(e));
    return out;
}

} // namespace serve
} // namespace memoria
