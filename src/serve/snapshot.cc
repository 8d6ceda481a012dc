#include "serve/snapshot.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "harness/fault.hh"
#include "support/fdio.hh"
#include "support/hash.hh"
#include "support/json.hh"
#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace serve {

namespace {

namespace fs = std::filesystem;

/**
 * Corrupts its own output when armed (Throw): tests and the chaos
 * soak use it to land a damaged-but-plausible snapshot on disk and
 * prove the loader rejects it and cold-starts instead of crashing.
 */
harness::FaultSite gCorruptSnapshotSite("serve.cache.corrupt-snapshot");

std::string
entryCrc(const std::string &key, const std::string &body)
{
    return hex64(fnv1a64(body, fnv1a64(key)));
}

Status
writeError(const std::string &path, const std::string &why, int err)
{
    const char *code =
        err == ENOSPC ? "serve.snapshot.enospc" : "serve.snapshot";
    return Status::err(
        Diag::error(code, "'" + path + "': " + why + ": " +
                              std::strerror(err)));
}

Result<std::vector<std::pair<std::string, std::string>>>
rejected(const std::string &path, const std::string &defect)
{
    ++obs::counter("serve.cache.snapshot_rejected");
    obs::traceEvent("serve", "snapshot_rejected",
                    {{"path", path}, {"defect", defect}});
    return Result<std::vector<std::pair<std::string, std::string>>>::
        err(Diag::error("serve.snapshot.rejected",
                        "'" + path + "': " + defect));
}

} // namespace

Status
writeCacheSnapshot(
    const std::string &path,
    const std::vector<std::pair<std::string, std::string>> &entries,
    int shard, const std::string &configDigest)
{
    fs::path p(path);
    if (p.has_parent_path()) {
        std::error_code ec;
        fs::create_directories(p.parent_path(), ec);
        // An unusable parent surfaces from ::open below.
    }

    std::ostringstream content;
    {
        json::Value h = json::Value::object();
        h.set("schema", json::Value::string("memoria.cache-snapshot"));
        h.set("version",
              json::Value::number(int64_t{kCacheSnapshotVersion}));
        h.set("shard", json::Value::number(int64_t{shard}));
        h.set("config", json::Value::string(configDigest));
        h.set("entries",
              json::Value::number(static_cast<int64_t>(entries.size())));
        content << h.dump() << "\n";
    }
    uint64_t running = kFnvBasis;
    for (const auto &[key, body] : entries) {
        std::string crc = entryCrc(key, body);
        running = fnv1a64(crc, running);
        json::Value e = json::Value::object();
        e.set("key", json::Value::string(key));
        e.set("body", json::Value::string(body));
        e.set("crc", json::Value::string(crc));
        content << e.dump() << "\n";
    }
    {
        json::Value f = json::Value::object();
        f.set("footer", json::Value::boolean(true));
        f.set("crc", json::Value::string(hex64(running)));
        content << f.dump() << "\n";
    }

    std::string data = content.str();
    // An armed corrupt-snapshot fault damages the bytes mid-file: the
    // header and line structure stay plausible, but an entry checksum
    // no longer matches — exactly the external-corruption shape the
    // loader must reject.
    try {
        gCorruptSnapshotSite.fireNoDiag();
    } catch (const harness::InjectedFault &) {
        if (!data.empty()) {
            size_t at = data.size() / 2;
            data[at] = data[at] == 'x' ? 'y' : 'x';
        }
        ++obs::counter("serve.cache.snapshot_corrupt_injected");
    }

    const std::string tmp = path + ".tmp";
    int fd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC
#ifdef O_CLOEXEC
                                     | O_CLOEXEC
#endif
                    ,
                    0644);
    if (fd < 0)
        return writeError(tmp, "open", errno);
    if (int err = writeAll(fd, data); err != 0) {
        ::close(fd);
        ::unlink(tmp.c_str());
        return writeError(tmp, "write", err);
    }
    if (fsyncRetry(fd) < 0) {
        int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        return writeError(tmp, "fsync", err);
    }
    ::close(fd);
    if (::rename(tmp.c_str(), path.c_str()) < 0) {
        int err = errno;
        ::unlink(tmp.c_str());
        return writeError(path, "rename", err);
    }
    // Durable name: fsync the directory so the rename itself survives
    // a power cut. Failure here is not worth failing the snapshot.
    if (p.has_parent_path()) {
        int dfd = ::open(p.parent_path().c_str(), O_RDONLY);
        if (dfd >= 0) {
            fsyncRetry(dfd);
            ::close(dfd);
        }
    }
    ++obs::counter("serve.cache.snapshot_writes");
    return Status();
}

Result<std::vector<std::pair<std::string, std::string>>>
readCacheSnapshot(const std::string &path,
                  const std::string &configDigest)
{
    std::ifstream in(path);
    if (!in)
        return rejected(path, "unreadable");

    std::string line;
    if (!std::getline(in, line))
        return rejected(path, "empty");
    Result<json::Value> header = json::parse(line);
    if (!header.ok() || !header.value().isObject())
        return rejected(path, "bad header");
    const json::Value &h = header.value();
    if (h.getString("schema") != "memoria.cache-snapshot")
        return rejected(path, "wrong schema");
    if (h.getInt("version", -1) != kCacheSnapshotVersion)
        return rejected(path,
                        "version mismatch (found " +
                            std::to_string(h.getInt("version", -1)) +
                            ", want " +
                            std::to_string(kCacheSnapshotVersion) + ")");
    if (h.getString("config") != configDigest)
        return rejected(path, "config digest mismatch");
    int64_t expected = h.getInt("entries", -1);
    if (expected < 0)
        return rejected(path, "bad header");

    std::vector<std::pair<std::string, std::string>> out;
    out.reserve(static_cast<size_t>(expected));
    uint64_t running = kFnvBasis;
    for (int64_t i = 0; i < expected; ++i) {
        if (!std::getline(in, line))
            return rejected(path, "truncated tail");
        Result<json::Value> entry = json::parse(line);
        if (!entry.ok() || !entry.value().isObject())
            return rejected(path, "torn entry line");
        const json::Value &e = entry.value();
        std::string key = e.getString("key");
        std::string body = e.getString("body");
        std::string crc = e.getString("crc");
        if (crc != entryCrc(key, body))
            return rejected(path, "entry checksum mismatch");
        running = fnv1a64(crc, running);
        out.emplace_back(std::move(key), std::move(body));
    }
    if (!std::getline(in, line))
        return rejected(path, "missing footer");
    Result<json::Value> footer = json::parse(line);
    if (!footer.ok() || !footer.value().getBool("footer", false))
        return rejected(path, "bad footer");
    if (footer.value().getString("crc") != hex64(running))
        return rejected(path, "footer checksum mismatch");
    return out;
}

} // namespace serve
} // namespace memoria
