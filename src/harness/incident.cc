#include "harness/incident.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "frontend/parser.hh"
#include "ir/printer.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/stats.hh"
#include "support/trace.hh"
#include "support/version.hh"

namespace memoria {
namespace incident {

namespace {

namespace fs = std::filesystem;

/** Directory-name-safe rendering of a program name. */
std::string
sanitize(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                  c == '.';
        out.push_back(ok ? c : '-');
    }
    if (out.empty())
        out = "anon";
    // Bound the path component; long generated names add nothing.
    if (out.size() > 64)
        out.resize(64);
    return out;
}

bool
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << content;
    return static_cast<bool>(out);
}

} // namespace

std::string
diagCodeOf(const std::string &rendered)
{
    size_t end = 0;
    while (end < rendered.size() && rendered[end] != ':' &&
           rendered[end] != ' ')
        ++end;
    return rendered.substr(0, end);
}

FailureSignature
signatureOf(const harness::ProgramOutcome &out)
{
    FailureSignature sig;
    sig.status = out.status;
    if (out.status == harness::BatchStatus::Diag)
        sig.diagCode = diagCodeOf(out.diag);
    return sig;
}

bool
matchesSignature(const FailureSignature &sig,
                 const harness::ProgramOutcome &out)
{
    if (out.status != sig.status)
        return false;
    if (sig.status == harness::BatchStatus::Diag && !sig.diagCode.empty())
        return diagCodeOf(out.diag) == sig.diagCode;
    return true;
}

FailurePredicate
pipelineFailurePredicate(std::string name, harness::BatchOptions opts,
                         FailureSignature sig,
                         std::optional<harness::FaultSpec> fault)
{
    // Candidate runs need no source capture of their own.
    opts.captureSource = false;
    return [name = std::move(name), opts, sig,
            fault = std::move(fault)](const Program &p) -> bool {
        if (fault) {
            harness::FaultSpec spec = *fault;
            spec.program = name;
            harness::armFault(spec);
        }
        harness::BatchInput in{name, [&p]() -> Result<Program> {
                                   return Result<Program>(p.clone());
                               }};
        harness::ProgramOutcome out = harness::runIsolated(in, opts);
        return matchesSignature(sig, out);
    };
}

namespace {

/**
 * Keep only the newest `maxRetained` bundle directories under `root`,
 * deleting the rest oldest-first by modification time. Best-effort:
 * retention must never fail the bundle write that triggered it.
 */
void
pruneOldBundles(const fs::path &root, int maxRetained)
{
    if (maxRetained <= 0)
        return;
    std::error_code ec;
    std::vector<std::pair<fs::file_time_type, fs::path>> bundles;
    for (const fs::directory_entry &e :
         fs::directory_iterator(root, ec)) {
        if (ec)
            return;
        if (!e.is_directory(ec) || ec)
            continue;
        fs::file_time_type t = e.last_write_time(ec);
        if (ec)
            continue;
        bundles.emplace_back(t, e.path());
    }
    if (bundles.size() <= static_cast<size_t>(maxRetained))
        return;
    std::sort(bundles.begin(), bundles.end());
    size_t excess = bundles.size() - static_cast<size_t>(maxRetained);
    for (size_t i = 0; i < excess; ++i) {
        fs::remove_all(bundles[i].second, ec);
        if (!ec)
            ++obs::counter("incident.retention_pruned");
    }
}

} // namespace

Result<std::string>
writeBundle(const Incident &inc, const std::string &root,
            int maxRetained)
{
    auto ioErr = [](const std::string &what) {
        return Result<std::string>::err(
            Diag::error("incident.write", what));
    };

    std::error_code ec;
    fs::create_directories(root, ec);
    if (ec)
        return ioErr("cannot create '" + root + "': " + ec.message());

    std::string stem = sanitize(inc.name) + "-" + sanitize(inc.kind);
    fs::path dir = fs::path(root) / stem;
    for (int n = 2; fs::exists(dir) && n < 1000; ++n)
        dir = fs::path(root) / (stem + "-" + std::to_string(n));
    fs::create_directories(dir, ec);
    if (ec)
        return ioErr("cannot create '" + dir.string() + "': " +
                     ec.message());

    const BuildInfo &build = buildInfo();
    json::Value meta = json::Value::object();
    meta.set("schema", json::Value::string("memoria.incident.v1"));
    meta.set("name", json::Value::string(inc.name));
    meta.set("kind", json::Value::string(inc.kind));
    meta.set("detail", json::Value::string(inc.detail));
    if (inc.seed != 0)
        meta.set("seed",
                 json::Value::number(static_cast<int64_t>(inc.seed)));
    if (!inc.faultSpec.empty())
        meta.set("fault_spec", json::Value::string(inc.faultSpec));
    if (!inc.options.empty())
        meta.set("options", json::Value::string(inc.options));

    json::Value buildObj = json::Value::object();
    buildObj.set("version", json::Value::string(build.version));
    buildObj.set("git", json::Value::string(build.gitHash));
    buildObj.set("build_type", json::Value::string(build.buildType));
    buildObj.set("sanitizers", json::Value::boolean(build.sanitizers));
    meta.set("build", std::move(buildObj));

    json::Value red = json::Value::object();
    red.set("orig_nodes",
            json::Value::number(static_cast<int64_t>(inc.origNodes)));
    red.set("final_nodes",
            json::Value::number(static_cast<int64_t>(inc.finalNodes)));
    red.set("checks", json::Value::number(int64_t{inc.checks}));
    red.set("one_minimal", json::Value::boolean(inc.oneMinimal));
    red.set("reproduced", json::Value::boolean(inc.reproduced));
    meta.set("reduction", std::move(red));

    json::Value files = json::Value::object();
    files.set("original", json::Value::string("original.mem"));
    if (!inc.minimized.empty())
        files.set("minimized", json::Value::string("minimized.mem"));
    if (!inc.traceTail.empty())
        files.set("trace", json::Value::string("trace.jsonl"));
    meta.set("files", std::move(files));

    if (!writeFile(dir / "incident.json", meta.dump() + "\n"))
        return ioErr("cannot write incident.json in '" + dir.string() +
                     "'");
    if (!writeFile(dir / "original.mem", inc.source))
        return ioErr("cannot write original.mem in '" + dir.string() +
                     "'");
    if (!inc.minimized.empty() &&
        !writeFile(dir / "minimized.mem", inc.minimized))
        return ioErr("cannot write minimized.mem in '" + dir.string() +
                     "'");
    if (!inc.traceTail.empty()) {
        std::string tail;
        for (const std::string &line : inc.traceTail) {
            tail += line;
            tail += "\n";
        }
        if (!writeFile(dir / "trace.jsonl", tail))
            return ioErr("cannot write trace.jsonl in '" + dir.string() +
                         "'");
    }
    pruneOldBundles(root, maxRetained);
    return Result<std::string>(dir.string());
}

Result<std::string>
captureIncident(Incident inc, const Program &program,
                const FailurePredicate &pred,
                const IncidentPolicy &policy)
{
    obs::TraceScope span("incident", "capture");
    span.arg("program", inc.name);
    span.arg("kind", inc.kind);

    ReduceResult red = reduceProgram(program, pred, policy.reduce);
    inc.origNodes = red.origNodes;
    inc.finalNodes = red.finalNodes;
    inc.checks = red.checks;
    inc.oneMinimal = red.oneMinimal;
    inc.reproduced = red.inputFailed;
    if (red.inputFailed)
        inc.minimized = printProgram(red.program);

    if (obs::RingSink *ring = obs::RingSink::instance()) {
        // Inside a request context (serve), take only this request's
        // spans — the bundle's trace.jsonl is then exactly the flight-
        // recorder tail for the response's trace_id. Outside one, keep
        // the whole ring as before.
        const std::string &traceId = obs::currentTraceContext().traceId;
        std::vector<std::string> lines = traceId.empty()
                                             ? ring->snapshot()
                                             : ring->snapshotFor(traceId);
        constexpr size_t kTailMax = 200;
        size_t start = lines.size() > kTailMax ? lines.size() - kTailMax
                                               : 0;
        inc.traceTail.assign(lines.begin() + start, lines.end());
    }

    Result<std::string> written =
        writeBundle(inc, policy.dir, policy.maxRetained);
    if (written.ok()) {
        ++obs::counter("incident.bundles");
        obs::traceEvent("incident", "bundle",
                        {{"dir", written.value()},
                         {"orig_nodes",
                          static_cast<int64_t>(inc.origNodes)},
                         {"final_nodes",
                          static_cast<int64_t>(inc.finalNodes)}});
    }
    return written;
}

Result<std::string>
captureOutcome(const harness::ProgramOutcome &out,
               const harness::BatchOptions &opts,
               const IncidentPolicy &policy,
               std::optional<harness::FaultSpec> fault)
{
    if (out.source.empty()) {
        return Result<std::string>::err(Diag::error(
            "incident.no_source",
            "outcome for '" + out.name +
                "' has no captured source (BatchOptions::captureSource)"));
    }
    ParseError perr;
    std::optional<Program> prog = parseProgram(out.source, &perr);
    if (!prog) {
        return Result<std::string>::err(Diag::error(
            "incident.reparse",
            "captured source for '" + out.name +
                "' does not re-parse: " + perr.message));
    }

    Incident inc;
    inc.name = out.name;
    inc.kind = harness::batchStatusName(out.status);
    inc.detail = out.diag;
    if (inc.detail.empty() && !out.failures.empty())
        inc.detail = out.failures.back().kind + ": " +
                     out.failures.back().detail;
    inc.source = out.source;
    if (fault)
        inc.faultSpec = fault->str();

    FailurePredicate pred = pipelineFailurePredicate(
        out.name, opts, signatureOf(out), fault);
    return captureIncident(std::move(inc), *prog, pred, policy);
}

std::vector<std::string>
processBatchIncidents(const harness::BatchReport &report,
                      const harness::BatchOptions &opts,
                      const IncidentPolicy &policy)
{
    // The reduction predicates re-arm and consume the global fault
    // plan; remember what the caller had armed so it can be restored.
    std::optional<harness::FaultSpec> armed = harness::armedFault();
    bool alreadyFired = harness::armedFaultFired();

    std::vector<std::string> dirs;
    int dropped = 0;
    for (const harness::ProgramOutcome &out : report.programs) {
        if (out.status == harness::BatchStatus::Ok)
            continue;
        if (static_cast<int>(dirs.size()) >= policy.maxIncidents) {
            ++dropped;
            continue;
        }
        // Pass the armed spec only when this program actually hit the
        // site — otherwise the failure has another cause and re-arming
        // would minimize against the wrong signal.
        std::optional<harness::FaultSpec> fault;
        if (armed && out.faultHits.count(armed->site))
            fault = armed;
        Result<std::string> r =
            captureOutcome(out, opts, policy, fault);
        if (r.ok())
            dirs.push_back(r.value());
        else
            obs::traceEvent("incident", "skip",
                            {{"program", out.name},
                             {"why", r.diag().str()}});
    }
    if (dropped > 0) {
        warn("incident cap reached: " + std::to_string(dropped) +
             " contained failure(s) not bundled");
        obs::counter("incident.dropped") +=
            static_cast<uint64_t>(dropped);
    }

    if (armed && !alreadyFired)
        harness::armFault(*armed);
    else
        harness::clearFault();
    return dirs;
}

} // namespace incident
} // namespace memoria
