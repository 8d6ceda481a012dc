#include "harness/ladder.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "support/stats.hh"
#include "support/trace.hh"

namespace memoria {
namespace harness {

const char *
rungName(Rung r)
{
    switch (r) {
      case Rung::FullCompound:
        return "full-compound";
      case Rung::NoFusion:
        return "no-fusion";
      case Rung::PermuteOnly:
        return "permute-only";
      case Rung::Identity:
        return "identity";
    }
    return "?";
}

PipelineOptions
rungPipeline(Rung r)
{
    PipelineOptions opts;
    switch (r) {
      case Rung::FullCompound:
        break;
      case Rung::NoFusion:
        opts.compound.applyFusion = false;
        break;
      case Rung::PermuteOnly:
        opts.compound.applyFusion = false;
        opts.compound.enableFuseAll = false;
        opts.compound.enableDistribution = false;
        break;
      case Rung::Identity:
        opts.transform = false;
        break;
    }
    return opts;
}

LadderOutcome
runLadder(const LadderOptions &opts, const AttemptFn &fn)
{
    LadderOutcome out;
    int64_t backoff = 0;

    for (int r = static_cast<int>(opts.startRung); r < kNumRungs; ++r) {
        Rung rung = static_cast<Rung>(r);
        ++out.attempts;

        if (backoff > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(backoff));
            out.backoffMs += backoff;
        }

        // Fresh token per rung: the deadline restarts, so a rung that
        // timed out does not doom every cheaper configuration below it.
        CancelToken token(opts.budget);
        BudgetScope scope(&token);
        AttemptContext ctx{rung, rungPipeline(rung), token, out.attempts};

        obs::TraceScope span("harness", "ladder_attempt");
        span.arg("rung", rungName(rung));
        span.arg("attempt", out.attempts);

        try {
            fn(ctx);
            out.ok = true;
            out.rung = rung;
        } catch (const CancelledError &c) {
            out.failures.push_back({rung, "timeout", c.str()});
            ++obs::counter("harness.ladder.timeouts");
            // Retrying the same rung against the same limit cannot
            // help; descend immediately, no backoff.
            backoff = 0;
        } catch (const std::exception &e) {
            out.failures.push_back({rung, "fault", e.what()});
            ++obs::counter("harness.ladder.faults");
            // Faults may be transient; back off before the next rung.
            int64_t next = backoff > 0 ? backoff * 2 : opts.backoffBaseMs;
            backoff = std::min<int64_t>(next, opts.backoffCapMs);
        }

        out.iterationsUsed += token.iterationsUsed();
        out.maxIrNodesSeen =
            std::max(out.maxIrNodesSeen, token.maxIrNodesSeen());

        if (out.ok) {
            span.arg("ok", true);
            if (rung != Rung::FullCompound)
                ++obs::counter("harness.ladder.degraded");
            return out;
        }
        span.arg("ok", false);
    }
    return out;
}

} // namespace harness
} // namespace memoria
