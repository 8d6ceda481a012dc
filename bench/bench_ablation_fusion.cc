/**
 * @file
 * Section 5.5 ablation: hit rates with and without loop fusion.
 *
 * The paper measured both variants: fusion improved whole-program hit
 * rates for Hydro2d, Appsp and Erlebacher on the 8K cache (by 0.51%,
 * 0.24% and 0.95%) but hurt Track, Dnasa7 and Wave through added
 * conflict/capacity misses. We run the fusion-heavy corpus programs
 * and the Erlebacher kernel both ways.
 */

#include "common.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

void
compare(TextTable &t, const std::string &name, const Program &input)
{
    PipelineOptions noFusion;
    noFusion.compound.applyFusion = false;
    OptimizedProgram with = optimizeProgram(input, paperModel());
    OptimizedProgram without =
        optimizeProgram(input, paperModel(), noFusion);
    HitRates rw =
        simulateHitRates(with, {CacheConfig::i860()}).value()[0];
    HitRates ro =
        simulateHitRates(without, {CacheConfig::i860()}).value()[0];
    t.addRow({name, std::to_string(with.report.fusion.fused),
              TextTable::num(ro.wholeFinal, 2),
              TextTable::num(rw.wholeFinal, 2),
              TextTable::num(rw.wholeFinal - ro.wholeFinal, 2)});
}

int
benchMain()
{
    banner("Fusion ablation: whole-program hit% on cache2 (8KB)");
    TextTable t({"program", "nests fused", "without fusion",
                 "with fusion", "delta"});

    compare(t, "erlebacher (kernel)", makeErlebacherDistributed(20));
    for (const auto &spec : corpusSpecs()) {
        if (spec.fusionApplied == 0)
            continue;
        compare(t, spec.name, buildCorpusProgram(spec, 32));
    }
    std::cout << t.str();
    std::cout << "\npaper shape: fusion helps most fusion-heavy "
                 "programs by fractions of a percent at whole-program "
                 "scope (hydro2d +0.51, appsp +0.24, erlebacher "
                 "+0.95), and can hurt when fused footprints overflow "
                 "the cache.\n";
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
