/**
 * @file
 * Table 5: data access properties.
 *
 * For the kernels the paper highlights plus the whole corpus, reports
 * the reference-group locality mix — percentage of groups with
 * invariant / unit-stride / no self reuse, group-spatial share, and
 * references per group — for the original, final and ideal program
 * versions, with the LoopCost ratios. Expected shape: transformed
 * programs gain self-spatial (unit) reuse; ideal gains more invariant
 * reuse; refs/group stays small (little group-temporal reuse). Exits
 * nonzero when the all-programs row breaks that shape: final Unit% must
 * exceed the original's, ideal Unit% must reach the final's, and r/Avg
 * must stay below 1.5 for every version.
 */

#include "common.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

/** Table 5 statistics of one program: the original, final and ideal
 *  versions, with the LoopCost ratios. */
struct AccessRows
{
    AccessStats orig;
    AccessStats final;
    AccessStats ideal;
    double ratioFinal = 0, ratioFinalWt = 0;
    double ratioIdeal = 0, ratioIdealWt = 0;
};

AccessRows
accessRows(const Program &p)
{
    OptimizedProgram opt = optimizeProgram(p, paperModel());
    AccessRows r;
    r.orig = programAccessStats(opt.original, paperModel());
    r.final = programAccessStats(opt.transformed, paperModel());
    Program ideal = idealProgram(p, paperModel());
    r.ideal = programAccessStats(ideal, paperModel());
    r.ratioFinal = opt.report.ratioFinal;
    r.ratioFinalWt = opt.report.ratioFinalWt;
    r.ratioIdeal = opt.report.ratioIdeal;
    r.ratioIdealWt = opt.report.ratioIdealWt;
    return r;
}

void
addRows(TextTable &t, const std::string &name, const AccessRows &r)
{
    auto rowFor = [&](const char *tag, const AccessStats &s,
                      double ratio, double ratioW) {
        t.addRow({name, tag, TextTable::num(s.pctInv(), 0),
                  TextTable::num(s.pctUnit(), 0),
                  TextTable::num(s.pctNone(), 0),
                  TextTable::num(s.pctGroupSpatial(), 0),
                  TextTable::num(s.refsPerInvGroup(), 2),
                  TextTable::num(s.refsPerUnitGroup(), 2),
                  TextTable::num(s.refsPerNoneGroup(), 2),
                  TextTable::num(s.refsPerGroup(), 2),
                  ratio > 0 ? TextTable::num(ratio, 2) : "",
                  ratioW > 0 ? TextTable::num(ratioW, 2) : ""});
    };
    rowFor("original", r.orig, 0, 0);
    rowFor("final", r.final, r.ratioFinal, r.ratioFinalWt);
    rowFor("ideal", r.ideal, r.ratioIdeal, r.ratioIdealWt);
    t.addRule();
}

int
benchMain()
{
    banner("Table 5: data access properties");
    TextTable t({"program", "version", "Inv%", "Unit%", "None%",
                 "Group%", "r/Inv", "r/Unit", "r/None", "r/Avg",
                 "ratio avg", "ratio wt"});

    addRows(t, "vpenta-style", accessRows(makeVpenta(32)));
    addRows(t, "simple-style", accessRows(makeSimpleHydro(32)));
    addRows(t, "gmtry-style", accessRows(makeGmtry(32)));
    addRows(t, "erlebacher", accessRows(makeErlebacherDistributed(16)));

    // Aggregate over the whole corpus ("all programs" row).
    AccessRows all;
    double sumRf = 0, sumRi = 0;
    int progs = 0;
    for (const auto &spec : corpusSpecs()) {
        if (spec.nests == 0)
            continue;
        AccessRows r = accessRows(buildCorpusProgram(spec, 12));
        all.orig += r.orig;
        all.final += r.final;
        all.ideal += r.ideal;
        sumRf += r.ratioFinal;
        sumRi += r.ratioIdeal;
        ++progs;
    }
    all.ratioFinal = all.ratioFinalWt = sumRf / progs;
    all.ratioIdeal = all.ratioIdealWt = sumRi / progs;
    addRows(t, "all programs", all);

    std::cout << t.str();
    std::cout << "\npaper shape: final versions gain Unit% over "
                 "original (e.g. arc2d 53 -> 77); ideal shows more "
                 "invariant reuse; group-spatial reuse is rare and "
                 "refs/group stays below ~1.5 on average.\n";

    bool ok = true;
    auto check = [&ok](bool holds, const std::string &what) {
        if (!holds) {
            std::cout << "FAIL: " << what << "\n";
            ok = false;
        }
    };
    check(all.final.pctUnit() > all.orig.pctUnit(),
          "all programs: final Unit% does not exceed original Unit%");
    check(all.ideal.pctUnit() >= all.final.pctUnit(),
          "all programs: ideal Unit% is below final Unit%");
    check(all.orig.refsPerGroup() < 1.5 &&
              all.final.refsPerGroup() < 1.5 &&
              all.ideal.refsPerGroup() < 1.5,
          "all programs: r/Avg is not below 1.5 for every version");
    return ok ? 0 : 1;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
