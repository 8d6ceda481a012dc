/**
 * @file
 * Table 3: performance results (original vs transformed).
 *
 * The paper reports RS/6000 seconds for the programs whose behaviour
 * changed; we report simulated cycles on the RS/6000-like cache for the
 * corpus programs with a measurable change, plus the paper-studied
 * kernels. Expected shape: the scalarized-vector-style programs speed
 * up noticeably (the paper saw arc2d 2.15x, gmtry 8.68x, vpenta 1.29x,
 * simple 1.13x); most others barely move because their hit rates were
 * already high.
 *
 * The binary checks that shape and exits 1 when it breaks: the
 * scalarized-vector programs must speed up by at least
 * kScalarizedFloor, and no other row may fall below kDegradeFloor.
 * The corpus erlebacher row is EXPERIMENTS.md's Known deviation 5 and
 * is held to its measured ratio instead, so it fails if it gets worse.
 */

#include <set>
#include <string>
#include <vector>

#include "common.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

/** The scalarized-vector programs, by row name. */
const std::set<std::string> kScalarized = {
    "adi/scalarized", "gmtry (row sweep)", "simple (vectorizable)",
    "vpenta (scalarized)", "arc2d"};
constexpr double kScalarizedFloor = 1.10;
/** Every other row may degrade by at most 3%. */
constexpr double kDegradeFloor = 0.97;
/** Known deviation 5: corpus erlebacher measures 0.9523x. */
const std::string kDeviationRow = "erlebacher";
constexpr double kDeviationFloor = 0.952;

struct Row
{
    std::string name;
    double speedup;
};

void
row(TextTable &t, std::vector<Row> &rows, const std::string &name,
    const OptimizedProgram &opt, const CacheConfig &cfg)
{
    Performance perf = simulatePerformance(opt, {cfg}).value()[0];
    t.addRow({name, TextTable::num(perf.origCycles, 0),
              TextTable::num(perf.finalCycles, 0),
              TextTable::num(perf.speedup(), 2)});
    rows.push_back({name, perf.speedup()});
}

int
benchMain()
{
    CacheConfig cfg = CacheConfig::rs6000();
    std::vector<Row> rows;

    banner("Table 3 (kernels): paper-studied programs, simulated");
    TextTable k({"program", "orig cycles", "transformed", "speedup"});
    row(k, rows, "matmul (IKJ input)",
        optimizeProgram(makeMatmul("IKJ", 96), paperModel()), cfg);
    row(k, rows, "cholesky (KIJ input)",
        optimizeProgram(makeCholeskyKIJ(128), paperModel()), cfg);
    row(k, rows, "adi/scalarized",
        optimizeProgram(makeAdiScalarized(128), paperModel()), cfg);
    row(k, rows, "gmtry (row sweep)",
        optimizeProgram(makeGmtry(128), paperModel()), cfg);
    row(k, rows, "simple (vectorizable)",
        optimizeProgram(makeSimpleHydro(128), paperModel()), cfg);
    row(k, rows, "vpenta (scalarized)",
        optimizeProgram(makeVpenta(128), paperModel()), cfg);
    row(k, rows, "erlebacher (distributed)",
        optimizeProgram(makeErlebacherDistributed(24), paperModel()),
        cfg);
    row(k, rows, "jacobi (bad order)",
        optimizeProgram(makeJacobiBadOrder(128), paperModel()), cfg);
    std::cout << k.str();

    banner("Table 3 (corpus): programs with any change, simulated");
    TextTable t({"program", "orig cycles", "transformed", "speedup"});
    for (const auto &spec : corpusSpecs()) {
        if (spec.nests == 0)
            continue;
        Program p = buildCorpusProgram(spec, 32);
        OptimizedProgram opt = optimizeProgram(p, paperModel());
        if (!optimizedProcedures(opt).any())
            continue;
        row(t, rows, spec.name, opt, cfg);
    }
    std::cout << t.str();

    // The shape check. Track the slowest scalarized-vector row and the
    // worst of the rest, so the summary states the margins that hold.
    const Row *slowestScalarized = nullptr;
    const Row *worstOther = nullptr;
    const Row *deviation = nullptr;
    std::vector<std::string> failures;
    for (const Row &r : rows) {
        if (kScalarized.count(r.name)) {
            if (!slowestScalarized || r.speedup < slowestScalarized->speedup)
                slowestScalarized = &r;
            if (r.speedup < kScalarizedFloor)
                failures.push_back(r.name + " speeds up only " +
                                   TextTable::num(r.speedup, 3) + "x");
        } else if (r.name == kDeviationRow) {
            deviation = &r;
            if (r.speedup < kDeviationFloor)
                failures.push_back(
                    r.name + " fell to " + TextTable::num(r.speedup, 4) +
                    "x, below Known deviation 5's " +
                    TextTable::num(kDeviationFloor, 3) + "x");
        } else {
            if (!worstOther || r.speedup < worstOther->speedup)
                worstOther = &r;
            if (r.speedup < kDegradeFloor)
                failures.push_back(r.name + " degrades to " +
                                   TextTable::num(r.speedup, 3) + "x");
        }
    }
    if (!slowestScalarized || !worstOther || !deviation)
        failures.push_back("a checked row is missing from the table");
    for (const std::string &f : failures)
        std::cout << "FAIL: " << f << "\n";
    if (!failures.empty())
        return 1;

    std::cout << "\npaper shape: the scalarized-vector programs speed up "
                 "by at least "
              << TextTable::num(slowestScalarized->speedup, 2) << "x ("
              << slowestScalarized->name << "); no other row degrades by "
              << "more than 3% (worst: " << worstOther->name << " "
              << TextTable::num(worstOther->speedup, 2)
              << "x) except corpus erlebacher at "
              << TextTable::num(deviation->speedup, 2)
              << "x (EXPERIMENTS.md, Known deviation 5).\n";
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
