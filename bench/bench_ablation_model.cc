/**
 * @file
 * Model-validation ablation (Section 4.1's claim).
 *
 * (a) Rank agreement: for matrix multiply, the model's LoopCost
 * ranking over all six permutations must match the simulated-miss
 * ranking (the paper validated this on three machines: "the entire
 * ranking accurately predicts relative performance").
 * (b) Triangular-policy ablation: Dominant (paper-style dominating
 * terms) versus Average trip counts — both must select the same
 * memory order for the paper's kernels.
 */

#include <algorithm>
#include <numeric>
#include <vector>

#include "common.hh"
#include "interp/interp.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"

namespace memoria {
namespace {

/**
 * Pairwise concordance: over all pairs where the model states a strict
 * preference, the fraction the simulation confirms. Model ties (equal
 * LoopCost) impose no constraint — they are the model's admission of
 * indifference.
 */
double
rankAgreement(const std::vector<double> &model,
              const std::vector<double> &sim)
{
    int constrained = 0, confirmed = 0;
    for (size_t a = 0; a < model.size(); ++a) {
        for (size_t b = a + 1; b < model.size(); ++b) {
            if (model[a] == model[b])
                continue;
            ++constrained;
            bool modelSays = model[a] < model[b];
            bool simSays = sim[a] < sim[b];
            if (modelSays == simSays)
                ++confirmed;
        }
    }
    return constrained == 0
               ? 1.0
               : static_cast<double>(confirmed) / constrained;
}

int
benchMain()
{
    banner("Model vs simulation ranking: matmul permutations");
    const std::vector<std::string> orders = {"IJK", "IKJ", "JIK",
                                             "JKI", "KIJ", "KJI"};
    std::vector<double> model, sim;
    TextTable t({"order", "LoopCost(inner) n=64", "sim misses (i860)"});
    for (const auto &order : orders) {
        Program p = makeMatmul(order, 64);
        NestAnalysis na(p, p.body[0].get(), paperModel());
        auto chain = perfectChain(p.body[0].get());
        double cost = na.loopCost(chain.back()).eval(64);
        SweepResult r = runWithCaches(p, {CacheConfig::i860()});
        model.push_back(cost);
        sim.push_back(static_cast<double>(r.cache[0].misses));
        t.addRow({order, TextTable::num(cost, 0),
                  std::to_string(r.cache[0].misses)});
    }
    std::cout << t.str();
    std::cout << "\nrank agreement (1.0 = identical ordering): "
              << TextTable::num(rankAgreement(model, sim), 2) << "\n";

    banner("Triangular-trip policy ablation (Cholesky)");
    for (TriangularPolicy pol :
         {TriangularPolicy::Dominant, TriangularPolicy::Average}) {
        ModelParams params = paperModel();
        params.policy = pol;
        Program p = makeCholeskyKIJ(128);
        NestAnalysis na(p, p.body[0].get(), params);
        std::cout << (pol == TriangularPolicy::Dominant ? "Dominant"
                                                        : "Average ")
                  << " memory order: ";
        for (Node *l : na.memoryOrder())
            std::cout << p.varName(l->var);
        std::cout << "\n";
    }
    std::cout << "\nexpected: the Dominant (dominating-term) policy "
                 "picks the paper's KJI; the Average policy ranks the "
                 "triangular terms lower and lands on JKI, the "
                 "second-best order in the paper's measured ranking — "
                 "evidence for the paper's choice of dominating "
                 "terms.\n";
    return 0;
}

} // namespace
} // namespace memoria

int
main()
{
    return memoria::benchMain();
}
