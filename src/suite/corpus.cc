#include "suite/corpus.hh"

#include <algorithm>

#include "ir/builder.hh"
#include "support/logging.hh"

namespace memoria {

const std::vector<CorpusSpec> &
corpusSpecs()
{
    // name, group, lines, loops, nests, %orig, %perm, C, A, D, R, opaque
    static const std::vector<CorpusSpec> specs = {
        {"adm", "Perfect", 6105, 219, 106, 52, 16, 53, 16, 0, 0, 1, 2, false},
        {"arc2d", "Perfect", 3965, 152, 75, 55, 28, 65, 34, 35, 12, 1, 2, false},
        {"bdna", "Perfect", 3980, 104, 56, 75, 18, 75, 18, 4, 2, 3, 6, false},
        {"dyfesm", "Perfect", 7608, 164, 80, 63, 15, 65, 19, 2, 1, 0, 0, false},
        {"flo52", "Perfect", 1986, 149, 76, 83, 17, 95, 5, 4, 1, 0, 0, false},
        {"mdg", "Perfect", 1238, 25, 12, 83, 8, 83, 8, 0, 0, 0, 0, false},
        {"mg3d", "Perfect", 2812, 88, 40, 95, 3, 98, 0, 0, 0, 1, 2, true},
        {"ocean", "Perfect", 4343, 115, 56, 82, 13, 84, 13, 2, 1, 3, 6, false},
        {"qcd", "Perfect", 2327, 94, 45, 53, 11, 58, 16, 0, 0, 0, 0, false},
        {"spec77", "Perfect", 3885, 255, 162, 64, 7, 66, 7, 0, 0, 0, 0, false},
        {"track", "Perfect", 3735, 57, 32, 50, 16, 56, 19, 2, 1, 1, 2, false},
        {"trfd", "Perfect", 485, 67, 29, 52, 0, 66, 0, 0, 0, 0, 0, false},
        {"dnasa7", "SPEC", 1105, 111, 50, 64, 14, 74, 16, 5, 2, 1, 2, false},
        {"doduc", "SPEC", 5334, 60, 33, 6, 6, 6, 6, 0, 0, 4, 12, false},
        {"fpppp", "SPEC", 2718, 23, 8, 88, 12, 88, 12, 0, 0, 0, 0, false},
        {"hydro2d", "SPEC", 4461, 110, 55, 100, 0, 100, 0, 44, 11, 0, 0, false},
        {"matrix300", "SPEC", 439, 4, 2, 50, 50, 50, 50, 0, 0, 1, 2, false},
        {"mdljdp2", "SPEC", 4316, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, false},
        {"mdljsp2", "SPEC", 3885, 4, 1, 0, 0, 0, 0, 0, 0, 0, 0, false},
        {"ora", "SPEC", 453, 6, 3, 100, 0, 100, 0, 0, 0, 0, 0, false},
        {"su2cor", "SPEC", 2514, 84, 36, 42, 19, 42, 19, 0, 0, 4, 8, false},
        {"swm256", "SPEC", 487, 16, 8, 88, 12, 88, 12, 0, 0, 0, 0, false},
        {"tomcatv", "SPEC", 195, 12, 6, 100, 0, 100, 0, 7, 2, 0, 0, false},
        {"appbt", "NAS", 4457, 181, 87, 98, 0, 100, 0, 3, 1, 0, 0, false},
        {"applu", "NAS", 3285, 155, 71, 73, 3, 79, 6, 3, 1, 2, 6, false},
        {"appsp", "NAS", 3516, 184, 84, 73, 12, 80, 12, 8, 4, 0, 0, false},
        {"buk", "NAS", 305, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, false},
        {"cgm", "NAS", 855, 11, 6, 0, 0, 0, 0, 0, 0, 0, 0, true},
        {"embar", "NAS", 265, 3, 2, 50, 0, 50, 0, 0, 0, 0, 0, false},
        {"fftpde", "NAS", 773, 40, 18, 89, 0, 100, 0, 0, 0, 0, 0, false},
        {"mgrid", "NAS", 676, 43, 19, 89, 11, 100, 0, 3, 1, 1, 2, false},
        {"erlebacher", "Misc", 870, 75, 30, 83, 13, 100, 0, 28, 11, 0, 0, false},
        {"linpackd", "Misc", 797, 8, 4, 75, 0, 75, 0, 3, 1, 0, 0, false},
        {"simple", "Misc", 1892, 39, 22, 86, 9, 86, 9, 6, 2, 0, 0, false},
        {"wave", "Misc", 7519, 180, 85, 58, 29, 65, 29, 70, 26, 0, 0, false},
    };
    return specs;
}

namespace {

/** Generator for one synthetic program. */
class Synth
{
  public:
    Synth(const CorpusSpec &spec, int64_t extent)
        : b_(spec.name), n_(b_.param("N", extent))
    {
        MEMORIA_ASSERT(extent >= 8, "corpus extent must be >= 8");
        i_ = b_.loopVar("I");
        j_ = b_.loopVar("J");
        k_ = b_.loopVar("K");
    }

    /** Depth-2 nest already in memory order (unit stride innermost). */
    void
    goodNest2()
    {
        Arr a = mat();
        Arr c = mat();
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(a(i_, j_),
                                         a(i_, j_) + c(i_, j_)))));
    }

    /** Depth-3 nest already in memory order. */
    void
    goodNest3()
    {
        Arr a = cube();
        b_.add(b_.loop(
            k_, 1, n_,
            b_.loop(j_, 1, n_,
                    b_.loop(i_, 1, n_,
                            b_.assign(a(i_, j_, k_),
                                      Val(a(i_, j_, k_)) + 1.0)))));
    }

    /** Depth-2 nest in memory order but carrying a transposed read:
     *  one reference group keeps no self-reuse whatever the order, as
     *  in the paper's Table 5 baseline (60% "None" groups). */
    void
    goodMixedNest2()
    {
        Arr a = mat(1);
        Arr c = mat();
        Arr d = mat();
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(c(i_, j_),
                                         a(j_, Ix(i_) + 1) +
                                             c(i_, j_) +
                                             d(i_, j_)))));
    }

    /** Depth-2 nest in the wrong order; interchange is legal. */
    void
    permNest2()
    {
        Arr a = mat();
        b_.add(b_.loop(i_, 1, n_,
                       b_.loop(j_, 1, n_,
                               b_.assign(a(i_, j_),
                                         Val(a(i_, j_)) + 1.0))));
    }

    /** Wrong order with a transposed read: permutation fixes the
     *  write's stride, the read stays non-unit. */
    void
    permMixedNest2()
    {
        Arr a = mat();
        Arr c = mat(1);
        Arr d = mat();
        b_.add(b_.loop(i_, 1, n_,
                       b_.loop(j_, 1, n_,
                               b_.assign(a(i_, j_),
                                         a(i_, j_) +
                                             c(j_, Ix(i_) + 1) +
                                             d(i_, j_)))));
    }

    /** Depth-3 nest with the unit-stride loop outermost. */
    void
    permNest3()
    {
        Arr a = cube();
        b_.add(b_.loop(
            i_, 1, n_,
            b_.loop(k_, 1, n_,
                    b_.loop(j_, 1, n_,
                            b_.assign(a(i_, j_, k_),
                                      Val(a(i_, j_, k_)) * 2.0)))));
    }

    /** Interchange blocked by a pair of antidiagonal dependences. */
    void
    failDepNest()
    {
        Arr a = mat(2);
        b_.add(b_.loop(
            i_, 2, n_,
            b_.loop(j_, 2, n_,
                    b_.assign(a(i_, j_),
                              a(Ix(i_) - 1, Ix(j_) + 1) +
                                  a(Ix(i_) - 1, Ix(j_) - 1)))));
    }

    /** Desired interchange blocked by a non-triangular bound. */
    void
    failBoundsNest()
    {
        Arr a = b_.array(fresh("B"), {Ix(n_), Ix(n_) * 2});
        b_.add(b_.loop(i_, 1, n_,
                       b_.loop(j_, 1, Ix(i_) * 2,
                               b_.assign(a(i_, j_), Val(j_)))));
    }

    /** Index-array subscripts: conservatively unanalyzable (Cgm). */
    void
    opaqueNest()
    {
        Arr x = vec();
        Arr ind = vec();
        Arr v = mat();
        Ref xr = x.at({opaqueSub(Val(ind(i_)))});
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(xr, Val(xr) + v(i_, j_)))));
    }

    /**
     * Depth-3 nest whose inner loop is already the right one but whose
     * outer pair is out of order (counts toward inner-orig but not
     * nest-orig; permutation fixes the rest). The B(K,J) read makes
     * LoopCost(J) > LoopCost(K) so memory order is (J, K, I).
     */
    void
    innerOkNest3()
    {
        Arr a = cube();
        Arr c = mat();
        b_.add(b_.loop(
            k_, 1, n_,
            b_.loop(j_, 1, n_,
                    b_.loop(i_, 1, n_,
                            b_.assign(a(i_, j_, k_),
                                      a(i_, j_, k_) + c(k_, j_))))));
    }

    /**
     * Depth-3 nest whose inner loop is right but whose outer pair can
     * never reach memory order: antidiagonal dependences block the
     * (K, J) interchange (counts toward inner-orig and nest-fail).
     */
    void
    failDepInnerOkNest3()
    {
        Arr a = b_.array(fresh("T"), {Ix(n_), Ix(n_) + 2, Ix(n_) + 2});
        Arr c = mat();
        b_.add(b_.loop(
            k_, 2, n_,
            b_.loop(j_, 2, n_,
                    b_.loop(i_, 1, n_,
                            b_.assign(
                                a(i_, j_, k_),
                                a(i_, Ix(j_) + 1, Ix(k_) - 1) +
                                    a(i_, Ix(j_) - 1, Ix(k_) - 1) +
                                    c(k_, j_))))));
    }

    /** Imperfect nest fixed by distribution + permutation (the KIJ
     *  elimination shape of Figure 7 / Gmtry). `parts` of 2 gives the
     *  classic split; 3 adds an independent leading statement. */
    void
    distributeNest(int parts = 2)
    {
        Arr a = mat();
        Arr m = mat();
        std::vector<NodePtr> ibody;
        if (parts >= 3) {
            Arr p = mat();
            ibody.push_back(
                b_.assign(p(i_, k_), Val(a(i_, k_)) + 1.0));
        }
        ibody.push_back(
            b_.assign(m(i_, k_), Val(a(i_, k_)) / a(k_, k_)));
        ibody.push_back(
            b_.loop(j_, Ix(k_) + 1, n_,
                    b_.assign(a(i_, j_),
                              a(i_, j_) - m(i_, k_) * a(k_, j_))));
        b_.add(b_.loop(k_, 1, Ix(n_) - 1,
                       b_.loop(i_, Ix(k_) + 1, n_, std::move(ibody))));
    }

    /** Two adjacent compatible nests that profitably fuse. */
    void
    fusionCluster()
    {
        Arr shared = mat();
        Arr o1 = mat();
        Arr o2 = mat();
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(o1(i_, j_),
                                         shared(i_, j_) + 1.0))));
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(o2(i_, j_),
                                         Val(shared(i_, j_)) * 2.0))));
    }

    /** Two adjacent compatible nests with nothing to gain by fusing. */
    void
    barrenPair()
    {
        Arr a = mat();
        Arr c = mat();
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(a(i_, j_), Val(i_)))));
        b_.add(b_.loop(j_, 1, n_,
                       b_.loop(i_, 1, n_,
                               b_.assign(c(i_, j_), Val(j_)))));
    }

    /** A depth-1 loop (counted in Loops, not in Nests). */
    void
    singleLoop()
    {
        Arr v = vec();
        b_.add(b_.loop(i_, 1, n_, b_.assign(v(i_), Val(i_))));
    }

    /** A separator with a distinct trip count so adjacent unrelated
     *  nests never look fusion-compatible. */
    void
    separator()
    {
        Arr v = vec(1);
        b_.add(b_.loop(i_, 1, Ix(n_) + 1,
                       b_.assign(v(i_), Val(i_) + 1.0)));
    }

    Program
    finish()
    {
        return b_.finish();
    }

  private:
    std::string
    fresh(const char *prefix)
    {
        return std::string(prefix) + std::to_string(counter_++);
    }

    Arr
    mat(int64_t pad = 0)
    {
        // Vary the leading dimension so array sizes are not all the
        // same power of two (which would alias pathologically in the
        // set-index bits, something real Fortran programs rarely do).
        int64_t lead = pad + (counter_ % 3);
        return b_.array(fresh("A"),
                        {Ix(n_) + lead, Ix(n_) + pad});
    }

    Arr
    cube()
    {
        return b_.array(fresh("T"), {Ix(n_), Ix(n_), Ix(n_)});
    }

    Arr
    vec(int64_t pad = 0)
    {
        return b_.array(fresh("V"), {Ix(n_) + pad});
    }

    ProgramBuilder b_;
    Var n_;
    Var i_, j_, k_;
    int counter_ = 0;
};

} // namespace

Program
buildCorpusProgram(const CorpusSpec &spec, int64_t extent)
{
    Synth s(spec, extent);

    int nests = spec.nests;
    int perm = (spec.pctPerm * nests + 50) / 100;
    int dist = std::min(spec.distributions, nests);
    int good = (spec.pctOrig * nests + 50) / 100;
    int fail = std::max(0, nests - good - perm - dist);
    good = nests - perm - dist - fail;

    // Nests whose inner loop is already right even though the whole
    // nest is not in memory order (Table 2's Inner Loop columns show
    // more "orig" than the nest columns). They come out of the perm
    // and fail budgets.
    int innerExtra = std::max(
        0, (spec.pctInnerOrig * nests + 50) / 100 - good);
    int innerOkPerm = std::min(innerExtra, std::max(0, perm - dist));
    int innerOkFail = std::min(innerExtra - innerOkPerm, fail);

    // Fusion structures come out of the "good" budget.
    int clusters = std::min(spec.fusionApplied / 2, good / 2);
    int barren = std::min(
        std::max(0, spec.fusionCandidates - spec.fusionApplied) / 2,
        std::max(0, good - 2 * clusters) / 2);
    good -= 2 * (clusters + barren);

    // Failure mix: Section 5.2 reports 87% of missed nests blocked by
    // dependences and the rest by complex bounds; the opaque-style
    // programs (Cgm, Mg3d) fail through unanalyzable subscripts.
    int failBounds = spec.opaqueStyle ? 0 : (13 * fail + 50) / 100;
    int failOpaque = spec.opaqueStyle ? fail : 0;
    int failDep = fail - failBounds - failOpaque;
    innerOkFail = std::min(innerOkFail, failDep);

    // Depth-3 share, then depth-1 loops to approximate the paper's
    // Loops column.
    int good3 = good / 4;
    int perm3 = perm / 4;
    int singles = std::max(
        0, spec.loops - (2 * nests + good3 + perm3 + 2 * dist));

    for (int c = 0; c < clusters; ++c) {
        s.fusionCluster();
        s.separator();
    }
    for (int c = 0; c < barren; ++c) {
        s.barrenPair();
        s.separator();
    }
    for (int c = 0; c < good - good3; ++c) {
        if (c % 2 == 1)
            s.goodMixedNest2();
        else
            s.goodNest2();
        s.separator();
    }
    for (int c = 0; c < good3; ++c) {
        s.goodNest3();
        s.separator();
    }
    int plainPerm = perm - innerOkPerm;
    int perm3b = std::min(perm3, plainPerm);
    for (int c = 0; c < plainPerm - perm3b; ++c) {
        if (c % 2 == 1)
            s.permMixedNest2();
        else
            s.permNest2();
        s.separator();
    }
    for (int c = 0; c < perm3b; ++c) {
        s.permNest3();
        s.separator();
    }
    for (int c = 0; c < innerOkPerm; ++c) {
        s.innerOkNest3();
        s.separator();
    }
    // Distribution arity follows the paper's R/D ratio per program.
    int arity =
        spec.distributions > 0 &&
                spec.distResulting >= 3 * spec.distributions
            ? 3
            : 2;
    for (int c = 0; c < dist; ++c) {
        s.distributeNest(arity);
        s.separator();
    }
    for (int c = 0; c < failDep - innerOkFail; ++c) {
        s.failDepNest();
        s.separator();
    }
    for (int c = 0; c < innerOkFail; ++c) {
        s.failDepInnerOkNest3();
        s.separator();
    }
    for (int c = 0; c < failBounds; ++c) {
        s.failBoundsNest();
        s.separator();
    }
    for (int c = 0; c < failOpaque; ++c) {
        s.opaqueNest();
        s.separator();
    }
    for (int c = 0; c < singles; ++c)
        s.singleLoop();

    return s.finish();
}

} // namespace memoria
