/** Cost-model tests: the paper's Figure 2, 3 and 7 LoopCost tables are
 *  encoded as ground truth (cls = 4 doubles on 32-byte lines). */

#include <gtest/gtest.h>

#include "ir/builder.hh"
#include "ir/walk.hh"
#include "model/access.hh"
#include "model/loopcost.hh"
#include "suite/kernels.hh"
#include "support/stats.hh"
#include "transform/compound.hh"
#include "transform/permute.hh"

namespace memoria {
namespace {

ModelParams
cls4()
{
    ModelParams p;
    p.lineBytes = 32;  // 4 double elements per line, as in the paper
    return p;
}

Node *
loopNamed(const Program &p, const NestAnalysis &na, const std::string &nm)
{
    for (Node *l : na.loops())
        if (p.varName(l->var) == nm)
            return l;
    return nullptr;
}

TEST(LoopCost, MatmulFigure2Table)
{
    Program p = makeMatmul("IJK", 512);
    NestAnalysis na(p, p.body[0].get(), cls4());

    Node *li = loopNamed(p, na, "I");
    Node *lj = loopNamed(p, na, "J");
    Node *lk = loopNamed(p, na, "K");
    ASSERT_TRUE(li && lj && lk);

    // Figure 2 totals: J = 2n^3 + n^2, K = (5/4)n^3 + n^2,
    // I = (1/2)n^3 + n^2.
    Poly cj = na.loopCost(lj);
    Poly ck = na.loopCost(lk);
    Poly ci = na.loopCost(li);
    EXPECT_DOUBLE_EQ(cj.coeff(3), 2.0);
    EXPECT_DOUBLE_EQ(cj.coeff(2), 1.0);
    EXPECT_DOUBLE_EQ(ck.coeff(3), 1.25);
    EXPECT_DOUBLE_EQ(ck.coeff(2), 1.0);
    EXPECT_DOUBLE_EQ(ci.coeff(3), 0.5);
    EXPECT_DOUBLE_EQ(ci.coeff(2), 1.0);

    // Memory order JKI: most cache lines outermost.
    auto mo = na.memoryOrder();
    ASSERT_EQ(mo.size(), 3u);
    EXPECT_EQ(p.varName(mo[0]->var), "J");
    EXPECT_EQ(p.varName(mo[1]->var), "K");
    EXPECT_EQ(p.varName(mo[2]->var), "I");
}

TEST(RefGroup, MatmulThreeGroups)
{
    Program p = makeMatmul("IJK", 64);
    NestAnalysis na(p, p.body[0].get(), cls4());
    // 4 references (C write+read, A, B) fall into 3 groups: the two C
    // references share a loop-independent dependence (condition 1a).
    for (Node *l : na.loops()) {
        auto groups = na.groups(l);
        EXPECT_EQ(groups.size(), 3u);
    }
}

TEST(RefGroup, SmallConstantDistanceCondition1b)
{
    // B(I) = B(I) + A(I) + A(I-1): A refs are one group w.r.t. I
    // (distance 1 <= 2), but separate groups w.r.t. an outer loop J if
    // the I entry must be zero... here d' also triggers condition 2;
    // use distinct *second* subscripts to isolate condition 1b.
    ProgramBuilder b("c1b");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {Ix(n) + 8, Ix(n) + 8});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    // A(J,I) read twice, shifted in the second dim: group w.r.t. I via
    // the carried input dependence of distance 1. The write is shifted
    // by 8 in the first dimension (beyond cls = 4), keeping it out of
    // every group.
    b.add(b.loop(j, 1, n,
                 b.loop(i, 2, n,
                        b.assign(a(Ix(j) + 8, i),
                                 a(j, i) + a(j, Ix(i) - 1)))));
    Program p = b.finish();
    NestAnalysis na(p, p.body[0].get(), cls4());
    Node *li = loopNamed(p, na, "I");
    Node *lj = loopNamed(p, na, "J");
    // w.r.t. I: A(J,I) and A(J,I-1) connected by input dep (0, 1):
    // same group. The write A(J+4,I) is always separate.
    EXPECT_EQ(na.groups(li).size(), 2u);
    // w.r.t. J the I entry (distance 1) is non-zero: separate groups.
    EXPECT_EQ(na.groups(lj).size(), 3u);
}

TEST(RefGroup, SpatialCondition2)
{
    // A(I,J) and A(I+2,J): same line when cls = 4 (condition 2).
    ProgramBuilder b("c2");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {Ix(n) + 4, n});
    Arr c = b.array("C", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n,
                        b.assign(c(i, j),
                                 a(i, j) + a(Ix(i) + 2, j)))));
    Program p = b.finish();
    NestAnalysis na(p, p.body[0].get(), cls4());
    Node *li = loopNamed(p, na, "I");
    auto groups = na.groups(li);
    EXPECT_EQ(groups.size(), 2u);  // {A pair}, {C}
    bool sawSpatial = false;
    for (const auto &g : groups)
        sawSpatial |= g.groupSpatial;
    EXPECT_TRUE(sawSpatial);
}

TEST(RefCost, ThreeCases)
{
    ProgramBuilder b("cases");
    Var n = b.param("N", 32);
    Arr a = b.array("A", {Ix(n) * 4, n});
    Arr c = b.array("C", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    // C(I,J) = A(4I, J) + C(1,1): strided and invariant references.
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n,
                        b.assign(c(i, j), a(Ix(i) * 4, j) + c(1, 1)))));
    Program p = b.finish();
    NestAnalysis na(p, p.body[0].get(), cls4());
    Node *li = loopNamed(p, na, "I");
    Node *lj = loopNamed(p, na, "J");

    for (const auto &ref : na.refs()) {
        const ArrayDecl &decl = p.arrayDecl(ref.ref->array);
        bool invariantRef = ref.ref->subs[0].affine.isConstant();
        if (invariantRef) {
            EXPECT_EQ(na.classify(ref, li), Reuse::Invariant);
            EXPECT_DOUBLE_EQ(na.refCost(ref, li).eval(32), 1.0);
        } else if (decl.name == "A") {
            // stride 4 == cls: no reuse.
            EXPECT_EQ(na.classify(ref, li), Reuse::None);
            EXPECT_EQ(na.classify(ref, lj), Reuse::None);
        } else {
            EXPECT_EQ(na.classify(ref, li), Reuse::Consecutive);
            // trip/(cls/stride) = n/4.
            EXPECT_DOUBLE_EQ(na.refCost(ref, li).coeff(1), 0.25);
        }
    }
}

TEST(RefCost, StrideTwoIsHalfLine)
{
    ProgramBuilder b("s2");
    Var n = b.param("N", 32);
    Arr a = b.array("A", {Ix(n) * 2, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n,
                        b.assign(a(Ix(i) * 2, j), Val(i)))));
    Program p = b.finish();
    NestAnalysis na(p, p.body[0].get(), cls4());
    Node *li = loopNamed(p, na, "I");
    const auto &ref = na.refs()[0];
    EXPECT_EQ(na.classify(ref, li), Reuse::Consecutive);
    EXPECT_DOUBLE_EQ(na.refCost(ref, li).coeff(1), 0.5);
}

TEST(LoopCost, AdiFigure3FusedVersusDistributed)
{
    ModelParams params = cls4();

    // Fused (Figure 3c): K = 3n^2, I = (3/4)n^2 in dominating terms.
    Program fused = makeAdiFused(128);
    NestAnalysis fa(fused, fused.body[0].get(), params);
    Node *fk = loopNamed(fused, fa, "K");
    Node *fi = loopNamed(fused, fa, "I");
    EXPECT_DOUBLE_EQ(fa.loopCost(fk).coeff(2), 3.0);
    EXPECT_DOUBLE_EQ(fa.loopCost(fi).coeff(2), 0.75);

    // Distributed (Figure 3b): the two K loops cost 3n^2 + 2n^2 = 5n^2
    // with their current (K) innermost loops. nestCost aggregates
    // exactly the paper's per-statement-nest sums.
    Program dist = makeAdiScalarized(128);
    Node *iLoop = dist.body[0].get();
    NestAnalysis da(dist, iLoop, params);
    Poly sum = nestCost(da);
    EXPECT_DOUBLE_EQ(sum.coeff(2), 5.0);

    // Fusion is profitable: 3n^2 < 5n^2 (Section 4.3.1).
    EXPECT_TRUE(fa.loopCost(fk) < sum);
}

TEST(LoopCost, CholeskyFigure7MemoryOrder)
{
    Program p = makeCholeskyKIJ(256);
    NestAnalysis na(p, p.body[0].get(), cls4());
    auto mo = na.memoryOrder();
    ASSERT_EQ(mo.size(), 3u);
    EXPECT_EQ(p.varName(mo[0]->var), "K");
    EXPECT_EQ(p.varName(mo[1]->var), "J");
    EXPECT_EQ(p.varName(mo[2]->var), "I");
}

TEST(LoopCost, ElementSizeChangesCls)
{
    // With 4-byte elements a 32-byte line holds 8: consecutive cost
    // halves relative to 8-byte elements.
    ProgramBuilder b("elem4");
    Var n = b.param("N", 64);
    Arr a = b.array("A", {n, n}, 4);
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n, b.assign(a(i, j), Val(i)))));
    Program p = b.finish();
    NestAnalysis na(p, p.body[0].get(), cls4());
    Node *li = loopNamed(p, na, "I");
    EXPECT_DOUBLE_EQ(na.refCost(na.refs()[0], li).coeff(1), 0.125);
}

TEST(TripModel, TriangularPolicies)
{
    Program p = makeCholeskyKIJ(64);
    Node *k = p.body[0].get();
    Node *iLoop = nullptr, *jLoop = nullptr;
    for (Node *l : collectLoops(k)) {
        if (p.varName(l->var) == "I")
            iLoop = l;
        if (p.varName(l->var) == "J")
            jLoop = l;
    }
    ASSERT_TRUE(iLoop && jLoop);

    ModelParams dom = cls4();
    NestAnalysis naDom(p, k, dom);
    // Dominant: DO J = K+1, I spans up to ~n iterations.
    EXPECT_NEAR(naDom.trip(jLoop).coeff(1), 1.0, 1e-9);

    ModelParams avg = cls4();
    avg.policy = TriangularPolicy::Average;
    NestAnalysis naAvg(p, k, avg);
    // Average: E[I] - E[K] ~ n/4.
    EXPECT_NEAR(naAvg.trip(jLoop).coeff(1), 0.25, 1e-9);
}

/** DO K = 1, N; DO J = K+1, N: A(K, J) = A(K, J) + 1. K is the
 *  consecutive loop, so memory order puts J outermost and permutation
 *  rewrites the pair into DO J = 2, N; DO K = 1, J-1. */
Program
triangularKJ(bool jOuter)
{
    ProgramBuilder b(jOuter ? "tri_jk" : "tri_kj");
    Var n = b.param("N", 16);
    Arr a = b.array("A", {n, n});
    Var k = b.loopVar("K");
    Var j = b.loopVar("J");
    NodePtr body = b.assign(a(k, j), a(k, j) + 1.0);
    if (jOuter)
        b.add(b.loop(j, 2, n, b.loop(k, 1, Ix(j) - 1, std::move(body))));
    else
        b.add(b.loop(k, 1, n, b.loop(j, Ix(k) + 1, n, std::move(body))));
    return b.finish();
}

TEST(TripModel, FreshAnalysisAfterPermutationSeesNewHeaders)
{
    Program p = triangularKJ(false);
    Node *outer = p.body[0].get();
    Node *inner = outer->body[0].get();
    NestAnalysis before(p, outer, cls4());
    EXPECT_EQ(before.trip(outer).str(), "n");
    EXPECT_EQ(before.trip(inner).str(), "n - 1");

    PermuteResult pr = permuteToMemoryOrder(before, outer);
    ASSERT_TRUE(pr.changed);
    ASSERT_EQ(p.varName(outer->var), "J");

    // The same nodes now carry J = 2..N outside K = 1..J-1; a fresh
    // analysis prices them like the nest written that way.
    Program direct = triangularKJ(true);
    Node *dOuter = direct.body[0].get();
    NestAnalysis want(direct, dOuter, cls4());
    NestAnalysis after(p, outer, cls4());
    EXPECT_EQ(after.trip(outer).str(), "n - 1");
    EXPECT_EQ(after.trip(outer).str(), want.trip(dOuter).str());
    EXPECT_EQ(after.trip(inner).str(),
              want.trip(dOuter->body[0].get()).str());
    EXPECT_EQ(nestCost(after).str(), nestCost(want).str());

    // Compound reports the permuted nest's cost, not the original's.
    Program q = triangularKJ(false);
    const std::string origCost =
        nestCost(NestAnalysis(q, q.body[0].get(), cls4())).str();
    CompoundOptions opts;
    opts.verify = false;
    CompoundResult res = compoundTransform(q, cls4(), opts);
    ASSERT_EQ(res.nests.size(), 1u);
    EXPECT_TRUE(res.nests[0].usedPermutation);
    EXPECT_EQ(res.nests[0].origCost.str(), origCost);
    EXPECT_EQ(res.nests[0].finalCost.str(), nestCost(want).str());
    EXPECT_NE(origCost, nestCost(want).str());
}

TEST(TripModel, AddLoopForgetsMemoizedTrips)
{
    Program p = triangularKJ(false);
    Node *kLoop = p.body[0].get();
    Node *jLoop = kLoop->body[0].get();
    ModelParams avg = cls4();
    avg.policy = TriangularPolicy::Average;
    TripModel tm(p, avg);
    tm.addLoop(kLoop);
    tm.addLoop(jLoop);

    obs::Counter &computed = obs::counter("model.trip.computations");
    const uint64_t c0 = computed.value();
    // E[K] = (N + 1) / 2, so J = K+1..N runs N/2 - 1/2 times.
    EXPECT_EQ(tm.trip(jLoop).str(), "0.5n - 0.5");
    EXPECT_EQ(tm.trip(jLoop).str(), "0.5n - 0.5");
    EXPECT_EQ(computed.value() - c0, 1u);

    // Redefine K as 1..10: E[K] = 5.5 and the memo must not answer.
    NodePtr shortK = cloneNode(*kLoop);
    shortK->ub = AffineExpr(10);
    tm.addLoop(shortK.get());
    EXPECT_EQ(tm.trip(jLoop).str(), "n - 5.5");
    EXPECT_EQ(computed.value() - c0, 2u);
}

/** A 13-deep nest, past Poly's inline capacity: its LoopCosts are
 *  degree-13 polynomials. */
Program
deepNest()
{
    constexpr int kDepth = 13;
    ProgramBuilder b("deep");
    Var n = b.param("N", 2);
    Arr a = b.array("A", {n, n});
    Arr bb = b.array("B", {n, n});
    Arr c = b.array("C", {n, n});
    std::vector<Var> v;
    for (int d = 1; d <= kDepth; ++d)
        v.push_back(b.loopVar("I" + std::to_string(d)));
    // A(I1,I2) = A(I1,I2) + B(I3,I4) + C(I13,I1), with I6 = I5+1..N.
    NodePtr body = b.assign(a(v[0], v[1]), a(v[0], v[1]) +
                                               bb(v[2], v[3]) +
                                               c(v[kDepth - 1], v[0]));
    for (int d = kDepth - 1; d >= 0; --d) {
        Ix lb = d == 5 ? Ix(v[4]) + 1 : Ix(1);
        body = b.loop(v[d], lb, n, std::move(body));
    }
    b.add(std::move(body));
    return b.finish();
}

TEST(LoopCost, NestDeeperThanPolyInlineCapacity)
{
    Program p = deepNest();
    NestAnalysis na(p, p.body[0].get(), cls4());
    ASSERT_EQ(na.loops().size(), 13u);
    static_assert(13 > Poly::kInlineCoeffs, "the nest must spill");

    std::vector<std::string> costs;
    for (const Node *l : na.loops())
        costs.push_back(p.varName(l->var) + ": " + na.loopCost(l).str());
    const std::vector<std::string> wantCosts = {
        "I1: 1.25n^13 - 0.25n^12 - n^11",
        "I2: n^13 + n^12 - 2n^11",
        "I3: 0.25n^13 + 1.75n^12 - 2n^11",
        "I4: n^13 + n^12 - 2n^11",
        "I5: 3n^12 - 3n^11",
        "I6: 3n^12",
        "I7: 3n^12 - 3n^11",
        "I8: 3n^12 - 3n^11",
        "I9: 3n^12 - 3n^11",
        "I10: 3n^12 - 3n^11",
        "I11: 3n^12 - 3n^11",
        "I12: 3n^12 - 3n^11",
        "I13: 0.25n^13 + 1.75n^12 - 2n^11",
    };
    EXPECT_EQ(costs, wantCosts);

    std::string order;
    for (const Node *l : na.memoryOrder())
        order += p.varName(l->var) + " ";
    EXPECT_EQ(order, "I1 I2 I4 I3 I13 I6 I5 I7 I8 I9 I10 I11 I12 ");
    EXPECT_EQ(nestCost(na).str(), "0.25n^13 + 1.75n^12 - 2n^11");
    EXPECT_EQ(idealNestCost(na).str(), "3n^12 - 3n^11");
}

TEST(NestCost, MatmulCurrentAndIdeal)
{
    Program bad = makeMatmul("IKJ", 128);  // worst order: J innermost
    NestAnalysis na(bad, bad.body[0].get(), cls4());
    Poly cur = nestCost(na);
    Poly ideal = idealNestCost(na);
    EXPECT_DOUBLE_EQ(cur.coeff(3), 2.0);    // J innermost: 2n^3
    EXPECT_DOUBLE_EQ(ideal.coeff(3), 0.5);  // I innermost: n^3/2
    EXPECT_FALSE(nestInMemoryOrder(na));
    EXPECT_FALSE(innermostInMemoryOrder(na));

    Program good = makeMatmul("JKI", 128);
    NestAnalysis ng(good, good.body[0].get(), cls4());
    EXPECT_TRUE(nestInMemoryOrder(ng));
    EXPECT_TRUE(innermostInMemoryOrder(ng));
}

TEST(AccessStats, ClassifiesGroups)
{
    Program p = makeMatmul("JKI", 64);
    NestAnalysis na(p, p.body[0].get(), cls4());
    AccessStats s = gatherAccessStats(na);
    // Inner loop I: C and A consecutive, B invariant.
    EXPECT_EQ(s.totalGroups(), 3);
    EXPECT_EQ(s.invGroups, 1);
    EXPECT_EQ(s.unitGroups, 2);
    EXPECT_EQ(s.noneGroups, 0);
    // C's group has two references.
    EXPECT_EQ(s.unitRefs, 3);
    EXPECT_DOUBLE_EQ(s.refsPerGroup(), 4.0 / 3.0);
}

} // namespace
} // namespace memoria
