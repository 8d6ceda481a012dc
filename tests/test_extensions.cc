/** Tests for the extension transformations and analyses: scalar
 *  replacement, unroll-and-jam, tiling, reversal, the
 *  reuse-distance analyzer and the two-level cache hierarchy. */

#include <gtest/gtest.h>

#include "cachesim/hierarchy.hh"
#include "cachesim/reuse.hh"
#include "dependence/graph.hh"
#include "interp/interp.hh"
#include "ir/builder.hh"
#include "ir/printer.hh"
#include "suite/kernels.hh"
#include "transform/reverse.hh"
#include "transform/scalar_replace.hh"
#include "transform/tile.hh"
#include "transform/unroll_jam.hh"

namespace memoria {
namespace {

// --------------------------------------------------- scalar replacement

TEST(ScalarReplace, MatmulInvariantB)
{
    // In JKI matmul, B(K,J) is invariant in the inner I loop.
    Program p = makeMatmul("JKI", 16);
    size_t arraysBefore = p.arrays.size();
    uint64_t before = runChecksum(p);

    ScalarReplaceStats stats = scalarReplace(p);
    EXPECT_EQ(stats.replacedReads, 1);
    EXPECT_EQ(stats.replacedReductions, 0);
    ASSERT_GT(p.arrays.size(), arraysBefore);
    EXPECT_TRUE(p.arrays.back().isRegister);

    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(interp.checksumFirstArrays(arraysBefore), before);
}

TEST(ScalarReplace, ReducesMemoryTraffic)
{
    Program orig = makeMatmul("JKI", 24);
    Program opt = orig.clone();
    scalarReplace(opt);

    SweepResult r0 = runWithCaches(orig, {CacheConfig::i860()});
    SweepResult r1 = runWithCaches(opt, {CacheConfig::i860()});
    // One of four references per iteration becomes a register access.
    EXPECT_LT(r1.exec.memRefs, r0.exec.memRefs);
    EXPECT_NEAR(static_cast<double>(r1.exec.memRefs),
                0.75 * static_cast<double>(r0.exec.memRefs),
                0.02 * static_cast<double>(r0.exec.memRefs));
}

TEST(ScalarReplace, ReductionGetsStoreback)
{
    // S(J) = S(J) + A(I,J) with I innermost: S(J) is an invariant
    // reduction; it must preload, accumulate in a register, and store
    // back so the final memory state matches.
    ProgramBuilder b("red");
    Var n = b.param("N", 12);
    Arr a = b.array("A", {n, n});
    Arr s = b.array("S", {n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 1, n,
                        b.assign(s(j), s(j) + a(i, j)))));
    Program p = b.finish();
    size_t arraysBefore = p.arrays.size();
    uint64_t before = runChecksum(p);

    ScalarReplaceStats stats = scalarReplace(p);
    EXPECT_EQ(stats.replacedReductions, 1);

    Interpreter interp(p);
    interp.run();
    EXPECT_EQ(interp.checksumFirstArrays(arraysBefore), before);
}

TEST(ScalarReplace, AliasedReferencesAreSkipped)
{
    // A(1,J) is invariant in I, but A(I,J) aliases the array: no
    // promotion.
    ProgramBuilder b("alias");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {n, n});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(j, 1, n,
                 b.loop(i, 2, n,
                        b.assign(a(i, j), a(i, j) + a(1, j)))));
    Program p = b.finish();
    ScalarReplaceStats stats = scalarReplace(p);
    EXPECT_EQ(stats.replacedReads + stats.replacedReductions, 0);
}

// ------------------------------------------------------- unroll-and-jam

TEST(UnrollJam, MatmulByTwo)
{
    Program p = makeMatmul("JKI", 16);
    uint64_t before = runChecksum(p);
    DependenceGraph g(p, collectStmts(p));
    Node *outer = p.body[0].get();
    ASSERT_TRUE(unrollAndJam(p, outer, 2, g.edges()));
    EXPECT_EQ(outer->step, 2);
    auto chain = perfectChain(outer);
    EXPECT_EQ(chain.back()->body.size(), 2u);
    EXPECT_EQ(runChecksum(p), before);
}

TEST(UnrollJam, RefusesNonDividingFactor)
{
    Program p = makeMatmul("JKI", 15);
    DependenceGraph g(p, collectStmts(p));
    EXPECT_FALSE(unrollAndJam(p, p.body[0].get(), 2, g.edges()));
}

TEST(UnrollJam, RefusesNonPermutableBand)
{
    // The wavefront pair cannot be jammed.
    ProgramBuilder b("wave");
    Var n = b.param("N", 8);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, Ix(n) + 1,
                 b.loop(j, 2, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) +
                                     a(Ix(i) - 1, Ix(j) - 1)))));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    EXPECT_FALSE(unrollAndJam(p, p.body[0].get(), 2, g.edges()));
}

TEST(UnrollJam, ComposesWithScalarReplacement)
{
    // The Section 1.1 step-3 pipeline: unroll-and-jam then scalar
    // replacement; traffic per original iteration drops.
    Program base = makeMatmul("JKI", 32);
    SweepResult r0 = runWithCaches(base, {CacheConfig::i860()});

    Program opt = base.clone();
    DependenceGraph g(opt, collectStmts(opt));
    ASSERT_TRUE(unrollAndJam(opt, opt.body[0].get(), 2, g.edges()));
    scalarReplace(opt);
    SweepResult r1 = runWithCaches(opt, {CacheConfig::i860()});

    EXPECT_EQ(r0.checksum,
              [&] {
                  Interpreter it(opt);
                  it.run();
                  return it.checksumFirstArrays(base.arrays.size());
              }());
    EXPECT_LT(r1.exec.memRefs, r0.exec.memRefs);
}

// ----------------------------------------------------------- tiling

TEST(Tile, MatmulSemanticsAndShape)
{
    Program p = makeMatmul("JKI", 32);
    uint64_t before = runChecksum(p);
    DependenceGraph g(p, collectStmts(p));
    ASSERT_TRUE(tilePerfectNest(p, p.body[0].get(), 3, 8, g.edges()));
    EXPECT_EQ(runChecksum(p), before);
    // Six loops now: three controllers striding 8, three element loops.
    auto chain = perfectChain(p.body[0].get());
    ASSERT_EQ(chain.size(), 6u);
    EXPECT_EQ(chain[0]->step, 8);
    EXPECT_EQ(chain[3]->step, 1);
}

TEST(Tile, RefusesNonDividingTile)
{
    Program p = makeMatmul("JKI", 30);
    DependenceGraph g(p, collectStmts(p));
    EXPECT_FALSE(tilePerfectNest(p, p.body[0].get(), 3, 8, g.edges()));
}

TEST(Tile, RefusesWavefrontBand)
{
    // A(I,J) = A(I-1,J+1) + A(I-1,J-1): vectors (1,-1),(1,1). The band
    // is not fully permutable, so it cannot be tiled.
    ProgramBuilder b("wave");
    Var n = b.param("N", 10);
    Arr a = b.array("A", {Ix(n) + 2, Ix(n) * 2 + 2});
    Var i = b.loopVar("I");
    Var j = b.loopVar("J");
    b.add(b.loop(i, 2, n,
                 b.loop(j, 2, n,
                        b.assign(a(i, j),
                                 a(Ix(i) - 1, Ix(j) + 1) +
                                     a(Ix(i) - 1, Ix(j) - 1)))));
    Program p = b.finish();
    DependenceGraph g(p, collectStmts(p));
    EXPECT_FALSE(bandFullyPermutable(g.edges(), 2));
    EXPECT_FALSE(tilePerfectNest(p, p.body[0].get(), 2, 2, g.edges()));
}

TEST(Tile, ReducesMissesWhenTileFits)
{
    Program base = makeMatmul("JKI", 64);
    SweepResult r0 = runWithCaches(base, {CacheConfig::i860()});
    Program tiled = base.clone();
    DependenceGraph g(tiled, collectStmts(tiled));
    ASSERT_TRUE(
        tilePerfectNest(tiled, tiled.body[0].get(), 3, 16, g.edges()));
    SweepResult r1 = runWithCaches(tiled, {CacheConfig::i860()});
    EXPECT_EQ(r0.checksum, r1.checksum);
    EXPECT_LT(r1.cache[0].misses, r0.cache[0].misses);
}

// ----------------------------------------------------------- reversal

TEST(Reverse, RoundTripIsIdentity)
{
    Program p = makeMatmul("JKI", 10);
    uint64_t before = runChecksum(p);
    Node *k = p.body[0]->body[0].get();
    reverseLoop(*k);
    EXPECT_EQ(k->step, -1);
    // Reversing the K loop of matmul changes the accumulation order of
    // a sum of integer-valued products: still exact.
    EXPECT_EQ(runChecksum(p), before);
    reverseLoop(*k);
    EXPECT_EQ(k->step, 1);
    EXPECT_EQ(runChecksum(p), before);
}

// ----------------------------------------------------- reuse distance

TEST(ReuseDistance, StreamingHasNoReuse)
{
    ReuseDistanceAnalyzer rd(32);
    for (uint64_t a = 0; a < 32 * 64; a += 32)
        rd.access(a, 8, false);
    EXPECT_EQ(rd.coldAccesses(), 64u);
    EXPECT_EQ(rd.warmAccesses(), 0u);
}

TEST(ReuseDistance, KnownDistances)
{
    ReuseDistanceAnalyzer rd(32);
    // Lines 0,1,2,0: the second access to 0 has distance 2.
    rd.access(0, 8, false);
    rd.access(32, 8, false);
    rd.access(64, 8, false);
    rd.access(0, 8, false);
    EXPECT_EQ(rd.warmAccesses(), 1u);
    EXPECT_DOUBLE_EQ(rd.meanDistance(), 2.0);
    // Fully associative capacity 2 misses; capacity 3+ hits.
    EXPECT_DOUBLE_EQ(rd.missRatio(2), 1.0);
    EXPECT_DOUBLE_EQ(rd.missRatio(3), 0.0);
}

TEST(ReuseDistance, ImmediateReuseIsDistanceZero)
{
    ReuseDistanceAnalyzer rd(32);
    rd.access(0, 8, false);
    rd.access(8, 8, false);  // same line
    EXPECT_EQ(rd.warmAccesses(), 1u);
    EXPECT_DOUBLE_EQ(rd.meanDistance(), 0.0);
    EXPECT_DOUBLE_EQ(rd.missRatio(1), 0.0);
}

TEST(ReuseDistance, AgreesWithFullyAssociativeCache)
{
    // Run matmul through both the analyzer and a fully associative
    // LRU cache; miss counts must agree (cold misses excluded).
    Program p = makeMatmul("IKJ", 12);
    Interpreter i1(p);
    ReuseDistanceAnalyzer rd(32);
    i1.run(&rd);

    CacheConfig full;
    full.sizeBytes = 64 * 32;  // 64 lines
    full.associativity = 64;   // fully associative, one set
    full.lineBytes = 32;
    Program q = makeMatmul("IKJ", 12);
    Interpreter i2(q);
    Cache cache(full);
    i2.run(&cache);

    uint64_t warmMisses = cache.stats().misses -
                          cache.stats().coldMisses;
    double predicted = rd.missRatio(64) *
                       static_cast<double>(rd.warmAccesses());
    EXPECT_DOUBLE_EQ(predicted, static_cast<double>(warmMisses));
}

TEST(ReuseDistance, OptimizationShortensDistances)
{
    Program bad = makeMatmul("IKJ", 24);
    Program good = makeMatmul("JKI", 24);
    ReuseDistanceAnalyzer rb(32), rg(32);
    Interpreter ib(bad), ig(good);
    ib.run(&rb);
    ig.run(&rg);
    EXPECT_LT(rg.meanDistance(), rb.meanDistance());
}

// ------------------------------------------------------- hierarchy

TEST(Hierarchy, L2SeesOnlyL1Misses)
{
    CacheConfig l1;
    l1.sizeBytes = 256;
    l1.associativity = 2;
    l1.lineBytes = 32;
    CacheConfig l2;
    l2.sizeBytes = 4096;
    l2.associativity = 4;
    l2.lineBytes = 32;
    CacheHierarchy h(l1, l2);
    for (int pass = 0; pass < 2; ++pass)
        for (uint64_t a = 0; a < 2048; a += 8)
            h.access(a, 8, false);
    EXPECT_EQ(h.l2().stats().accesses, h.l1().stats().misses);
    // 2KB of lines fit L2 but not L1: second pass hits in L2.
    EXPECT_GT(h.l2().stats().hits, 0u);
    double lat = h.averageLatency();
    EXPECT_GT(lat, 1.0);
    EXPECT_LT(lat, 100.0);
}

} // namespace
} // namespace memoria
