/**
 * The interpreter's bytecode tape against the independent reference
 * evaluator (tests/reference_interp.hh).
 *
 * Every kernel, every corpus program and fuzz seeds 1..500 — plus
 * each one's Compound-transformed variant — run through both, and the
 * whole observable surface must agree: ExecStats, array checksum, the
 * exact Diag text of a fault, and the RS/6000 and i860 cache counters
 * and modeled cycles. The reference feeds two plain Caches one access
 * at a time; the tape goes through the product's batched
 * multi-configuration sweep. Labelled `slow`.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cachesim/cache.hh"
#include "check/fuzz.hh"
#include "interp/interp.hh"
#include "ir/builder.hh"
#include "reference_interp.hh"
#include "suite/corpus.hh"
#include "suite/kernels.hh"
#include "transform/compound.hh"

namespace memoria {
namespace {

/** Records the access stream in order. */
class Recorder final : public MemoryListener
{
  public:
    void
    access(uint64_t addr, int size, bool isWrite) override
    {
        stream.push_back({addr, static_cast<uint32_t>(size), isWrite});
    }

    std::vector<AccessRecord> stream;
};

/** Every kernel of suite/kernels.hh at extent `n`. */
std::vector<Program>
kernelPrograms(int64_t n)
{
    std::vector<Program> progs;
    for (const char *order : {"IJK", "IKJ", "JKI"})
        progs.push_back(makeMatmul(order, n));
    progs.push_back(makeCholeskyKIJ(n));
    progs.push_back(makeCholeskyKJI(n));
    progs.push_back(makeAdiScalarized(n));
    progs.push_back(makeAdiFused(n));
    progs.push_back(makeErlebacherDistributed(n));
    progs.push_back(makeErlebacherHand(n));
    progs.push_back(makeGmtry(n));
    progs.push_back(makeSimpleHydro(n));
    progs.push_back(makeVpenta(n));
    progs.push_back(makeJacobiBadOrder(n));
    return progs;
}

/** C(I) = op(A(I), B(I)) over I = 1..4, with A, B, C declared in that
 *  order. */
Program
makeBinaryProgram(const std::string &name,
                  Val (*op)(const Val &, const Val &))
{
    ProgramBuilder b(name);
    Var n = b.param("N", 4);
    Arr a = b.array("A", {n});
    Arr bb = b.array("B", {n});
    Arr c = b.array("C", {n});
    Var i = b.loopVar("I");
    b.add(b.loop(i, 1, n, b.assign(c(i), op(a(i), bb(i)))));
    return b.finish();
}

/** Array name each access of `stream` falls in, in order. */
std::string
arrayOrder(const Program &p, const std::vector<AccessRecord> &stream)
{
    Interpreter layout(p);
    std::string order;
    for (const AccessRecord &r : stream) {
        ArrayId hit = -1;
        for (size_t a = 0; a < p.arrays.size(); ++a) {
            uint64_t base = layout.arrayBase(static_cast<ArrayId>(a));
            uint64_t bytes = layout.arrayElems(static_cast<ArrayId>(a)) *
                             p.arrays[a].elemSize;
            if (r.addr >= base && r.addr < base + bytes)
                hit = static_cast<ArrayId>(a);
        }
        order += hit < 0 ? "?" : p.arrays[hit].name;
    }
    return order;
}

TEST(ReferenceOrder, MinMaxLoadTheLeftOperandFirst)
{
    // MIN and MAX operands are evaluated kids[0] then kids[1], like
    // every other binary operator: A loads before B, then C stores.
    // std::min(eval(k0), eval(k1)) leaves that order to the compiler,
    // and GCC loads B first.
    using BinaryOp = Val (*)(const Val &, const Val &);
    for (BinaryOp op : {BinaryOp(&minv), BinaryOp(&maxv)}) {
        Program p = makeBinaryProgram(op == &minv ? "min" : "max", op);

        Recorder tape;
        Interpreter interp(p);
        ASSERT_TRUE(interp.run(&tape).ok());
        EXPECT_EQ(arrayOrder(p, tape.stream), "ABCABCABCABC") << p.name;

        Recorder ref;
        ASSERT_TRUE(runReference(p, &ref).status.ok());
        EXPECT_EQ(arrayOrder(p, ref.stream), "ABCABCABCABC") << p.name;
    }
}

TEST(ReferenceOrder, StreamsMatchAccessForAccess)
{
    // The cache counters below summarize the stream; on small programs
    // compare the streams themselves.
    for (const Program &p : kernelPrograms(6)) {
        Recorder tape;
        Interpreter interp(p);
        ASSERT_TRUE(interp.run(&tape).ok()) << p.name;
        Recorder ref;
        ASSERT_TRUE(runReference(p, &ref).status.ok()) << p.name;
        ASSERT_EQ(tape.stream.size(), ref.stream.size()) << p.name;
        for (size_t k = 0; k < ref.stream.size(); ++k) {
            ASSERT_EQ(tape.stream[k].addr, ref.stream[k].addr)
                << p.name << " access " << k;
            ASSERT_EQ(tape.stream[k].size, ref.stream[k].size)
                << p.name << " access " << k;
            ASSERT_EQ(tape.stream[k].isWrite, ref.stream[k].isWrite)
                << p.name << " access " << k;
        }
    }
}

/** Feeds one reference access to every cache. */
class FanOut final : public MemoryListener
{
  public:
    explicit FanOut(std::vector<Cache> &caches) : caches_(caches) {}

    void
    access(uint64_t addr, int size, bool isWrite) override
    {
        for (Cache &c : caches_)
            c.access(addr, size, isWrite);
    }

  private:
    std::vector<Cache> &caches_;
};

/** Compares one program under both evaluators; counts comparisons. */
class Differential
{
  public:
    void
    compare(const std::string &name, const Program &prog)
    {
        ++checked;
        Result<SweepResult> tape = tryRunWithCaches(prog, configs_);

        std::vector<Cache> caches;
        for (const CacheConfig &c : configs_)
            caches.emplace_back(c);
        FanOut fan(caches);
        ReferenceRun ref = runReference(prog, &fan);

        ASSERT_EQ(tape.ok(), ref.status.ok())
            << name << ": tape "
            << (tape.ok() ? "runs" : tape.diag().str()) << ", reference "
            << (ref.status.ok() ? "runs" : ref.status.diag().str());
        if (!tape.ok()) {
            EXPECT_EQ(tape.diag().str(), ref.status.diag().str()) << name;
            return;
        }
        const SweepResult &t = tape.value();
        EXPECT_EQ(t.exec.stmtsExecuted, ref.stats.stmtsExecuted) << name;
        EXPECT_EQ(t.exec.memRefs, ref.stats.memRefs) << name;
        EXPECT_EQ(t.exec.loopIterations, ref.stats.loopIterations)
            << name;
        EXPECT_EQ(t.checksum, ref.checksum) << name;
        ASSERT_EQ(t.cache.size(), caches.size()) << name;
        const MachineModel machine;
        for (size_t c = 0; c < caches.size(); ++c) {
            const CacheStats &x = t.cache[c];
            const CacheStats &y = caches[c].stats();
            const std::string where = name + " on " + configs_[c].name;
            EXPECT_EQ(x.accesses, y.accesses) << where;
            EXPECT_EQ(x.hits, y.hits) << where;
            EXPECT_EQ(x.misses, y.misses) << where;
            EXPECT_EQ(x.coldMisses, y.coldMisses) << where;
            EXPECT_EQ(x.evictions, y.evictions) << where;
            double cycles =
                machine.cyclesPerStmt * ref.stats.stmtsExecuted +
                machine.cyclesPerRef * ref.stats.memRefs +
                machine.missPenalty * y.misses;
            EXPECT_EQ(t.cycles[c], cycles) << where;
        }
    }

    /** The program, then its Compound-transformed variant. Verification
     *  is off: the oracle itself interprets, and a variant Compound
     *  would have rolled back must still agree between evaluators. */
    void
    compareBoth(const std::string &name, Program prog)
    {
        compare(name, prog);
        ModelParams params;
        CompoundOptions copts;
        copts.verify = false;
        compoundTransform(prog, params, copts);
        compare(name + "#opt", prog);
    }

    int checked = 0;

  private:
    const std::vector<CacheConfig> configs_{CacheConfig::rs6000(),
                                            CacheConfig::i860()};
};

TEST(ReferenceDifferential, Kernels)
{
    std::vector<Program> progs = kernelPrograms(24);
    Differential d;
    for (Program &p : progs) {
        std::string name = p.name;
        d.compareBoth(name, std::move(p));
    }
    EXPECT_EQ(d.checked, 2 * static_cast<int>(progs.size()));
}

TEST(ReferenceDifferential, Corpus)
{
    Differential d;
    for (const CorpusSpec &spec : corpusSpecs())
        d.compareBoth(spec.name, buildCorpusProgram(spec, 16));
    EXPECT_EQ(d.checked, 2 * static_cast<int>(corpusSpecs().size()));
}

TEST(ReferenceDifferential, FuzzSeeds1To500)
{
    // Seed 500 exposes an evaluator that loads MIN/MAX operands right
    // first (i860 misses 449 vs 451); keep it in the range.
    Differential d;
    for (uint64_t seed = 1; seed <= 500; ++seed)
        d.compareBoth("fuzz-" + std::to_string(seed), fuzzProgram(seed));
    EXPECT_EQ(d.checked, 1000);
}

} // namespace
} // namespace memoria
