/** Allocation budgets of the cost model and the front end: heap
 *  allocations per nest made by Compound with verification off, and
 *  per program made by the parser, over the kernels and the corpus.
 *
 *  This binary replaces the global operator new/delete with counting
 *  versions over malloc/free, so the budget counts every allocation the
 *  optimizer makes, inside the standard library too. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "frontend/parser.hh"
#include "harness/batch.hh"
#include "ir/printer.hh"
#include "transform/compound.hh"

namespace {

std::atomic<uint64_t> gNews{0};

void *
countedMalloc(std::size_t size) noexcept
{
    gNews.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
countedNew(std::size_t size)
{
    if (void *p = countedMalloc(size))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Every replaceable form that allocates without extended alignment, so
// that no form reaches a sanitizer's own operator new and then this
// file's operator delete (std::stable_sort uses the nothrow form).
void *operator new(std::size_t size) { return countedNew(size); }
void *operator new[](std::size_t size) { return countedNew(size); }
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return countedMalloc(size);
}
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace memoria {
namespace {

/** The kernels at N = 24 and the corpus at extent 16, built fresh. */
std::vector<Program>
budgetPrograms()
{
    std::vector<Program> out;
    for (const auto &inputs :
         {harness::kernelInputs(24), harness::corpusInputs(16)})
        for (const harness::BatchInput &in : inputs) {
            Result<Program> r = in.load();
            out.push_back(std::move(r.value()));
        }
    return out;
}

/** Compound over every program; returns {allocations, nests}. */
std::pair<uint64_t, uint64_t>
compoundAllocations()
{
    std::vector<Program> progs = budgetPrograms();
    ModelParams params;
    CompoundOptions opts;
    opts.verify = false;
    uint64_t nests = 0;
    const uint64_t before = gNews.load();
    for (Program &p : progs)
        nests += compoundTransform(p, params, opts).nests.size();
    return {gNews.load() - before, nests};
}

TEST(AllocBudget, CompoundPerNestWithoutVerify)
{
    compoundAllocations();  // first-use registrations stay out
    auto [allocs, nests] = compoundAllocations();
    ASSERT_GT(nests, 100u);
    const double perNest = static_cast<double>(allocs) / nests;
    // Measured 310 per nest with inline Poly coefficients and the trip
    // memo, and 848 without them; the bound leaves ~25% headroom.
    EXPECT_LT(perNest, 390.0)
        << allocs << " allocations over " << nests << " nests";
}

/** Parses the printed text of every program; returns {allocations,
 *  programs}. */
std::pair<uint64_t, uint64_t>
parseAllocations()
{
    std::vector<std::string> texts;
    for (const Program &p : budgetPrograms())
        texts.push_back(printProgram(p));
    const uint64_t before = gNews.load();
    for (const std::string &text : texts) {
        std::optional<Program> p = parseProgram(text);
        EXPECT_TRUE(p.has_value());
    }
    return {gNews.load() - before, texts.size()};
}

TEST(AllocBudget, ParsePerProgram)
{
    parseAllocations();  // first-use registrations stay out
    auto [allocs, programs] = parseAllocations();
    ASSERT_GT(programs, 40u);
    const double perProgram = static_cast<double>(allocs) / programs;
    // Measured 1590 per program with one expression grammar that
    // builds Value nodes only where a non-affine operator needs them
    // and source-viewing tokens, and 3870 when every expression went
    // through a Value tree and every token owned its text; the bound
    // is unchanged from 1735 plus ~25% headroom.
    EXPECT_LT(perProgram, 2170.0)
        << allocs << " allocations over " << programs << " programs";
}

} // namespace
} // namespace memoria
