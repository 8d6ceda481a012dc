/**
 * @file
 * Reference evaluator for the test suite.
 *
 * A deliberately naive recursive walk over the pointer-based IR, kept
 * as ground truth for the interpreter's bytecode tape
 * (interp/tape.hh). It shares no execution code with the tape: it
 * takes only the initial array contents and virtual base addresses
 * from the public Interpreter::arrayData / Interpreter::arrayBase, so
 * both start from the same memory image, and reports every access to
 * a MemoryListener one call at a time.
 *
 * Evaluation order is spelled out rather than left to the C++
 * compiler: a statement evaluates its right-hand side, then the
 * written reference's subscripts (first dimension first, each
 * bounds-checked before the next is evaluated); every binary operand
 * is evaluated kids[0] then kids[1] into a local before the two are
 * combined.
 */

#ifndef MEMORIA_TESTS_REFERENCE_INTERP_HH
#define MEMORIA_TESTS_REFERENCE_INTERP_HH

#include <cstdint>

#include "cachesim/cache.hh"
#include "check/diag.hh"
#include "interp/interp.hh"
#include "ir/program.hh"

namespace memoria {

/** Outcome of one reference execution. */
struct ReferenceRun
{
    /** A program fault (same codes and messages as Interpreter::run),
     *  else ok. */
    Status status;
    /** Counters up to the end of the run, or up to the fault. */
    ExecStats stats;
    /** FNV-1a over the bit patterns of every array, one 64-bit word
     *  per element with its high half folded into its low half, in
     *  the order of Interpreter::checksum. Zero when
     *  the binding has a non-positive extent. */
    uint64_t checksum = 0;
};

/** Execute `prog` at its bound parameter values from the initial data
 *  of `seed` (Interpreter::setInitSeed), reporting accesses to
 *  `listener` (null for none). */
ReferenceRun runReference(const Program &prog,
                          MemoryListener *listener = nullptr,
                          uint64_t seed = 0);

} // namespace memoria

#endif // MEMORIA_TESTS_REFERENCE_INTERP_HH
