/**
 * @file
 * Fortran-flavoured pretty printer for the loop-nest IR.
 */

#ifndef MEMORIA_IR_PRINTER_HH
#define MEMORIA_IR_PRINTER_HH

#include <string>

#include "ir/program.hh"

namespace memoria {

/** Render a whole program, declarations included. */
std::string printProgram(const Program &prog);

/** Render an array reference like "A(I,K+1)". */
std::string printRef(const Program &prog, const ArrayRef &ref);

/** Render a value tree. */
std::string printValue(const Program &prog, const ValuePtr &v);

} // namespace memoria

#endif // MEMORIA_IR_PRINTER_HH
