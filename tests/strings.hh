/**
 * @file
 * String helpers shared by the test suites.
 */

#ifndef MEMORIA_TESTS_STRINGS_HH
#define MEMORIA_TESTS_STRINGS_HH

#include <string>

namespace memoria {

/** `prefix` followed by the decimal `i` ("k3"). Built by appending:
 *  GCC 12 misreports `"literal" + std::string&&` under -Wrestrict. */
inline std::string
numbered(const char *prefix, int i)
{
    std::string s = prefix;
    s += std::to_string(i);
    return s;
}

} // namespace memoria

#endif // MEMORIA_TESTS_STRINGS_HH
