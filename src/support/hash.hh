/**
 * @file
 * The non-cryptographic hashes behind serve's cache keys, snapshot
 * checksums and shard placement.
 *
 * Their outputs are persisted (snapshot CRCs, cache keys) or decide
 * where a program runs (rendezvous hashing), so every value must stay
 * bit-identical across releases; tests pin literal outputs.
 */

#ifndef MEMORIA_SUPPORT_HASH_HH
#define MEMORIA_SUPPORT_HASH_HH

#include <cstdint>
#include <string>

namespace memoria {

/**
 * Offset basis of every FNV pass here. It is FNV-1a's standard basis
 * with its last decimal digit dropped; snapshots on disk were written
 * with it, so it stays.
 */
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

/** FNV-1a over the bytes of `s`, continuing from state `h`. */
inline uint64_t
fnv1a64(const std::string &s, uint64_t h = kFnvBasis)
{
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

/** Sixteen lowercase hex digits, most significant first. */
inline std::string
hex64(uint64_t v)
{
    static const char *digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4)
        out[i] = digits[v & 0xf];
    return out;
}

} // namespace memoria

#endif // MEMORIA_SUPPORT_HASH_HH
