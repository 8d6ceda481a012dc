/**
 * @file
 * Hybrid distance/direction dependence vectors.
 *
 * A DepVector describes, level by level from the outermost to the
 * innermost common loop, the relation between the source and sink
 * iterations of a data dependence. Each level carries a direction set
 * and, when a test could pin it down exactly, a distance (sink minus
 * source) — the "hybrid distance/direction vector with the most precise
 * information derivable" of Section 3.1 of the paper.
 */

#ifndef MEMORIA_DEPENDENCE_VECTOR_HH
#define MEMORIA_DEPENDENCE_VECTOR_HH

#include <cstdint>
#include <string>
#include <vector>

namespace memoria {

/** Direction bits: source-iteration vs sink-iteration at one level. */
enum Dir : uint8_t
{
    DirLT = 1,  ///< source iteration precedes sink iteration (<)
    DirEQ = 2,  ///< same iteration (=)
    DirGT = 4,  ///< source iteration follows sink iteration (>)
};

/** Set of possible directions at one level. */
using DirSet = uint8_t;

constexpr DirSet kDirAll = DirLT | DirEQ | DirGT;

/** One level of a dependence vector. */
struct DepLevel
{
    DirSet dirs = kDirAll;

    /** True when the distance below is exact. */
    bool hasDist = false;

    /** sink iteration minus source iteration (valid when hasDist). */
    int64_t dist = 0;

    /** A level with a known exact distance. */
    static DepLevel exact(int64_t d);

    /** A level with a direction set only. */
    static DepLevel dir(DirSet ds);

    bool canLT() const { return dirs & DirLT; }
    bool canEQ() const { return dirs & DirEQ; }
    bool canGT() const { return dirs & DirGT; }
    bool isLT() const { return dirs == DirLT; }
    bool isEQ() const { return dirs == DirEQ; }
    bool isGT() const { return dirs == DirGT; }

    /** The level as seen from the opposite direction (swap < and >). */
    DepLevel reversed() const;

    bool operator==(const DepLevel &o) const;
};

/**
 * A dependence vector over the common loops of two references,
 * outermost level first.
 */
struct DepVector
{
    std::vector<DepLevel> levels;

    size_t size() const { return levels.size(); }

    /** Every level is exactly '='. */
    bool allEq() const;

    /** Could be lexicographically negative for some direction choice. */
    bool maybeNegative() const;

    /** The vector of the reversed dependence (sink -> source). */
    DepVector reversed() const;

    /** Negate one level (the effect of reversing that loop). */
    DepVector withLevelReversed(int level) const;

    /** Render like "(<, =, 2)". */
    std::string str() const;

    bool operator==(const DepVector &o) const;
};

} // namespace memoria

#endif // MEMORIA_DEPENDENCE_VECTOR_HH
