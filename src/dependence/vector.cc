#include "dependence/vector.hh"

#include <sstream>

#include "support/logging.hh"

namespace memoria {

DepLevel
DepLevel::exact(int64_t d)
{
    DepLevel l;
    l.hasDist = true;
    l.dist = d;
    l.dirs = d > 0 ? DirLT : (d < 0 ? DirGT : DirEQ);
    return l;
}

DepLevel
DepLevel::dir(DirSet ds)
{
    MEMORIA_ASSERT(ds != 0, "empty direction set");
    DepLevel l;
    l.dirs = ds;
    return l;
}

DepLevel
DepLevel::reversed() const
{
    DepLevel out = *this;
    out.dirs = static_cast<DirSet>(((dirs & DirLT) ? DirGT : 0) |
                                   (dirs & DirEQ) |
                                   ((dirs & DirGT) ? DirLT : 0));
    if (hasDist)
        out.dist = -dist;
    return out;
}

bool
DepLevel::operator==(const DepLevel &o) const
{
    return dirs == o.dirs && hasDist == o.hasDist &&
           (!hasDist || dist == o.dist);
}

bool
DepVector::allEq() const
{
    for (const auto &l : levels)
        if (!l.isEQ())
            return false;
    return true;
}

bool
DepVector::maybeNegative() const
{
    for (const auto &l : levels) {
        if (l.canGT())
            return true;
        if (!l.canEQ())
            return false;  // forced '<' here; positive for sure
    }
    return false;
}

DepVector
DepVector::reversed() const
{
    DepVector out;
    out.levels.reserve(levels.size());
    for (const auto &l : levels)
        out.levels.push_back(l.reversed());
    return out;
}

DepVector
DepVector::withLevelReversed(int level) const
{
    DepVector out = *this;
    out.levels.at(level) = out.levels.at(level).reversed();
    return out;
}

std::string
DepVector::str() const
{
    std::ostringstream os;
    os << "(";
    for (size_t i = 0; i < levels.size(); ++i) {
        if (i)
            os << ", ";
        const auto &l = levels[i];
        if (l.hasDist) {
            os << l.dist;
        } else if (l.dirs == kDirAll) {
            os << "*";
        } else {
            if (l.canLT())
                os << "<";
            if (l.canEQ())
                os << "=";
            if (l.canGT())
                os << ">";
        }
    }
    os << ")";
    return os.str();
}

bool
DepVector::operator==(const DepVector &o) const
{
    return levels == o.levels;
}

} // namespace memoria
