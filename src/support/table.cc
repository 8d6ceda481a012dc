#include "support/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "support/logging.hh"

namespace memoria {

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    MEMORIA_ASSERT(cells.size() == headers_.size(),
                   "row width " << cells.size() << " != header width "
                                << headers_.size());
    rows_.push_back(std::move(cells));
}

void
TextTable::addRule()
{
    rows_.emplace_back();
}

std::string
TextTable::str() const
{
    std::vector<size_t> widths(headers_.size(), 0);
    for (size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto renderRow = [&](const std::vector<std::string> &row) {
        std::ostringstream os;
        for (size_t c = 0; c < row.size(); ++c) {
            os << (c == 0 ? "| " : " | ");
            os << std::left << std::setw(static_cast<int>(widths[c]))
               << row[c];
        }
        os << " |\n";
        return os.str();
    };

    auto renderRule = [&]() {
        std::ostringstream os;
        for (size_t c = 0; c < widths.size(); ++c) {
            os << (c == 0 ? "|-" : "-|-");
            os << std::string(widths[c], '-');
        }
        os << "-|\n";
        return os.str();
    };

    std::ostringstream os;
    os << renderRule() << renderRow(headers_) << renderRule();
    for (const auto &row : rows_) {
        if (row.empty())
            os << renderRule();
        else
            os << renderRow(row);
    }
    os << renderRule();
    return os.str();
}

std::string
TextTable::num(double v, int precision)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
}

std::string
asciiBar(double fraction, int width)
{
    fraction = std::clamp(fraction, 0.0, 1.0);
    int filled = static_cast<int>(fraction * width + 0.5);
    return std::string(filled, '#') + std::string(width - filled, ' ');
}

} // namespace memoria
