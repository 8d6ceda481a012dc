/**
 * @file
 * Plain-text table formatting for the benchmark harnesses.
 *
 * Every bench binary regenerates one of the paper's tables or figures;
 * TextTable renders aligned rows in the style of the paper so outputs can
 * be compared side by side with the published numbers.
 */

#ifndef MEMORIA_SUPPORT_TABLE_HH
#define MEMORIA_SUPPORT_TABLE_HH

#include <string>
#include <vector>

namespace memoria {

/** Column-aligned plain-text table with an optional title and rules. */
class TextTable
{
  public:
    /** Create a table with the given column headers. */
    explicit TextTable(std::vector<std::string> headers);

    /** Append a data row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Append a horizontal rule between row groups. */
    void addRule();

    /** Render the whole table. */
    std::string str() const;

    /** Format a double with the given precision. */
    static std::string num(double v, int precision = 2);

  private:
    std::vector<std::string> headers_;
    /** Empty vector encodes a rule row. */
    std::vector<std::vector<std::string>> rows_;
};

/** Render a horizontal ASCII bar of the given width fraction. */
std::string asciiBar(double fraction, int width);

} // namespace memoria

#endif // MEMORIA_SUPPORT_TABLE_HH
