/**
 * @file
 * Minimal ASCII table renderer used by the CLI and the bench harnesses
 * to print paper-style tables (Tables I, III–IX of the paper).
 */

#ifndef LLL_UTIL_TABLE_HH
#define LLL_UTIL_TABLE_HH

#include <string>
#include <vector>

namespace lll
{

/**
 * Column-aligned ASCII table.
 *
 * Usage:
 * @code
 *   Table t({"Proc", "Source", "BW (GB/s)"});
 *   t.addRow({"SKL", "base", "106.9 (84%)"});
 *   std::cout << t.render();
 * @endcode
 */
class Table
{
  public:
    explicit Table(std::vector<std::string> header);

    /** Append a data row; must have the same arity as the header. */
    void addRow(std::vector<std::string> row);

    /** Append a horizontal separator between row groups (a trailing
     *  one merges into the closing rule). */
    void addSeparator();

    /** Optional caption printed above the table. */
    void setCaption(std::string caption) { caption_ = std::move(caption); }

    /** Render the full table to a string. */
    std::string render() const;

  private:
    std::vector<std::string> header_;
    /** Empty vector encodes a separator row. */
    std::vector<std::vector<std::string>> rows_;
    std::string caption_;
};

/** Format a double with @p decimals fractional digits. */
std::string fmtDouble(double v, int decimals = 2);

/** Format "value (pct%)" the way the paper's BW column reads. */
std::string fmtBwPct(double bw_gbs, double peak_gbs);

/** Format a speedup like "1.4x". */
std::string fmtSpeedup(double s);

} // namespace lll

#endif // LLL_UTIL_TABLE_HH
