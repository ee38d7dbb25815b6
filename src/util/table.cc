#include "util/table.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace lll
{

Table::Table(std::vector<std::string> header)
    : header_(std::move(header))
{
    lll_assert(!header_.empty(), "table needs at least one column");
}

void
Table::addRow(std::vector<std::string> row)
{
    lll_assert(row.size() == header_.size(),
               "row arity %zu != header arity %zu", row.size(),
               header_.size());
    rows_.push_back(std::move(row));
}

void
Table::addSeparator()
{
    rows_.emplace_back();
}

std::string
Table::render() const
{
    std::vector<size_t> widths(header_.size());
    for (size_t c = 0; c < header_.size(); ++c)
        widths[c] = header_[c].size();
    for (const auto &row : rows_) {
        for (size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    auto rule = [&] {
        std::string s = "+";
        for (size_t w : widths)
            s += std::string(w + 2, '-') + "+";
        s += "\n";
        return s;
    };
    auto line = [&](const std::vector<std::string> &cells) {
        std::string s = "|";
        for (size_t c = 0; c < widths.size(); ++c) {
            const std::string &v = c < cells.size() ? cells[c] : "";
            s += " " + v + std::string(widths[c] - v.size(), ' ') + " |";
        }
        s += "\n";
        return s;
    };

    std::ostringstream out;
    if (!caption_.empty())
        out << caption_ << "\n";
    out << rule() << line(header_) << rule();
    for (size_t r = 0; r < rows_.size(); ++r) {
        if (!rows_[r].empty())
            out << line(rows_[r]);
        else if (r + 1 < rows_.size()) // the closing rule ends the table
            out << rule();
    }
    out << rule();
    return out.str();
}

std::string
fmtDouble(double v, int decimals)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
    return buf;
}

std::string
fmtBwPct(double bw_gbs, double peak_gbs)
{
    char buf[64];
    int pct = static_cast<int>(bw_gbs / peak_gbs * 100.0 + 0.5);
    std::snprintf(buf, sizeof(buf), "%.1f (%d%%)", bw_gbs, pct);
    return buf;
}

std::string
fmtSpeedup(double s)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.2fx", s);
    return buf;
}

} // namespace lll
