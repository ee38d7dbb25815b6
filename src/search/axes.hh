/**
 * @file
 * The design-space axis grammar behind `lll search` (DESIGN.md §17).
 *
 * An axis names one mutable dimension of a platform's memory system
 * (an MSHR count, the bank count, a prefetcher knob, a latency point)
 * and the values to try on it:
 *
 *   l2_mshrs=4:64:*2       geometric range: 4 8 16 32 64
 *   banks=4:20:+4          arithmetic range: 4 8 12 16 20
 *   pf_degree=2,4,8        explicit set
 *
 * A search space is the cross product of its axes, optionally extended
 * by explicit points ("l2_mshrs=6,banks=12").  Axis application keeps
 * the two layers of a Platform consistent — the paper-level metadata
 * (l1Mshrs/l2Mshrs the analyzer reads) and the simulator prototype —
 * so a candidate is a valid Platform in its own right, and its name
 * encodes the assignment ("skl~banks=8,l2_mshrs=16") so result-cache
 * stage keys and latency-profile files never collide across candidates.
 */

#ifndef LLL_SEARCH_AXES_HH
#define LLL_SEARCH_AXES_HH

#include <string>
#include <vector>

#include "platforms/platform.hh"
#include "util/status.hh"

namespace lll::search
{

/** One named dimension and the values to enumerate on it. */
struct Axis
{
    std::string name;
    std::vector<double> values;
};

/** One axis dimension the grammar understands. */
struct AxisDef
{
    const char *name;
    const char *help;
};

/** Every axis name parseAxis()/applyAxisValue() accept. */
const std::vector<AxisDef> &knownAxes();

/**
 * Parse "name=spec" where spec is `lo:hi:+step` (arithmetic),
 * `lo:hi:*factor` (geometric) or `a,b,c` (explicit set).  Values are
 * validated against the axis (counts must be positive integers, cache
 * sets a power of two, latencies positive).  Duplicate values are an
 * error — a repeated point would silently skew the cross product.
 */
[[nodiscard]] util::Result<Axis> parseAxis(const std::string &text);

/**
 * One point of the space: axis values in canonical (name-sorted)
 * order.  Canonical order makes the candidate label — and therefore
 * the enumeration, the cache keys and the output — independent of the
 * order the axes were declared in.
 */
struct Assignment
{
    std::vector<std::pair<std::string, double>> values;

    /** "banks=8,l2_mshrs=16" — canonical, name-sorted. */
    std::string label() const;
};

/**
 * Parse an explicit point "name=value,name=value" into a canonical
 * Assignment (axis names validated, values axis-checked).
 */
[[nodiscard]] util::Result<Assignment> parsePoint(const std::string &text);

/** Axes and points on the wire (util/fields.hh): the text parseAxis()
 *  and parsePoint() read. */
std::string toWire(const Axis &axis);
[[nodiscard]] util::Status fromWire(const std::string &text, Axis &axis);
std::string toWire(const Assignment &point);
[[nodiscard]] util::Status fromWire(const std::string &text,
                                    Assignment &point);

/**
 * Apply one axis value to @p platform, mutating the simulator
 * prototype and whatever paper-level metadata mirrors it (MSHR counts)
 * so platforms::validatePlatform-level consistency is preserved.
 */
[[nodiscard]] util::Status applyAxisValue(platforms::Platform &platform,
                                          const std::string &axis,
                                          double value);

/**
 * Build the candidate platform for @p assign: copy @p base, apply
 * every axis value, and rename it "<base>~<label>" so stage keys and
 * profile caches distinguish candidates.
 */
[[nodiscard]] util::Result<platforms::Platform>
applyAssignment(const platforms::Platform &base, const Assignment &assign);

} // namespace lll::search

#endif // LLL_SEARCH_AXES_HH
