/**
 * @file
 * Program optimizations (paper §III-C) and sets of them.
 *
 * An OptSet names the state of a code variant: which optimizations have
 * been applied on top of the base source.  Workload models translate an
 * OptSet into a concrete KernelSpec; the recipe engine reasons about
 * which Opt to try next.
 */

#ifndef LLL_WORKLOADS_OPTIMIZATION_HH
#define LLL_WORKLOADS_OPTIMIZATION_HH

#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hh"

namespace lll::workloads
{

/** The program optimizations the paper's recipe reasons about. */
enum class Opt : uint8_t
{
    Vectorize,      //!< SIMD (incl. gather/scatter + predication)
    Smt2,           //!< 2-way SMT / hyperthreading
    Smt4,           //!< 4-way SMT (KNL)
    SwPrefetchL2,   //!< software prefetch into the L2
    Tiling,         //!< loop tiling / cache blocking
    UnrollJam,      //!< register tiling
    Fusion,         //!< loop fusion
    Distribution,   //!< loop distribution (anti-fusion)
};

/** Every Opt, in declaration order. */
inline constexpr Opt kAllOpts[] = {
    Opt::Vectorize, Opt::Smt2,      Opt::Smt4,   Opt::SwPrefetchL2,
    Opt::Tiling,    Opt::UnrollJam, Opt::Fusion, Opt::Distribution,
};

const char *optName(Opt opt);

/** Short label used in table rows ("vect", "2-ht", "l2-pref", ...). */
const char *optShortName(Opt opt);

/** Inverse of optShortName(); nullopt for an unknown token.  The CLI
 *  variant parser and the result-cache deserializer share it. */
std::optional<Opt> optFromShortName(const std::string &name);

/** True if applying @p opt tends to increase MLP (paper §III-C). */
bool increasesMlp(Opt opt);

/** True if applying @p opt tends to reduce MSHRQ occupancy. */
bool reducesOccupancy(Opt opt);

/**
 * An ordered set of applied optimizations.
 */
class OptSet
{
  public:
    OptSet() = default;
    OptSet(std::initializer_list<Opt> opts);

    bool has(Opt opt) const;

    /** A copy with @p opt added (idempotent; Smt2/Smt4 replace each
     *  other). */
    OptSet with(Opt opt) const;

    /** SMT ways implied by the set (1, 2 or 4). */
    unsigned smtWays() const;

    /** Paper-style label: "base", "+ vect", "+ vect, 2-ht", ... */
    std::string label() const;

    bool empty() const { return opts_.empty(); }
    const std::vector<Opt> &opts() const { return opts_; }

    bool operator==(const OptSet &o) const { return opts_ == o.opts_; }

  private:
    std::vector<Opt> opts_;   //!< in application order, no duplicates
};

/** An OptSet on the wire (util/fields.hh): its short names, in order. */
std::vector<std::string> toWire(const OptSet &opts);

/** The OptSet @p names spell; InvalidArgument on an unknown name. */
[[nodiscard]] util::Status fromWire(const std::vector<std::string> &names,
                                   OptSet &opts);

} // namespace lll::workloads

#endif // LLL_WORKLOADS_OPTIMIZATION_HH
