#include "workloads/optimization.hh"

#include <algorithm>

#include "util/logging.hh"

namespace lll::workloads
{

const char *
optName(Opt opt)
{
    switch (opt) {
      case Opt::Vectorize:    return "Vectorization";
      case Opt::Smt2:         return "2-way HT";
      case Opt::Smt4:         return "4-way HT";
      case Opt::SwPrefetchL2: return "L2 software prefetch";
      case Opt::Tiling:       return "Loop tiling";
      case Opt::UnrollJam:    return "Unroll and jam";
      case Opt::Fusion:       return "Loop fusion";
      case Opt::Distribution: return "Loop distribution";
    }
    return "?";
}

const char *
optShortName(Opt opt)
{
    switch (opt) {
      case Opt::Vectorize:    return "vect";
      case Opt::Smt2:         return "2-ht";
      case Opt::Smt4:         return "4-ht";
      case Opt::SwPrefetchL2: return "l2-pref";
      case Opt::Tiling:       return "tiling";
      case Opt::UnrollJam:    return "unroll-jam";
      case Opt::Fusion:       return "fusion";
      case Opt::Distribution: return "distr";
    }
    return "?";
}

std::optional<Opt>
optFromShortName(const std::string &name)
{
    for (Opt o : kAllOpts) {
        if (name == optShortName(o))
            return o;
    }
    return std::nullopt;
}

bool
increasesMlp(Opt opt)
{
    switch (opt) {
      case Opt::Vectorize:
      case Opt::Smt2:
      case Opt::Smt4:
      case Opt::SwPrefetchL2:
        return true;
      default:
        return false;
    }
}

bool
reducesOccupancy(Opt opt)
{
    switch (opt) {
      case Opt::Tiling:
      case Opt::Fusion:
      case Opt::UnrollJam:
        return true;
      default:
        return false;
    }
}

OptSet::OptSet(std::initializer_list<Opt> opts)
{
    for (Opt o : opts)
        *this = with(o);
}

bool
OptSet::has(Opt opt) const
{
    return std::find(opts_.begin(), opts_.end(), opt) != opts_.end();
}

OptSet
OptSet::with(Opt opt) const
{
    OptSet out = *this;
    if (out.has(opt))
        return out;
    // SMT levels are states, not layers: 4-way replaces 2-way and vice
    // versa.
    auto drop = [&out](Opt o) {
        out.opts_.erase(std::remove(out.opts_.begin(), out.opts_.end(), o),
                        out.opts_.end());
    };
    if (opt == Opt::Smt2)
        drop(Opt::Smt4);
    if (opt == Opt::Smt4)
        drop(Opt::Smt2);
    out.opts_.push_back(opt);
    return out;
}

unsigned
OptSet::smtWays() const
{
    if (has(Opt::Smt4))
        return 4;
    if (has(Opt::Smt2))
        return 2;
    return 1;
}

std::string
OptSet::label() const
{
    if (opts_.empty())
        return "base";
    std::string out = "+ ";
    for (size_t i = 0; i < opts_.size(); ++i) {
        if (i)
            out += ", ";
        out += optShortName(opts_[i]);
    }
    return out;
}

std::vector<std::string>
toWire(const OptSet &opts)
{
    std::vector<std::string> names;
    for (Opt opt : opts.opts())
        names.emplace_back(optShortName(opt));
    return names;
}

util::Status
fromWire(const std::vector<std::string> &names, OptSet &opts)
{
    OptSet out;
    for (const std::string &name : names) {
        std::optional<Opt> opt = optFromShortName(name);
        if (!opt) {
            return util::Status::error(util::ErrorCode::InvalidArgument,
                                       "unknown optimization '%s'",
                                       name.c_str());
        }
        out = out.with(*opt);
    }
    opts = out;
    return util::Status::okStatus();
}

} // namespace lll::workloads
