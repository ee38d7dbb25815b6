#include "obs/span.hh"

#include "util/logging.hh"

namespace lll::obs
{

void
SpanTracker::begin(const std::string &name)
{
    std::string path =
        stack_.empty() ? name : stack_.back().path + "/" + name;
    stack_.push_back(Open{std::move(path), Clock::now()});
}

void
SpanTracker::end()
{
    lll_assert(!stack_.empty(), "span end() without a matching begin()");
    const Open &open = stack_.back();
    double ns = wallDeltaNs(open.start, Clock::now());
    Agg &agg = agg_[open.path];
    agg.depth = static_cast<unsigned>(stack_.size());
    ++agg.count;
    agg.wallNs += ns;
    stack_.pop_back();
}

std::vector<SpanTracker::Stat>
SpanTracker::stats() const
{
    std::vector<Stat> out;
    out.reserve(agg_.size());
    for (const auto &[path, agg] : agg_)
        out.push_back(Stat{path, agg.depth, agg.count, agg.wallNs});
    return out;
}

void
SpanTracker::merge(const std::vector<Stat> &stats)
{
    for (const Stat &s : stats) {
        Agg &agg = agg_[s.path];
        agg.depth = s.depth;
        agg.count += s.count;
        agg.wallNs += s.wallNs;
    }
}

void
SpanTracker::reset()
{
    stack_.clear();
    agg_.clear();
}

namespace
{
/** The Redirect target on this thread; nullptr = the thread's own. */
thread_local SpanTracker *tlsRedirect = nullptr;
} // namespace

SpanTracker &
SpanTracker::global()
{
    thread_local SpanTracker instance;
    return tlsRedirect ? *tlsRedirect : instance;
}

SpanTracker::Redirect::Redirect(SpanTracker &target)
    : previous_(tlsRedirect)
{
    tlsRedirect = &target;
}

SpanTracker::Redirect::~Redirect()
{
    tlsRedirect = previous_;
}

} // namespace lll::obs
