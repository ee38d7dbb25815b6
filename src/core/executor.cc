#include "core/executor.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/span.hh"

namespace lll::core
{

void
Executor::run(size_t n, const std::function<void(size_t)> &task) const
{
    if (n == 0)
        return;
    std::vector<std::vector<obs::SpanTracker::Stat>> spans(n);
    std::atomic<size_t> next{0};
    std::mutex failure_mu;
    std::exception_ptr failure; //!< the first task exception, if any
    auto drain = [&] {
        try {
            for (size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1)) {
                obs::SpanTracker tracker;
                {
                    obs::SpanTracker::Redirect into(tracker);
                    task(i);
                }
                spans[i] = tracker.stats();
            }
        } catch (...) {
            // Hand out no more tasks; the caller rethrows after the
            // join, so an exception never escapes a helper thread.
            next.store(n);
            std::lock_guard<std::mutex> lock(failure_mu);
            if (!failure)
                failure = std::current_exception();
        }
    };

    std::vector<std::thread> helpers;
    helpers.reserve(workers(n) - 1);
    for (size_t j = 1; j < workers(n); ++j)
        helpers.emplace_back(drain);
    drain();
    for (std::thread &t : helpers)
        t.join();
    if (failure)
        std::rethrow_exception(failure);

    // Merge-after-join, in task order regardless of completion order.
    obs::SpanTracker &caller = obs::SpanTracker::global();
    for (const std::vector<obs::SpanTracker::Stat> &s : spans)
        caller.merge(s);
}

} // namespace lll::core
