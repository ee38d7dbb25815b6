/**
 * @file
 * The one fork-join engine behind every fan-out in the program
 * (DESIGN.md §11): SweepRunner::run(), SweepRunner::runStages() and,
 * through them, the run service, the searcher and `lll sweep`.
 *
 * The calling thread always works through the task list itself;
 * `jobs - 1` helper threads join it only when jobs > 1.  So `--jobs 1`
 * and every socket request (the listener's workers call with jobs = 1)
 * create no thread, and a nested fan-out — a search inside a served
 * request — cannot deadlock: nothing waits on a shared pool.
 *
 * Each task records spans into a task-private SpanTracker; after the
 * join the executor merges them into the caller's tracker in task
 * order, whichever thread ran the task and whenever it finished.  Task
 * outputs (results, registries) are the caller's to merge the same
 * way, so a `--jobs 4` run stays byte-identical to `--jobs 1`.
 */

#ifndef LLL_CORE_EXECUTOR_HH
#define LLL_CORE_EXECUTOR_HH

#include <cstddef>
#include <functional>

namespace lll::core
{

class Executor
{
  public:
    /** @p jobs <= 1 runs every task on the calling thread. */
    explicit Executor(int jobs) : jobs_(jobs > 1 ? size_t(jobs) : 1) {}

    /** Threads that work on a batch of @p n tasks: the caller plus its
     *  helpers, never more than one per task. */
    size_t workers(size_t n) const { return n < jobs_ ? n : jobs_; }

    /**
     * Run task(i) for every i in [0, n) and return once all of them
     * have finished.  Tasks are handed out in index order; each must
     * write only its own outputs.  A task that throws stops the hand-
     * out; after the join the first exception is rethrown here.
     */
    void run(size_t n, const std::function<void(size_t)> &task) const;

  private:
    size_t jobs_;
};

} // namespace lll::core

#endif // LLL_CORE_EXECUTOR_HH
