/**
 * @file
 * Tests for the one execution engine (DESIGN.md §11): the
 * obs::Executor fork-join — the caller runs the tasks itself at
 * jobs 1, spans stay task-private and merge in task order, a parallel
 * fan-out matches a serial one byte for byte — and the
 * xmem::ProfileStore behind every profile load: warm lookups open no
 * file, rewritten files reload, missing files are measured once,
 * corrupt files fail as before, and saves are never torn.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/sweep.hh"
#include "obs/executor.hh"
#include "obs/export.hh"
#include "obs/span.hh"
#include "test_common.hh"
#include "workloads/workload.hh"
#include "xmem/profile_store.hh"
#include "xmem/xmem_harness.hh"

namespace lll
{
namespace
{

using core::SweepRunner;
using obs::Executor;
using xmem::LatencyProfile;
using xmem::ProfileStore;

/** Paths and counts of @p stats, without their wall times. */
std::vector<std::string>
spanShape(const std::vector<obs::SpanTracker::Stat> &stats)
{
    std::vector<std::string> out;
    for (const obs::SpanTracker::Stat &s : stats) {
        out.push_back(s.path + " depth=" + std::to_string(s.depth) +
                      " count=" + std::to_string(s.count));
    }
    return out;
}

/** A fresh, empty directory under the test temp dir. */
std::string
freshDir(const std::string &name)
{
    const std::string dir = ::testing::TempDir() + "/lll_executor_" +
                            name + "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

// --------------------------------------------------------------- executor

TEST(Executor, JobsOneRunsEveryTaskOnTheCallingThreadInOrder)
{
    std::vector<std::thread::id> ran_on(8);
    std::vector<size_t> order;
    Executor(1).run(ran_on.size(), [&](size_t i) {
        ran_on[i] = std::this_thread::get_id();
        order.push_back(i);
    });
    for (const std::thread::id &id : ran_on)
        EXPECT_EQ(id, std::this_thread::get_id());
    EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(Executor(1).workers(8), 1u);
    EXPECT_EQ(Executor(4).workers(2), 2u);
    EXPECT_EQ(Executor(0).workers(3), 1u);
}

TEST(Executor, ParallelRunsEveryTaskExactlyOnce)
{
    std::vector<std::atomic<int>> runs(64);
    Executor(4).run(runs.size(), [&](size_t i) { ++runs[i]; });
    for (const std::atomic<int> &r : runs)
        EXPECT_EQ(r.load(), 1);
}

TEST(Executor, InlineTasksKeepTheCallersSpansApart)
{
    obs::SpanTracker &caller = obs::SpanTracker::global();
    caller.reset();
    {
        LLL_SPAN("before");
    }
    {
        LLL_SPAN("outer");
        Executor(1).run(3, [&](size_t) {
            // The task records into its own tracker: the caller's open
            // "outer" span is not on its stack.
            EXPECT_NE(&obs::SpanTracker::global(), &caller);
            EXPECT_EQ(obs::SpanTracker::global().depth(), 0u);
            LLL_SPAN("task");
            EXPECT_EQ(obs::SpanTracker::global().depth(), 1u);
        });
        // The caller's open span survived the inline tasks.
        EXPECT_EQ(&obs::SpanTracker::global(), &caller);
        EXPECT_EQ(caller.depth(), 1u);
    }
    EXPECT_EQ(caller.depth(), 0u);
    // Task spans merge after join under the span that was open around
    // the fan-out, as a helper thread's would; the caller's own spans
    // are all still there.
    EXPECT_EQ(spanShape(caller.stats()),
              (std::vector<std::string>{"before depth=1 count=1",
                                        "outer depth=1 count=1",
                                        "outer/task depth=2 count=3"}));
    caller.reset();
}

TEST(Executor, SpansMergeInTaskOrderForEveryJobCount)
{
    auto shape = [](int jobs) {
        obs::SpanTracker &caller = obs::SpanTracker::global();
        caller.reset();
        Executor(jobs).run(12, [](size_t i) {
            LLL_SPAN("unit" + std::to_string(i % 3));
            LLL_SPAN("inner");
        });
        std::vector<std::string> out = spanShape(caller.stats());
        caller.reset();
        return out;
    };
    const std::vector<std::string> serial = shape(1);
    EXPECT_EQ(serial.size(), 6u);
    EXPECT_EQ(shape(4), serial);
}

TEST(Executor, NestedFanOutsComplete)
{
    // A search inside a served request nests one fan-out in another;
    // there is no shared pool to wait on, so nesting cannot deadlock.
    for (int jobs : {1, 2}) {
        std::atomic<int> leaves{0};
        obs::SpanTracker::global().reset();
        Executor(jobs).run(3, [&](size_t) {
            LLL_SPAN("outer");
            Executor(jobs).run(4, [&](size_t) {
                LLL_SPAN("leaf");
                ++leaves;
            });
        });
        EXPECT_EQ(leaves.load(), 12);
        EXPECT_EQ(spanShape(obs::SpanTracker::global().stats()),
                  (std::vector<std::string>{"outer depth=1 count=3",
                                            "outer/leaf depth=2 count=12"}));
        obs::SpanTracker::global().reset();
    }
}

TEST(Executor, ATaskExceptionReachesTheCaller)
{
    obs::SpanTracker &caller = obs::SpanTracker::global();
    for (int jobs : {1, 4}) {
        EXPECT_THROW(Executor(jobs).run(16,
                                        [](size_t i) {
                                            if (i == 5)
                                                throw std::runtime_error(
                                                    "task 5");
                                        }),
                     std::runtime_error);
        // The task's span redirect unwound with it.
        EXPECT_EQ(&obs::SpanTracker::global(), &caller);
    }
}

// ------------------------------------------------------ runner on executor

/** Stage units on skl at short windows, served from a synthetic
 *  profile in a private profile dir. */
class StageFanOut : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        const char *old = std::getenv("LLL_PROFILE_DIR");
        hadDir_ = old != nullptr;
        if (hadDir_)
            oldDir_ = old;
        dir_ = freshDir("stages");
        ::setenv("LLL_PROFILE_DIR", dir_.c_str(), 1);
        skl_ = platforms::findPlatform("skl").take();
        ASSERT_TRUE(test::syntheticProfile("skl", skl_.peakGBs)
                        .save(xmem::defaultProfilePath(skl_))
                        .ok());
        isx_ = workloads::findWorkload("isx").take();
        hpcg_ = workloads::findWorkload("hpcg").take();
    }

    void TearDown() override
    {
        if (hadDir_)
            ::setenv("LLL_PROFILE_DIR", oldDir_.c_str(), 1);
        else
            ::unsetenv("LLL_PROFILE_DIR");
        std::filesystem::remove_all(dir_);
    }

    std::vector<SweepRunner::StageUnit> units() const
    {
        std::vector<SweepRunner::StageUnit> out;
        for (const workloads::Workload *w : {isx_.get(), hpcg_.get()}) {
            for (workloads::OptSet opts :
                 {workloads::OptSet{},
                  workloads::OptSet{}.with(workloads::Opt::Vectorize)}) {
                out.push_back({skl_, w, opts, 5.0, 10.0, 6, 7});
            }
        }
        return out;
    }

    bool hadDir_ = false;
    std::string oldDir_;
    std::string dir_;
    platforms::Platform skl_;
    workloads::WorkloadPtr isx_;
    workloads::WorkloadPtr hpcg_;
};

TEST_F(StageFanOut, ParallelMatchesSerialByteForByte)
{
    auto fanOut = [&](int jobs, obs::MetricRegistry *reg,
                      std::vector<std::string> *spans) {
        obs::SpanTracker::global().reset();
        SweepRunner::Params rp;
        rp.jobs = jobs;
        rp.registry = reg;
        std::vector<SweepRunner::StageOutcome> outcomes =
            SweepRunner(rp).runStages(units());
        *spans = spanShape(obs::SpanTracker::global().stats());
        obs::SpanTracker::global().reset();
        std::vector<std::string> out;
        for (const SweepRunner::StageOutcome &o : outcomes) {
            out.push_back(o.status.toString() + "\n" +
                          core::stageMetricsJson(o.metrics, "k"));
        }
        // Wall-clock gauges and the sampler's self-overhead counter
        // differ run to run by design; everything else must not.
        for (const char *g : {"sweep.workers", "sweep.wall_ns",
                              "sweep.busy_ns",
                              "sweep.worker_utilization"})
            reg->setGauge(g, 0.0);
        reg->counter(obs::kSelfOverheadCounter).reset();
        return out;
    };
    obs::MetricRegistry serial_reg, parallel_reg;
    std::vector<std::string> serial_spans, parallel_spans;
    const std::vector<std::string> serial =
        fanOut(1, &serial_reg, &serial_spans);
    const std::vector<std::string> parallel =
        fanOut(4, &parallel_reg, &parallel_spans);
    ASSERT_EQ(serial.size(), 4u);
    for (const std::string &s : serial)
        EXPECT_EQ(s.rfind("ok", 0), 0u) << s;
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(obs::exportJson(parallel_reg, nullptr),
              obs::exportJson(serial_reg, nullptr));
    EXPECT_FALSE(serial_spans.empty());
    EXPECT_EQ(parallel_spans, serial_spans);
}

TEST_F(StageFanOut, WarmRunOpensNoProfileFile)
{
    core::ResultCache cache;
    SweepRunner::Params rp;
    rp.cache = &cache;
    const std::vector<SweepRunner::StageUnit> unit = {units().front()};
    ASSERT_TRUE(SweepRunner(rp).runStages(unit).at(0).status.ok());

    const ProfileStore::Stats before = ProfileStore::global().stats();
    const core::ResultCache::Stats cache_before = cache.stats();
    ASSERT_TRUE(SweepRunner(rp).runStages(unit).at(0).status.ok());
    const ProfileStore::Stats after = ProfileStore::global().stats();
    EXPECT_EQ(after.lookups, before.lookups + 1);
    EXPECT_EQ(after.fileLoads, before.fileLoads);
    EXPECT_EQ(after.measured, before.measured);
    EXPECT_EQ(cache.stats().hits, cache_before.hits + 1);
}

TEST_F(StageFanOut, UnreadableProfileFailsEveryUnitOfItsPlatform)
{
    // A corrupt skl profile fails each skl unit with the familiar
    // message, as a per-unit status: the batch still returns one
    // outcome per unit.
    {
        std::ofstream out(xmem::defaultProfilePath(skl_));
        out << "platform skl\npeak_gbs 100\npoint 10";
    }
    SweepRunner::Params rp;
    rp.jobs = 2;
    const std::vector<SweepRunner::StageOutcome> outcomes =
        SweepRunner(rp).runStages(units());
    ASSERT_EQ(outcomes.size(), 4u);
    for (const SweepRunner::StageOutcome &o : outcomes) {
        EXPECT_EQ(o.status.code(), util::ErrorCode::CorruptData);
        EXPECT_NE(o.status.message().find("profile for 'skl'"),
                  std::string::npos)
            << o.status.toString();
        EXPECT_NE(o.status.message().find("--fresh"), std::string::npos);
    }
}

// ----------------------------------------------------------- profile store

/** A short characterization on @p jobs workers, enough for store
 *  semantics. */
xmem::XMemHarness
fastHarness(int jobs = 1)
{
    xmem::XMemHarness::Params p;
    p.warmupUs = 5.0;
    p.measureUs = 10.0;
    p.windows = {1, 4, 8, 12};
    p.delays = {256, 32};
    p.jobs = jobs;
    return xmem::XMemHarness(p);
}

TEST(ProfileStore, ServesAnUnchangedFileFromMemory)
{
    const std::string dir = freshDir("warm");
    ASSERT_TRUE(test::syntheticProfile().save(dir + "/tiny.profile").ok());
    ProfileStore store;
    ASSERT_TRUE(store.load(dir + "/tiny.profile").ok());
    ASSERT_TRUE(store.load(dir + "/tiny.profile").ok());
    // Another spelling of the same path shares the entry.
    ASSERT_TRUE(store.load(dir + "/./tiny.profile").ok());
    EXPECT_EQ(store.stats().lookups, 3u);
    EXPECT_EQ(store.stats().fileLoads, 1u);
}

TEST(ProfileStore, RewrittenFileIsReloaded)
{
    const std::string path = freshDir("rewrite") + "/tiny.profile";
    ASSERT_TRUE(test::syntheticProfile("tiny", 24.0).save(path).ok());
    ProfileStore store;
    util::Result<LatencyProfile> first = store.load(path);
    ASSERT_TRUE(first.ok());
    EXPECT_DOUBLE_EQ(first->peakGBs(), 24.0);

    // Replaced by save() (a rename: new inode).
    ASSERT_TRUE(test::syntheticProfile("tiny", 48.0).save(path).ok());
    util::Result<LatencyProfile> second = store.load(path);
    ASSERT_TRUE(second.ok());
    EXPECT_DOUBLE_EQ(second->peakGBs(), 48.0);

    // Rewritten in place by some other tool (same inode, new size).
    {
        std::ofstream out(path, std::ios::trunc);
        out << test::syntheticProfile("tiny", 100.0).serialize();
    }
    util::Result<LatencyProfile> third = store.load(path);
    ASSERT_TRUE(third.ok());
    EXPECT_DOUBLE_EQ(third->peakGBs(), 100.0);
    EXPECT_EQ(store.stats().fileLoads, 3u);

    // Deleted: the cached copy is not served any more.
    std::remove(path.c_str());
    util::Result<LatencyProfile> gone = store.load(path);
    ASSERT_FALSE(gone.ok());
    EXPECT_EQ(gone.status().code(), util::ErrorCode::NotFound);
}

TEST(ProfileStore, CachedServesOnlyALoadedUnchangedFile)
{
    const std::string path = freshDir("cached") + "/tiny.profile";
    ASSERT_TRUE(test::syntheticProfile("tiny", 24.0).save(path).ok());
    ProfileStore store;
    // Never loaded: cached() does not read the file itself.
    EXPECT_FALSE(store.cached(path).has_value());
    EXPECT_EQ(store.stats().fileLoads, 0u);

    ASSERT_TRUE(store.load(path).ok());
    const std::optional<LatencyProfile> hit = store.cached(path);
    ASSERT_TRUE(hit.has_value());
    EXPECT_DOUBLE_EQ(hit->peakGBs(), 24.0);

    // Changed on disk: not served until a load reads it again.
    ASSERT_TRUE(test::syntheticProfile("tiny", 48.0).save(path).ok());
    EXPECT_FALSE(store.cached(path).has_value());
    ASSERT_TRUE(store.load(path).ok());
    ASSERT_TRUE(store.cached(path).has_value());
    EXPECT_DOUBLE_EQ(store.cached(path)->peakGBs(), 48.0);
    EXPECT_EQ(store.stats().lookups, 2u);
    EXPECT_EQ(store.stats().fileLoads, 2u);
}

TEST(ProfileStore, MissingProfileIsMeasuredSavedAndThenServed)
{
    const std::string path = freshDir("missing") + "/tiny.profile";
    const platforms::Platform tiny = test::tinyPlatform();
    ProfileStore store;
    util::Result<LatencyProfile> fresh =
        store.loadOrMeasure(tiny, path, fastHarness());
    ASSERT_TRUE(fresh.ok()) << fresh.status().toString();
    EXPECT_EQ(fresh->platformName(), "tiny");
    EXPECT_EQ(store.stats().measured, 1u);
    EXPECT_TRUE(LatencyProfile::load(path).ok());

    // Later lookups read the saved file once, then serve it warm.
    for (int i = 0; i < 3; ++i) {
        util::Result<LatencyProfile> again =
            store.loadOrMeasure(tiny, path, fastHarness());
        ASSERT_TRUE(again.ok());
        EXPECT_EQ(again->serialize(),
                  LatencyProfile::load(path)->serialize());
    }
    EXPECT_EQ(store.stats().measured, 1u);
    EXPECT_EQ(store.stats().fileLoads, 2u);
}

TEST(ProfileStore, CorruptProfileFailsWithTheRecoveryHint)
{
    const std::string path = freshDir("corrupt") + "/tiny.profile";
    {
        std::ofstream out(path);
        out << "platform tiny\npeak_gbs 24\npoint 3 oops\n";
    }
    ProfileStore store;
    for (int i = 0; i < 2; ++i) {
        util::Result<LatencyProfile> prof =
            store.loadOrMeasure(test::tinyPlatform(), path, fastHarness());
        ASSERT_FALSE(prof.ok());
        EXPECT_EQ(prof.status().code(), util::ErrorCode::CorruptData);
        EXPECT_NE(prof.status().message().find(
                      "cached profile for 'tiny' is unusable (delete it "
                      "or rerun with --fresh)"),
                  std::string::npos)
            << prof.status().toString();
    }
    // Errors are never cached, and nothing was measured over the file.
    EXPECT_EQ(store.stats().fileLoads, 2u);
    EXPECT_EQ(store.stats().measured, 0u);
}

TEST(ProfileStore, ConcurrentFirstLoadsMeasureOnce)
{
    // At jobs 3 the characterization itself fans out over helper
    // threads while the slot's lock is held; the other callers still
    // wait for that one measurement.
    const platforms::Platform tiny = test::tinyPlatform();
    for (int jobs : {1, 3}) {
        const std::string path =
            freshDir("single" + std::to_string(jobs)) + "/tiny.profile";
        const xmem::XMemHarness harness = fastHarness(jobs);
        ProfileStore store;
        std::atomic<int> ok{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&] {
                if (store.loadOrMeasure(tiny, path, harness).ok())
                    ++ok;
            });
        }
        for (std::thread &t : threads)
            t.join();
        EXPECT_EQ(ok.load(), 4) << "jobs " << jobs;
        EXPECT_EQ(store.stats().measured, 1u) << "jobs " << jobs;
    }
}

TEST(ProfileStore, ReadersNeverSeeATornWrite)
{
    // One writer keeps replacing the file with profiles of different
    // sizes while readers load it, from disk and through a store.  An
    // in-place truncating save would hand readers empty or half files
    // (CorruptData); a rename never does.
    const std::string path = freshDir("torn") + "/tiny.profile";
    const LatencyProfile small("tiny", 24.0, {{1.0, 80.0}});
    const LatencyProfile large = test::syntheticProfile();
    ASSERT_TRUE(large.save(path).ok());

    std::atomic<bool> done{false};
    std::atomic<int> bad{0};
    std::atomic<int> reads{0};
    ProfileStore store;
    auto reader = [&](bool through_store) {
        while (!done.load()) {
            util::Result<LatencyProfile> p = through_store
                                                 ? store.load(path)
                                                 : LatencyProfile::load(path);
            if (!p.ok())
                ++bad;
            ++reads;
        }
    };
    std::thread r1(reader, false), r2(reader, true);
    for (int i = 0; i < 300; ++i)
        ASSERT_TRUE((i % 2 ? small : large).save(path).ok());
    done = true;
    r1.join();
    r2.join();
    EXPECT_GT(reads.load(), 0);
    EXPECT_EQ(bad.load(), 0);
    // No temp files are left behind.
    size_t files = 0;
    for (const auto &de : std::filesystem::directory_iterator(
             std::filesystem::path(path).parent_path())) {
        (void)de;
        ++files;
    }
    EXPECT_EQ(files, 1u);
}

} // namespace
} // namespace lll
