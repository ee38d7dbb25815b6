/**
 * @file
 * Tests for the forward-progress watchdog: a healthy run is untouched,
 * a wedged event queue trips DeadlineExceeded with a diagnostic
 * snapshot (instead of hanging), and the trip is visible through the
 * metric registry as sim_errors_total.
 */

#include <gtest/gtest.h>

#include "obs/export.hh"
#include "sim/system.hh"
#include "test_common.hh"

namespace lll::sim
{
namespace
{

SystemParams
tinySys()
{
    SystemParams sp = test::tinyPlatform().sysParams(1, 1);
    sp.watchdog.cadenceUs = 1.0;
    sp.watchdog.maxStrikes = 2;
    return sp;
}

/** A kernel whose first compute phase outlasts the whole run: the
 *  event queue legitimately goes quiet — the wedge the watchdog exists
 *  to catch. */
KernelSpec
wedgedKernel()
{
    return test::randomKernel(4, 1e12, 1 << 14);
}

TEST(WatchdogTest, HealthyRunPassesUnchanged)
{
    System sys(tinySys(), test::randomKernel(4, 4.0, 1 << 14));
    util::Result<RunResult> r = sys.runChecked(2.0, 5.0);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_GT(r->throughput, 0.0);
    EXPECT_GT(r->eventsProcessed, 0u);
}

TEST(WatchdogTest, WedgedRunTripsDeadlineExceeded)
{
    System sys(tinySys(), wedgedKernel());
    util::Result<RunResult> r = sys.runChecked(2.0, 5.0);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), util::ErrorCode::DeadlineExceeded);
    // The error carries the diagnostic snapshot.
    EXPECT_NE(r.status().message().find("events="), std::string::npos);
    EXPECT_NE(r.status().message().find("mem_outstanding="),
              std::string::npos);
}

TEST(WatchdogTest, TripIncrementsSimErrorsTotal)
{
    obs::MetricRegistry reg;
    System sys(tinySys(), wedgedKernel());
    sys.attachObservability(reg);
    util::Result<RunResult> r = sys.runChecked(2.0, 5.0);
    ASSERT_FALSE(r.ok());
    EXPECT_GE(reg.counter("sim_errors_total").value(), 1u);
    // The stall annotation makes the trip visible in JSON exports.
    std::string json = obs::exportJson(reg);
    EXPECT_NE(json.find("sim_errors_total"), std::string::npos);
    EXPECT_NE(json.find("sim.watchdog.stall"), std::string::npos);
}

TEST(WatchdogTest, HealthyRunLeavesSimErrorsAtZero)
{
    obs::MetricRegistry reg;
    System sys(tinySys(), test::randomKernel(4, 4.0, 1 << 14));
    sys.attachObservability(reg);
    util::Result<RunResult> r = sys.runChecked(2.0, 5.0);
    ASSERT_TRUE(r.ok()) << r.status().toString();
    EXPECT_EQ(reg.counter("sim_errors_total").value(), 0u);
}

TEST(WatchdogTest, DiagnosticSnapshotShape)
{
    System sys(tinySys(), test::randomKernel(4, 4.0, 1 << 14));
    std::string snap = sys.diagnosticSnapshot();
    EXPECT_NE(snap.find("events="), std::string::npos);
    EXPECT_NE(snap.find("pending="), std::string::npos);
    EXPECT_NE(snap.find("l1_mshrs="), std::string::npos);
}

} // namespace
} // namespace lll::sim
