// Supervised paper cells under the auto-tuned watchdog.  The auto-tuned
// stall window starts at its 50 ms floor, so every stretch of solver work
// in a supervised cell, the session's operating-point solve included, must
// beat the heartbeat.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench/harness.hpp"
#include "rf/sweep.hpp"

namespace rfabm::bench {
namespace {

TEST(WatchdogSession, AutoTunedWatchdogPassesARealFig5Cell) {
    HarnessOptions opts;
    opts.fast = true;
    opts.jobs = 1;
    opts.watchdog_auto = true;
    const core::RfAbmChipConfig config{};
    const double drive_dbm = 6.0;  // the Fig. 5 drive
    const NominalReference ref = acquire_reference(config, {-6.0, 0.0},
                                                   rf::arange(0.85, 2.15, 0.325), 1.5e9, drive_dbm);
    const std::vector<double> freqs = rf::arange(0.9, 2.1, 0.1);

    Exec exec(opts);
    ASSERT_TRUE(exec.resilient());
    std::uint64_t beats_before_cell = 0;
    const auto cells = exec.map_die_env<std::vector<double>>(
        config, {circuit::ProcessCorner{}}, {core::nominal_conditions()},
        [&](DutSession& dut, std::size_t, std::size_t) {
            // Opening the session (operating point, tuning over the bus)
            // already beat the attempt's heartbeat.
            beats_before_cell = dut.chip.engine().options().heartbeat->load();
            std::vector<double> ghz;
            for (double f : freqs) {
                dut.chip.set_rf(drive_dbm, f * 1e9);
                const core::FrequencyMeasurement m =
                    dut.controller.measure_frequency(ref.freq_curve);
                ghz.push_back(m.valid ? m.ghz : NAN);
            }
            return ghz;
        });

    const exec::TriageReport& triage = exec.last_triage();
    EXPECT_EQ(triage.watchdog_fires, 0u);
    EXPECT_TRUE(triage.quarantined_cells.empty());
    EXPECT_TRUE(triage.clean()) << triage.to_string();
    EXPECT_GT(beats_before_cell, 0u);
    ASSERT_EQ(cells.size(), 1u);
    ASSERT_EQ(cells[0].size(), freqs.size());
    for (std::size_t i = 0; i < freqs.size(); ++i) {
        EXPECT_NEAR(cells[0][i], freqs[i], 0.15) << freqs[i] << " GHz";
    }
}

}  // namespace
}  // namespace rfabm::bench
