/// The exact-restart contract (the acceptance test of the restart pipeline):
/// running 2N steps produces a checkpoint bitwise identical to running N
/// steps, restarting from the checkpoint, and running N more — for every
/// ranks x threads combination, with the moving window active and the
/// production mu-overlap communication hiding on. Plus the failure paths:
/// a missing or truncated per-rank file must abort *all* ranks with a clear
/// message instead of hanging the healthy ranks in a collective.

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <string>

#include "app/run.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "run_support.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

TEST(RestartEquivalence, SplitRunMatchesStraightRunBitwise) {
    constexpr int kStepsN = 12;
    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            test::TempDir dir("restart_eq_r" + std::to_string(ranks) + "_t" +
                              std::to_string(threads));
            const core::SolverConfig cfg = test::windowConfig(ranks, threads);

            // Straight reference: 2N uninterrupted steps.
            app::RunSpec straight =
                test::runSpec(cfg, ranks, 2 * kStepsN, dir.path / "straight");
            straight.checkpointEvery = 2 * kStepsN;
            const double offEnd = app::run(straight).windowOffset;

            // Split run: N steps and a checkpoint, then a restarted run of N
            // more from it.
            app::RunSpec split =
                test::runSpec(cfg, ranks, kStepsN, dir.path / "split");
            split.checkpointEvery = kStepsN;
            const double offMid = app::run(split).windowOffset;
            split.restart = test::checkpointDir(split, kStepsN).string();
            app::run(split);

            // The scenario must actually exercise the window on both sides
            // of the restart, otherwise this test proves nothing.
            EXPECT_GT(offMid, 0.0) << "no window shift before the restart";
            EXPECT_GT(offEnd, offMid) << "no window shift after the restart";

            const fs::path a = test::checkpointDir(straight, 2 * kStepsN);
            const fs::path b = test::checkpointDir(split, 2 * kStepsN);
            const io::CheckpointDiff d =
                io::compareCheckpoints(a.string(), b.string());
            EXPECT_TRUE(d.identical) << d.message();

            // Stronger than field equality: the files (headers, clocks,
            // CRCs, payloads) must be byte-for-byte identical.
            for (int r = 0; r < ranks; ++r) {
                const std::string name =
                    "rank_" + std::to_string(r) + ".tpfchk";
                EXPECT_EQ(test::readAll(a / name), test::readAll(b / name))
                    << "rank file " << name << " differs";
            }
        }
    }
}

TEST(RestartEquivalence, WindowStateSurvivesRoundTrip) {
    for (const int ranks : {1, 2, 4}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        test::TempDir dir("restart_win_r" + std::to_string(ranks));
        const std::string chk = (dir.path / "chk").string();

        const core::SolverConfig cfg =
            test::windowConfig(ranks, /*threads=*/1);
        double savedOffset = -1.0;
        int savedFront = -1;
        long long savedSteps = -1;
        double savedTime = -1.0;

        auto body = [&](vmpi::Comm* comm) {
            core::Solver s(cfg, comm);
            s.initialize();
            s.run(10); // window check at step 0 and 8 -> offset > 0
            const double off = s.windowOffsetCells();
            const int front = s.frontPosition();
            io::saveCheckpoint(chk, s);

            core::Solver t(cfg, comm);
            io::loadCheckpoint(chk, t);
            const double off2 = t.windowOffsetCells();
            const int front2 = t.frontPosition();
            if (!comm || comm->isRoot()) {
                savedOffset = off;
                savedFront = front;
                savedSteps = t.stepsDone();
                savedTime = t.time();
                EXPECT_EQ(off2, off);
                EXPECT_EQ(front2, front);
            }
        };
        if (ranks == 1)
            body(nullptr);
        else
            vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });

        EXPECT_GT(savedOffset, 0.0) << "scenario did not shift the window";
        EXPECT_GE(savedFront, 0);
        EXPECT_EQ(savedSteps, 10);
        EXPECT_NEAR(savedTime, 10 * cfg.model.dt, 1e-12);
    }
}

/// Analysis-series continuity across a restart: N steps + restart + N more
/// must produce byte-for-byte the CSV an uninterrupted 2N-step run writes —
/// the restarted pipeline resumes the existing file (dropping nothing here:
/// the checkpoint is the last sampled step) and the cadence stays on the
/// global step grid.
TEST(RestartEquivalence, AnalysisSeriesContinuesAcrossRestart) {
    for (const int ranks : {1, 2}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        test::TempDir dir("restart_series_r" + std::to_string(ranks));
        const core::SolverConfig cfg = test::windowConfig(ranks, 1);
        constexpr int kStepsN = 12;

        // Straight reference: 2N uninterrupted steps, one series.
        app::RunSpec straight =
            test::runSpec(cfg, ranks, 2 * kStepsN, dir.path / "straight");
        straight.analyzeEvery = 4;
        app::run(straight);

        // Split run: N steps into the same kind of series with a
        // checkpoint, then a restarted run continues both.
        app::RunSpec split =
            test::runSpec(cfg, ranks, kStepsN, dir.path / "split");
        split.analyzeEvery = 4;
        split.checkpointEvery = kStepsN;
        app::run(split);
        split.restart = test::checkpointDir(split, kStepsN).string();
        app::run(split);

        const std::string straightCsv =
            (dir.path / "straight" / "analysis.csv").string();
        const std::string splitCsv =
            (dir.path / "split" / "analysis.csv").string();
        const io::CsvSeries series = io::readCsvSeries(straightCsv);
        ASSERT_EQ(series.rows.size(), 7u); // steps 0,4,...,24
        EXPECT_GT(std::stod(series.rows.back()[2]), 0.0)
            << "no window shift during the run — the scenario is too tame";

        EXPECT_EQ(test::readAll(straightCsv), test::readAll(splitCsv))
            << io::compareCsvSeries(straightCsv, splitCsv).message;
    }
}

/// A damaged rank file must not leave the other ranks hanging in the
/// restore's collective ghost exchange: every rank detects the failure via
/// the load's status agreement and throws. runParallel then joins all ranks
/// and rethrows — the fact that this test *returns* (instead of timing out)
/// is the regression check for the collective-hang bug. Depending on which
/// rank's exception is rethrown first, the text is either the local
/// \p diagnosis or the collective notification.
void expectDamagedRankFileAbortsAllRanks(
    const std::string& tag, const std::function<void(const fs::path&)>& damage,
    const std::string& diagnosis) {
    test::TempDir dir(tag);
    const std::string chk = (dir.path / "chk").string();

    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 24};
    cfg.blockSize = {16, 16, 12};
    cfg.init.fillHeight = 8;
    cfg.model.temp.zEut0 = 10.0;

    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        s.initialize();
        io::saveCheckpoint(chk, s);
    });
    damage(fs::path(chk) / "rank_1.tpfchk");

    try {
        vmpi::runParallel(2, [&](vmpi::Comm& comm) {
            core::Solver s(cfg, &comm);
            io::loadCheckpoint(chk, s);
            FAIL() << "a damaged rank file must abort the load on all ranks";
        });
        FAIL() << "runParallel must rethrow the collective CheckpointError";
    } catch (const io::CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.find(diagnosis) != std::string::npos ||
                    what.find("another rank") != std::string::npos)
            << what;
    }
}

TEST(RestartEquivalence, MissingRankFileAbortsAllRanks) {
    expectDamagedRankFileAbortsAllRanks(
        "restart_missing", [](const fs::path& f) { fs::remove(f); },
        "cannot open");
}

TEST(RestartEquivalence, TruncatedRankFileAbortsAllRanks) {
    expectDamagedRankFileAbortsAllRanks(
        "restart_truncated",
        [](const fs::path& f) { fs::resize_file(f, fs::file_size(f) / 3); },
        "truncated");
}

} // namespace
} // namespace tpf
