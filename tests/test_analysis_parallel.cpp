/// The rank-invariance contract of the in-situ analysis pipeline: the
/// analysis CSV of the solidify scenario is bitwise identical for every
/// ranks x threads combination in {1,2,4} x {1,4}, with the moving window
/// active and the production mu-overlap communication hiding on. Also pins
/// the gather layer itself: planes assembled from rank tiles must equal the
/// serial extraction.

#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "analysis/gather.h"
#include "analysis/observers.h"
#include "app/run.h"
#include "core/solver.h"
#include "io/csv_writer.h"
#include "run_support.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

/// Run the solidify scenario of test::windowConfig (the window shifts
/// mid-run, exercising the observers' window-coordinate path) with every
/// observer sampling every \p every steps into <dir>/analysis.csv.
std::string runAnalysis(int ranks, int threads, int steps, int every,
                            const fs::path& dir) {
    app::RunSpec spec =
        test::runSpec(test::windowConfig(ranks, threads), ranks, steps, dir);
    spec.analyzeEvery = every;
    app::run(spec);
    return (dir / "analysis.csv").string();
}

TEST(AnalysisRankInvariance, CsvBitwiseIdenticalAcrossRanksAndThreads) {
    test::TempDir dir("analysis_invariance");
    std::string reference, referenceCsv;
    double lastWindowOffset = -1.0;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const std::string csv = runAnalysis(
                ranks, threads, /*steps=*/16, /*every=*/4,
                dir.path / ("analysis_r" + std::to_string(ranks) + "_t" +
                            std::to_string(threads)));
            if (reference.empty()) referenceCsv = csv;

            const std::string content = test::readAll(csv);
            ASSERT_FALSE(content.empty());
            if (reference.empty()) {
                reference = content;
                // The scenario must actually shift the window, otherwise
                // the "moving window on" part of the contract is untested.
                const io::CsvSeries s = io::readCsvSeries(csv);
                ASSERT_EQ(s.rows.size(), 5u); // steps 0, 4, 8, 12, 16
                lastWindowOffset =
                    std::stod(s.rows.back()[2]); // window_offset column
                EXPECT_GT(lastWindowOffset, 0.0)
                    << "no window shift during the run";
            } else if (content != reference) {
                // Byte equality is the contract; report the first divergent
                // cell instead of dumping both files.
                const io::CsvDiff d = io::compareCsvSeries(referenceCsv, csv);
                FAIL() << "analysis series diverged from ranks=1 threads=1: "
                       << d.message;
            }
        }
    }
}

TEST(AnalysisGather, AssembledPlanesMatchSerialExtraction) {
    // 2-rank and 4-rank decompositions of a solidified state must assemble
    // exactly the planes the serial sweep extracts.
    const core::SolverConfig serialCfg = test::windowConfig(1, 1);
    core::Solver serial(serialCfg);
    serial.initialize();
    serial.run(4);

    std::vector<std::vector<unsigned char>> serialPlanes;
    for (int phase = 0; phase < 3; ++phase) {
        auto p = analysis::gatherIndicatorPlanes(
            serial.localBlocks(), serial.forest(), nullptr, phase, 0,
            serialCfg.globalCells.z - 1);
        for (auto& pl : p) serialPlanes.push_back(std::move(pl));
    }
    const auto serialSums = analysis::gatherPlaneSums(
        serial.localBlocks(), serial.forest(), nullptr);

    for (const int ranks : {2, 4}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) {
            const core::SolverConfig cfg = test::windowConfig(ranks, 1);
            core::Solver s(cfg, &comm);
            s.initialize();
            s.run(4);

            std::vector<std::vector<unsigned char>> planes;
            for (int phase = 0; phase < 3; ++phase) {
                auto p = analysis::gatherIndicatorPlanes(
                    s.localBlocks(), s.forest(), &comm, phase, 0,
                    cfg.globalCells.z - 1);
                for (auto& pl : p) planes.push_back(std::move(pl));
            }
            const auto sums =
                analysis::gatherPlaneSums(s.localBlocks(), s.forest(), &comm);
            if (comm.isRoot()) {
                ASSERT_EQ(planes.size(), serialPlanes.size());
                for (std::size_t i = 0; i < planes.size(); ++i)
                    EXPECT_EQ(planes[i], serialPlanes[i]) << "plane " << i;
                ASSERT_EQ(sums.size(), serialSums.size());
                for (std::size_t z = 0; z < sums.size(); ++z)
                    for (int a = 0; a < core::N; ++a)
                        EXPECT_EQ(sums[z][static_cast<std::size_t>(a)],
                                  serialSums[z][static_cast<std::size_t>(a)])
                            << "slice " << z << " phase " << a;
            } else {
                EXPECT_TRUE(planes.empty());
                EXPECT_TRUE(sums.empty());
            }
        });
    }
}

} // namespace
} // namespace tpf
