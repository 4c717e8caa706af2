/// Golden-run regression harness: for each scenario (solidify / interface /
/// liquid / solid) a small reference checkpoint is committed under
/// tests/golden/. This suite re-runs the pinned configuration and diffs the
/// fresh checkpoint against the reference field by field — any kernel,
/// communication, initialization or windowing change that perturbs the
/// numerics fails loudly with the first divergent field and cell.
///
/// The references are bitwise-reproducible across machines and build types
/// because every operation on the trajectory path is pure IEEE-754
/// arithmetic: the kernels use separate multiplies and adds (the only fused
/// operation is the std::fma Newton step of fastInvSqrt, mirrored by every
/// SIMD backend; docs/KERNELS.md), -ffp-contract=off keeps the compiler from
/// contracting the rest, and the initialization profiles use the polynomial
/// tpf::sinpiCompact instead of libm's sin (whose rounding differs between
/// libm versions).
///
/// To regenerate after an *intentional* numerics change:
///
///     TPF_REGEN_GOLDENS=1 ./tests/test_golden
///
/// then commit the updated tests/golden/ directories along with the change
/// that justifies them.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "analysis/observers.h"
#include "app/run.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "run_support.h"

#ifndef TPF_GOLDEN_DIR
#error "TPF_GOLDEN_DIR must point at the committed tests/golden directory"
#endif

namespace tpf {
namespace {

namespace fs = std::filesystem;

/// The pinned golden configuration. Small enough to keep the committed
/// references at ~100 KiB per scenario, big enough that every kernel region
/// (bulk liquid, bulk solid, interface) and the z-boundary handling are
/// exercised. Serial, one thread: the rank/thread-independence of the fields
/// is separately guaranteed by test_solver and test_restart.
core::SolverConfig goldenConfig() {
    core::SolverConfig cfg;
    cfg.globalCells = {12, 12, 16};
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 6.0;
    cfg.init.fillHeight = 4;
    return cfg;
}

constexpr int kGoldenSteps = 12;
/// Time-series cadence: rows at steps 0, 3, 6, 9, 12.
constexpr int kGoldenAnalyzeEvery = 3;

/// The pinned scenario run through the run driver, as tpf-sim runs it:
/// \p analyzeEvery 0 checkpoints the final state into
/// <out>/checkpoint_step<kGoldenSteps>, otherwise the full observer pipeline
/// streams <out>/analysis.csv.
app::RunSpec runScenario(const std::string& name, const fs::path& out,
                         int analyzeEvery) {
    app::RunSpec spec = test::runSpec(goldenConfig(), 1, kGoldenSteps, out);
    spec.scenario = name;
    spec.analyzeEvery = analyzeEvery;
    if (analyzeEvery == 0) spec.checkpointEvery = kGoldenSteps;
    app::run(spec);
    return spec;
}

void checkScenario(const std::string& name) {
    const fs::path goldenDir = fs::path(TPF_GOLDEN_DIR) / name;
    test::TempDir out("golden_" + name);
    const fs::path freshDir =
        test::checkpointDir(runScenario(name, out.path, 0), kGoldenSteps);

    if (std::getenv("TPF_REGEN_GOLDENS") != nullptr) {
        fs::create_directories(goldenDir);
        fs::copy_file(freshDir / "rank_0.tpfchk", goldenDir / "rank_0.tpfchk",
                      fs::copy_options::overwrite_existing);
        GTEST_SKIP() << "regenerated golden reference " << goldenDir;
    }

    ASSERT_TRUE(fs::exists(goldenDir / "rank_0.tpfchk"))
        << "missing committed golden reference " << goldenDir
        << " — run with TPF_REGEN_GOLDENS=1 and commit tests/golden/";

    const io::CheckpointDiff d =
        io::compareCheckpoints(goldenDir.string(), freshDir.string());
    EXPECT_TRUE(d.identical)
        << "scenario '" << name
        << "' diverged from the committed golden reference.\n  "
        << d.message()
        << "\n  If this change to the numerics is intentional, regenerate "
           "with TPF_REGEN_GOLDENS=1 ./tests/test_golden and commit "
           "tests/golden/.";
}

TEST(GoldenRun, Solidify) { checkScenario("solidify"); }
TEST(GoldenRun, Interface) { checkScenario("interface"); }
TEST(GoldenRun, Liquid) { checkScenario("liquid"); }
TEST(GoldenRun, Solid) { checkScenario("solid"); }

/// Golden analysis time series: re-run the pinned scenario with the full
/// observer pipeline sampling every kGoldenAnalyzeEvery steps and compare
/// the CSV cell-by-cell against the committed reference. Every observer
/// value is pure IEEE-754 arithmetic on the (machine-independent) fields in
/// a fixed order, and %.17g round-trips doubles exactly, so the references
/// reproduce bitwise across machines and build types.
void checkTimeSeries(const std::string& name) {
    const fs::path goldenCsv =
        fs::path(TPF_GOLDEN_DIR) / name / "analysis.csv";

    test::TempDir out("golden_series_" + name);
    runScenario(name, out.path, kGoldenAnalyzeEvery);
    const fs::path freshCsv = out.path / "analysis.csv";

    if (std::getenv("TPF_REGEN_GOLDENS") != nullptr) {
        fs::create_directories(goldenCsv.parent_path());
        fs::copy_file(freshCsv, goldenCsv,
                      fs::copy_options::overwrite_existing);
        GTEST_SKIP() << "regenerated golden series " << goldenCsv;
    }

    ASSERT_TRUE(fs::exists(goldenCsv))
        << "missing committed golden series " << goldenCsv
        << " — run with TPF_REGEN_GOLDENS=1 and commit tests/golden/";

    const io::CsvDiff d =
        io::compareCsvSeries(goldenCsv.string(), freshCsv.string());
    EXPECT_TRUE(d.identical)
        << "scenario '" << name
        << "' analysis series diverged from the committed reference.\n  "
        << d.message
        << "\n  If this change to the numerics or the observer set is "
           "intentional, regenerate with TPF_REGEN_GOLDENS=1 "
           "./tests/test_golden and commit tests/golden/.";
}

TEST(GoldenTimeSeries, Solidify) { checkTimeSeries("solidify"); }
TEST(GoldenTimeSeries, Interface) { checkTimeSeries("interface"); }
TEST(GoldenTimeSeries, Liquid) { checkTimeSeries("liquid"); }
TEST(GoldenTimeSeries, Solid) { checkTimeSeries("solid"); }

/// A perturbed series must be pointed at precisely: step, column and both
/// cell values of the first divergence.
TEST(GoldenTimeSeries, DivergenceIsReportedWithStepAndColumn) {
    const fs::path a = fs::temp_directory_path() / "tpf_series_diff_a.csv";
    const fs::path b = fs::temp_directory_path() / "tpf_series_diff_b.csv";
    for (const fs::path& p : {a, b}) {
        io::CsvWriter w;
        w.create(p.string(), analysis::kAnalysisCsvTag,
                 analysis::kAnalysisCsvVersion, {"time", "front_z"});
        w.writeRow(0, {0.0, 4.0});
        w.writeRow(3, {0.03, p == b ? 5.0 : 4.0});
    }
    const io::CsvDiff d = io::compareCsvSeries(a.string(), b.string());
    EXPECT_FALSE(d.identical);
    EXPECT_NE(d.message.find("step 3"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("'front_z'"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("4"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("5"), std::string::npos) << d.message;
    fs::remove(a);
    fs::remove(b);
}

/// Corrupting a committed reference must be reported as corruption of that
/// field (CRC), not as a plausible numeric difference.
TEST(GoldenRun, CorruptedReferenceIsCalledOut) {
    const fs::path goldenDir = fs::path(TPF_GOLDEN_DIR) / "liquid";
    if (!fs::exists(goldenDir / "rank_0.tpfchk"))
        GTEST_SKIP() << "goldens not generated yet";

    const fs::path tmp = fs::temp_directory_path() / "tpf_golden_corrupt";
    fs::remove_all(tmp);
    fs::create_directories(tmp);
    fs::copy(goldenDir / "rank_0.tpfchk", tmp / "rank_0.tpfchk");
    {
        std::fstream f(tmp / "rank_0.tpfchk",
                       std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(-23, std::ios::end); // inside the mu payload
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A); // guaranteed different
        f.seekp(-23, std::ios::end);
        f.write(&byte, 1);
    }

    const io::CheckpointDiff d =
        io::compareCheckpoints(tmp.string(), goldenDir.string());
    EXPECT_FALSE(d.identical);
    EXPECT_NE(d.structural.find("checksum mismatch"), std::string::npos)
        << d.message();
    EXPECT_NE(d.structural.find("'mu'"), std::string::npos) << d.message();
    fs::remove_all(tmp);
}

/// A genuinely divergent run must be pointed at precisely: field, component
/// and global cell of the first differing value.
TEST(GoldenRun, DivergenceIsReportedWithFieldAndCell) {
    const fs::path a = fs::path(TPF_GOLDEN_DIR) / "interface";
    if (!fs::exists(a / "rank_0.tpfchk"))
        GTEST_SKIP() << "goldens not generated yet";
    core::Solver solver(goldenConfig());
    io::loadCheckpoint(a.string(), solver);
    solver.localBlocks().front()->muSrc(5, 6, 7, 1) += 1e-12;
    test::TempDir b("golden_diff");
    io::saveCheckpoint(b.path.string(), solver);

    const io::CheckpointDiff d =
        io::compareCheckpoints(a.string(), b.path.string());
    EXPECT_FALSE(d.identical);
    EXPECT_TRUE(d.structural.empty()) << d.structural;
    EXPECT_EQ(d.field, "mu");
    EXPECT_EQ(d.component, 1);
    EXPECT_EQ(d.cell, (Int3{5, 6, 7}));
    EXPECT_EQ(d.differingValues, 1);
    EXPECT_NE(d.message().find("(5, 6, 7)"), std::string::npos)
        << d.message();
}

} // namespace
} // namespace tpf
