/// The run driver (src/app/run.h) that tpf-sim and the run-level suites
/// share: RunSpec::validate rejects every bad input with its exit code and
/// a pointed message before any rank starts; a series that cannot be
/// continued names the flags of its own series; a root-only series failure
/// aborts every rank instead of hanging them; and a restarted multi-rank
/// run with every series on leaves the artifacts of an uninterrupted one.

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "app/run.h"
#include "io/csv_writer.h"
#include "obs/metrics.h"
#include "vmpi/transport.h"
#include "run_support.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

/// A small valid run: the interface fill on 16^3 cells.
app::RunSpec smallSpec(int ranks, const fs::path& outdir) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 16};
    app::RunSpec spec = test::runSpec(cfg, ranks, /*steps=*/1, outdir);
    spec.scenario = "interface";
    return spec;
}

/// Write a one-row series that no writer of this build continues with the
/// default configuration: a foreign schema, or the right schema with a
/// single "time" column.
void writeSeries(const fs::path& path, const std::string& tag) {
    io::CsvWriter w;
    w.create(path.string(), tag, 1, {"time"});
    w.writeRow(0, {0.0});
}

/// Sets $TPF_TRANSPORT for one scope (nullptr: leaves it alone) and
/// restores the caller's value: run_driver_shm runs this suite under
/// TPF_TRANSPORT=shm.
struct TransportEnv {
    std::optional<std::string> saved;
    explicit TransportEnv(const char* value) {
        if (const char* old = std::getenv("TPF_TRANSPORT")) saved = old;
        if (value != nullptr) ::setenv("TPF_TRANSPORT", value, 1);
    }
    ~TransportEnv() {
        if (saved)
            ::setenv("TPF_TRANSPORT", saved->c_str(), 1);
        else
            ::unsetenv("TPF_TRANSPORT");
    }
};

struct Case {
    const char* name;
    std::function<void(app::RunSpec&)> edit;
    int exitCode;
    const char* fragment;
    const char* transportEnv = nullptr; ///< $TPF_TRANSPORT during validate
};

TEST(RunSpecValidate, RejectsEveryBadInputWithItsExitCodeAndMessage) {
    test::TempDir dir("run_validate");
    const fs::path d = dir.path;

    // A 2-rank checkpoint of a 16x16x16 domain (16x16x8 blocks) to restart
    // from, and one bad series per kind next to it.
    app::RunSpec writer = smallSpec(2, d / "chk");
    writer.checkpointEvery = 1;
    app::run(writer);
    const std::string chk = test::checkpointDir(writer, 1).string();
    for (const char* sub : {"a_schema", "a_cols", "m_schema/mesh",
                            "m_cols/mesh", "x_schema", "x_cols"})
        fs::create_directories(d / sub);
    writeSeries(d / "a_schema" / "analysis.csv", "tpf-bogus");
    writeSeries(d / "a_cols" / "analysis.csv", analysis::kAnalysisCsvTag);
    writeSeries(d / "m_schema/mesh" / "mesh_index.csv", "tpf-bogus");
    writeSeries(d / "m_cols/mesh" / "mesh_index.csv", analysis::kMeshCsvTag);
    writeSeries(d / "x_schema" / "metrics.csv", "tpf-bogus");
    writeSeries(d / "x_cols" / "metrics.csv", obs::MetricsRegistry::kCsvTag);

    auto analyze = [](app::RunSpec& s) { s.analyzeEvery = 2; };
    auto mesh = [](app::RunSpec& s) { s.meshEvery = 2; };
    auto metrics = [](app::RunSpec& s) { s.metricsEvery = 2; };
    auto restart = [&](app::RunSpec& s) { s.ranks = 2; s.restart = chk; };
    // Restart from the checkpoint, continuing the series in <d>/<out>.
    auto continueIn = [&](const char* out, auto enable) {
        return [&, out, enable](app::RunSpec& s) {
            restart(s);
            s.outdir = (d / out).string();
            enable(s);
        };
    };

    const char* kWrittenWith =
        "was written with --size 16,16,16 --ranks 2 --block 16,16,8; pass "
        "the same";
    const Case cases[] = {
        {"unknown scenario", [](auto& s) { s.scenario = "lava"; }, 2,
         "unknown scenario 'lava'"},
        {"negative steps", [](auto& s) { s.steps = -1; }, 2,
         "invalid --steps/--ranks/--threads/--size"},
        {"zero ranks", [](auto& s) { s.ranks = 0; }, 2, "invalid --steps"},
        {"zero threads", [](auto& s) { s.cfg.threads = 0; }, 2,
         "invalid --steps"},
        {"tiny size", [](auto& s) { s.cfg.globalCells = {16, 16, 1}; }, 2,
         "invalid --steps"},
        {"too many workers", [](auto& s) { s.ranks = 100; s.cfg.threads = 3; },
         2, "--ranks x --threads = 300 exceeds the limit of 256"},
        {"bad block", [](auto& s) { s.cfg.blockSize = {16, 0, 8}; }, 2,
         "--block must be all zero (auto) or a valid size"},
        {"NX % 4", [](auto& s) { s.cfg.globalCells = {18, 16, 16}; }, 2,
         "NX must be divisible by 4"},
        {"block NX % 4", [](auto& s) { s.cfg.blockSize = {6, 16, 16}; }, 2,
         "--block NX=6"},
        {"NZ % ranks", [](auto& s) { s.ranks = 3; }, 2,
         "NZ=16 not divisible by 3 ranks"},
        {"negative report", [](auto& s) { s.reportEvery = -5; }, 2,
         "--report-every must be >= 0"},
        {"negative vtk", [](auto& s) { s.vtkEvery = -1; }, 2,
         "--vtk-every must be >= 0"},
        {"negative checkpoint", [](auto& s) { s.checkpointEvery = -3; }, 2,
         "--checkpoint-every must be >= 0"},
        {"negative analyze", [](auto& s) { s.analyzeEvery = -1; }, 2,
         "--analyze must be >= 0"},
        {"negative mesh", [](auto& s) { s.meshEvery = -1; }, 2,
         "--mesh must be >= 0"},
        {"negative metrics", [](auto& s) { s.metricsEvery = -1; }, 2,
         "--metrics-every must be >= 0"},
        {"unknown transport", [](auto& s) { s.transport = "pigeon"; }, 2,
         "unknown --transport 'pigeon'"},
        {"unknown $TPF_TRANSPORT", [](auto& s) { s.ranks = 2; }, 2,
         "unknown $TPF_TRANSPORT 'bogus' (thread, shm, mpi)", "bogus"},
        {"empty observers", [&](auto& s) { analyze(s); s.observers = {}; }, 2,
         "--analysis-observers is empty"},
        {"unknown observer",
         [&](auto& s) { analyze(s); s.observers = {"fractions", "tarot"}; },
         2, "unknown observer 'tarot'"},
        {"empty mesh phases", [&](auto& s) { mesh(s); s.meshPhases = {}; }, 2,
         "--mesh-phases is empty"},
        {"bad mesh phase", [&](auto& s) { mesh(s); s.meshPhases = {0, 7}; },
         2, "--mesh-phases entries must be phase indices in [0,4); got 7"},
        {"mesh on x-split blocks",
         [&](auto& s) { mesh(s); s.cfg.blockSize = {8, 16, 16}; }, 2,
         "--mesh needs blocks spanning the full x/y extent"},
        {"missing checkpoint", [&](auto& s) { s.restart = chk + "-gone"; }, 1,
         "cannot open checkpoint"},
        {"checkpoint size",
         [&](auto& s) { restart(s); s.cfg.globalCells = {16, 16, 32}; }, 2,
         kWrittenWith},
        {"checkpoint ranks", [&](auto& s) { restart(s); s.ranks = 4; }, 2,
         kWrittenWith},
        {"checkpoint block",
         [&](auto& s) { restart(s); s.cfg.blockSize = {16, 16, 4}; }, 2,
         kWrittenWith},
        {"analysis schema", continueIn("a_schema", analyze), 2,
         "move it aside or point --analysis-dir elsewhere"},
        {"analysis columns", continueIn("a_cols", analyze), 2,
         "pass the same --analysis-observers as the original run"},
        {"mesh schema", continueIn("m_schema", mesh), 2,
         "move it aside or point --mesh-dir elsewhere"},
        {"mesh columns", continueIn("m_cols", mesh), 2,
         "pass the same --mesh-phases as the original run"},
        {"metrics schema", continueIn("x_schema", metrics), 2,
         "move it aside or point --metrics elsewhere"},
        {"metrics columns", continueIn("x_cols", metrics), 2,
         "') — move it aside or point --metrics elsewhere"},
    };

    EXPECT_FALSE(smallSpec(1, d / "ok").validate().has_value());
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        app::RunSpec spec = smallSpec(1, d / "out");
        c.edit(spec);
        const TransportEnv env(c.transportEnv);
        const auto rejection = spec.validate();
        ASSERT_TRUE(rejection.has_value());
        EXPECT_EQ(rejection->exitCode, c.exitCode);
        EXPECT_NE(rejection->message.find(c.fragment), std::string::npos)
            << rejection->message;
    }

    // The same restart with every series pointed at fresh files is valid.
    app::RunSpec fresh = smallSpec(1, d / "fresh");
    restart(fresh);
    analyze(fresh);
    mesh(fresh);
    metrics(fresh);
    EXPECT_FALSE(fresh.validate().has_value());
}

TEST(RunSpecValidate, TransportEnvironmentIsOnlyCheckedWhereItIsUsed) {
    test::TempDir dir("run_transport_env");
    const TransportEnv bogus("bogus");
    EXPECT_FALSE(smallSpec(1, dir.path).validate().has_value())
        << "a one-rank run never resolves $TPF_TRANSPORT";
    app::RunSpec flagged = smallSpec(2, dir.path);
    flagged.transport = "thread";
    EXPECT_FALSE(flagged.validate().has_value())
        << "--transport takes precedence over $TPF_TRANSPORT";
    if (!vmpi::transportCompiledIn(vmpi::TransportKind::Mpi)) {
        const TransportEnv mpi("mpi");
        const auto rejection = smallSpec(2, dir.path).validate();
        ASSERT_TRUE(rejection.has_value());
        EXPECT_EQ(rejection->exitCode, 2);
        EXPECT_NE(rejection->message.find(
                      "$TPF_TRANSPORT mpi requires a TPF_WITH_MPI=ON build"),
                  std::string::npos)
            << rejection->message;
    }
}

TEST(RunSeries, ResumeNamesTheFlagsOfItsOwnSeries) {
    // What a user sees when validate() is bypassed (the series changed
    // after the check): each owner's resume names its own flags, never the
    // analysis series' ones.
    test::TempDir dir("run_series");
    const fs::path index = dir.path / "mesh_index.csv";
    const fs::path metricsCsv = dir.path / "metrics.csv";
    writeSeries(index, analysis::kMeshCsvTag);
    writeSeries(metricsCsv, "tpf-bogus");

    auto messageOf = [](const std::function<void()>& f) {
        try {
            f();
        } catch (const io::CsvError& e) {
            return std::string(e.what());
        }
        return std::string("no error");
    };

    analysis::MeshObserver::Options mo;
    mo.dir = dir.path.string();
    analysis::MeshObserver mesh(mo);
    const std::string meshMsg = messageOf([&] { mesh.resume(true, 0); });
    EXPECT_NE(meshMsg.find("--mesh-phases"), std::string::npos) << meshMsg;
    EXPECT_NE(meshMsg.find("--mesh-dir"), std::string::npos) << meshMsg;
    EXPECT_EQ(meshMsg.find("--analysis"), std::string::npos) << meshMsg;

    obs::MetricsRegistry registry;
    registry.gauge("v");
    const std::string metricsMsg = messageOf(
        [&] { registry.resumeCsv(metricsCsv.string(), /*lastStep=*/0); });
    EXPECT_NE(metricsMsg.find("point --metrics elsewhere"), std::string::npos)
        << metricsMsg;
    EXPECT_EQ(metricsMsg.find("--analysis"), std::string::npos) << metricsMsg;
}

TEST(RunDriver, RootOnlySeriesFailureAbortsEveryRank) {
    // The analysis CSV path is a directory, so only root's create() fails.
    // The run must end with the collective setup error on every transport
    // instead of leaving the other ranks in the first collective sample.
    // (The thread and shm transports would also unwind them through their
    // peer abort; the agreement is what covers a transport without one.)
    test::TempDir dir("run_rootfail");
    app::RunSpec spec = smallSpec(2, dir.path);
    spec.analyzeEvery = 1;
    fs::create_directories(dir.path / "analysis.csv");
    ASSERT_FALSE(spec.validate().has_value());
    try {
        app::run(spec);
        FAIL() << "a root-only series failure must throw";
    } catch (const io::CsvError& e) {
        EXPECT_NE(std::string(e.what()).find("setup failed on the root rank"),
                  std::string::npos)
            << e.what();
    }
}

std::map<std::string, std::string> readDir(const fs::path& dir) {
    std::map<std::string, std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
        if (e.is_regular_file())
            out[e.path().filename().string()] = test::readAll(e.path());
    return out;
}

TEST(RunDriver, RestartedRunLeavesTheArtifactsOfAnUninterruptedOne) {
    // 16 straight steps vs a 12-step run restarted from its step-8
    // checkpoint for 8 more, with the window moving and every series on.
    // The restart drops the rows and index entries the first run wrote
    // after its checkpoint and rewrites the step-12 frames, so the
    // checkpoints, the analysis CSV, the mesh index and every OBJ frame are
    // bitwise equal; the telemetry series has the same schema, header and
    // step column (its values are timings).
    for (const int ranks : {1, 2}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        test::TempDir dir("run_restart_r" + std::to_string(ranks));
        auto spec = [&](const char* out, int steps) {
            app::RunSpec s = test::runSpec(test::windowConfig(ranks, 2), ranks,
                                           steps, dir.path / out);
            s.analyzeEvery = 4;
            s.meshEvery = 4;
            s.metricsEvery = 4;
            s.checkpointEvery = 8;
            return s;
        };
        const app::RunSpec straight = spec("straight", 16);
        EXPECT_FALSE(straight.validate().has_value());
        app::run(straight);

        app::RunSpec split = spec("split", 12);
        app::run(split);
        split.restart = test::checkpointDir(split, 8).string();
        split.steps = 8;
        ASSERT_FALSE(split.validate().has_value());
        const app::RunResult end = app::run(split);
        EXPECT_EQ(end.stepsDone, 16);
        EXPECT_GT(end.windowOffset, 0.0) << "the window never moved";

        const fs::path a = dir.path / "straight", b = dir.path / "split";
        for (const long long step : {8, 16})
            EXPECT_EQ(readDir(test::checkpointDir(straight, step)),
                      readDir(test::checkpointDir(split, step)))
                << "checkpoint at step " << step;
        EXPECT_EQ(test::readAll(a / "analysis.csv"),
                  test::readAll(b / "analysis.csv"));
        const auto meshA = readDir(a / "mesh");
        EXPECT_EQ(meshA.size(), 5u * 3u + 1u); // steps 0, 4, .., 16 x 3 phases
        EXPECT_EQ(meshA, readDir(b / "mesh"));

        const auto ma = io::readCsvSeries((a / "metrics.csv").string());
        const auto mb = io::readCsvSeries((b / "metrics.csv").string());
        EXPECT_EQ(ma.schema, mb.schema);
        EXPECT_EQ(ma.columns, mb.columns);
        ASSERT_EQ(ma.rows.size(), mb.rows.size());
        for (std::size_t i = 0; i < ma.rows.size(); ++i)
            EXPECT_EQ(ma.stepOf(i), mb.stepOf(i));
    }
}

} // namespace
} // namespace tpf
