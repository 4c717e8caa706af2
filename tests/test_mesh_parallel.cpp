/// The rank-invariance contract of the in-situ mesh-extraction pipeline:
/// the mesh index CSV *and every streamed OBJ frame* of the solidify
/// scenario are bitwise identical for every ranks x threads combination in
/// {1,2,4} x {1,4}, with the moving window active and the production
/// mu-overlap communication hiding on; a front-localized run (all surface in
/// rank 0's block) is rebalanced across ranks with the same bytes; a
/// checkpoint-restarted run must
/// leave exactly the artifacts of an uninterrupted one; and the index
/// series is pinned against a committed golden reference.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "analysis/mesh_observer.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

struct TempDir {
    fs::path path;
    explicit TempDir(const std::string& tag) {
        path = fs::temp_directory_path() /
               ("tpf_mesh_" + tag + "_" + std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
};

std::string readAll(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Every artifact the observer wrote into \p dir, keyed by file name —
/// the unit of the bitwise comparison across decompositions.
std::map<std::string, std::string> readArtifacts(const fs::path& dir) {
    std::map<std::string, std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
        out[e.path().filename().string()] = readAll(e.path());
    return out;
}

/// Window-heavy solidify configuration (same shape as the analysis
/// rank-invariance suite): solid fill far above the trigger so the window
/// shifts mid-run, and block z-splits (32, 16, 8) aligned with the
/// kSlabHeight chunk grid as the pipeline's determinism contract requires.
core::SolverConfig meshConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    if (ranks > 1) cfg.blockSize = {16, 16, 32 / ranks};
    cfg.threads = threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 12.0;
    cfg.init.fillHeight = 26;
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.2;
    cfg.window.checkEvery = 8;
    cfg.overlapMu = true;
    return cfg;
}

analysis::MeshObserver::Options meshOptions(const std::string& dir,
                                            int every) {
    analysis::MeshObserver::Options opt;
    opt.dir = dir;
    opt.every = every;
    return opt; // phases {0,1,2}, reduceTarget 0.25 defaults
}

/// Root's view of one observed run.
struct MeshRun {
    double windowOffset = -1.0; ///< final window offset (shift assertion)
    long long chunksOffOwner = 0; ///< chunks executed off their owner
};

/// Run the solidify scenario with the mesh observer streaming into \p dir.
MeshRun runWithMeshObserver(const core::SolverConfig& cfg, int ranks,
                            int steps, int every, const std::string& dir) {
    MeshRun run;
    auto body = [&](vmpi::Comm* comm) {
        core::Solver solver(cfg, comm);
        analysis::MeshObserver mesh(meshOptions(dir, every));
        mesh.create(!comm || comm->isRoot());
        mesh.attach(solver);
        solver.initialize();
        mesh.sample(solver, 0);
        solver.run(steps);
        if (!comm || comm->isRoot()) {
            run.windowOffset = solver.windowOffsetCells();
            run.chunksOffOwner = mesh.timings().chunksOffOwner;
        }
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return run;
}

TEST(MeshRankInvariance, IndexAndObjFramesBitwiseIdenticalAcrossRanksAndThreads) {
    TempDir dir("invariance");
    std::map<std::string, std::string> reference;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const fs::path out =
                dir.path / ("mesh_r" + std::to_string(ranks) + "_t" +
                            std::to_string(threads));
            const double offset =
                runWithMeshObserver(meshConfig(ranks, threads), ranks,
                                    /*steps=*/16, /*every=*/4, out.string())
                    .windowOffset;

            const std::map<std::string, std::string> artifacts =
                readArtifacts(out);
            // 5 samples (steps 0,4,...,16) x 3 phases + the index CSV.
            ASSERT_EQ(artifacts.size(), 16u);
            if (reference.empty()) {
                reference = artifacts;
                EXPECT_GT(offset, 0.0)
                    << "no window shift during the run — the 'window on' "
                       "part of the contract is untested";
                const io::CsvSeries s = io::readCsvSeries(
                    (out / "mesh_index.csv").string());
                ASSERT_EQ(s.rows.size(), 5u);
            } else {
                ASSERT_EQ(artifacts.size(), reference.size());
                for (const auto& [name, bytes] : reference)
                    EXPECT_TRUE(artifacts.at(name) == bytes)
                        << name << " diverged from ranks=1 threads=1";
            }
        }
    }
}

/// Front-localized solidify run: a 64-cell-high column whose solid fill
/// (height 10, diffuse over +-2 cells) sits entirely in rank 0's 16-plane
/// block at 4 ranks, with no window shift to move it. Rank 0 owns every
/// chunk with surface, so the other ranks only see work the balancer ships
/// to them.
core::SolverConfig frontLocalizedConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 64};
    if (ranks > 1) cfg.blockSize = {16, 16, 64 / ranks};
    cfg.threads = threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 10.0;
    cfg.init.fillHeight = 10;
    cfg.overlapMu = true;
    return cfg;
}

/// Largest vertex z over every OBJ frame in \p artifacts.
double maxVertexZ(const std::map<std::string, std::string>& artifacts) {
    double zMax = -1e300;
    for (const auto& [name, bytes] : artifacts) {
        if (name.size() < 4 || name.substr(name.size() - 4) != ".obj") continue;
        std::istringstream in(bytes);
        std::string tag;
        double x = 0.0, y = 0.0, z = 0.0;
        for (std::string line; std::getline(in, line);) {
            std::istringstream l(line);
            if (l >> tag && tag == "v" && l >> x >> y >> z)
                zMax = std::max(zMax, z);
        }
    }
    return zMax;
}

TEST(MeshRankInvariance, FrontLocalizedRunIsBalancedAndBitwiseIdentical) {
    TempDir dir("front");
    std::map<std::string, std::string> reference;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const fs::path out =
                dir.path / ("front_r" + std::to_string(ranks) + "_t" +
                            std::to_string(threads));
            const MeshRun run = runWithMeshObserver(
                frontLocalizedConfig(ranks, threads), ranks, /*steps=*/16,
                /*every=*/8, out.string());

            const std::map<std::string, std::string> artifacts =
                readArtifacts(out);
            // 3 samples (steps 0, 8, 16) x 3 phases + the index CSV.
            ASSERT_EQ(artifacts.size(), 10u);
            if (ranks == 1) {
                EXPECT_EQ(run.chunksOffOwner, 0);
            } else {
                // Rank 0 owns every chunk with surface; the balancer must
                // have handed some of them to the idle ranks.
                EXPECT_GT(run.chunksOffOwner, 0);
            }
            if (reference.empty()) {
                reference = artifacts;
                const double zMax = maxVertexZ(artifacts);
                EXPECT_GT(zMax, 8.0) << "the surface must span two chunks";
                EXPECT_LT(zMax, 16.0)
                    << "the surface left rank 0's block at 4 ranks — the "
                       "run is no longer front-localized";
            } else {
                ASSERT_EQ(artifacts.size(), reference.size());
                for (const auto& [name, bytes] : reference)
                    EXPECT_TRUE(artifacts.at(name) == bytes)
                        << name << " diverged from ranks=1 threads=1";
            }
        }
    }
}

TEST(MeshRankInvariance, RestartLeavesTheArtifactsOfAnUninterruptedRun) {
    // Straight 16 steps vs 8 steps + checkpoint + fresh solver resuming 8
    // more into the same directory: the index CSV resume must trim nothing
    // here (the checkpoint is on a sample step) and the re-reached frames
    // must be rewritten bitwise identically.
    for (const int ranks : {1, 2}) {
        SCOPED_TRACE("ranks=" + std::to_string(ranks));
        TempDir dir("restart_r" + std::to_string(ranks));
        const fs::path straightDir = dir.path / "straight";
        const fs::path splitDir = dir.path / "split";
        const fs::path chk = dir.path / "chk";
        const core::SolverConfig cfg = meshConfig(ranks, 1);

        runWithMeshObserver(cfg, ranks, /*steps=*/16, /*every=*/4,
                            straightDir.string());

        auto body = [&](vmpi::Comm* comm) {
            const bool isRoot = !comm || comm->isRoot();
            core::Solver b(cfg, comm);
            analysis::MeshObserver mb(meshOptions(splitDir.string(), 4));
            mb.create(isRoot);
            mb.attach(b);
            b.initialize();
            mb.sample(b, 0);
            b.run(8);
            io::saveCheckpoint(chk.string(), b);

            core::Solver c(cfg, comm);
            io::loadCheckpoint(chk.string(), c);
            analysis::MeshObserver mc(meshOptions(splitDir.string(), 4));
            mc.resume(isRoot, c.stepsDone());
            mc.attach(c);
            c.run(8);
        };
        if (ranks == 1)
            body(nullptr);
        else
            vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });

        const auto straight = readArtifacts(straightDir);
        const auto split = readArtifacts(splitDir);
        ASSERT_EQ(straight.size(), 16u);
        ASSERT_EQ(split.size(), straight.size());
        for (const auto& [name, bytes] : straight)
            EXPECT_TRUE(split.at(name) == bytes)
                << name << " differs between straight and restarted run";
    }
}

TEST(MeshRankInvariance, ResumeDropsIndexRowsNewerThanTheCheckpoint) {
    TempDir dir("resume");
    runWithMeshObserver(meshConfig(1, 1), 1, /*steps=*/16, /*every=*/4,
                        dir.path.string());
    analysis::MeshObserver m(meshOptions(dir.path.string(), 4));
    ASSERT_EQ(io::readCsvSeries(m.indexPath()).rows.size(), 5u);
    m.resume(true, /*lastStep=*/8);
    const io::CsvSeries trimmed = io::readCsvSeries(m.indexPath());
    ASSERT_EQ(trimmed.rows.size(), 3u); // steps 0, 4, 8 kept
    EXPECT_EQ(trimmed.stepOf(2), 8);
}

/// Golden mesh-index regression: the solidify index series at a pinned
/// configuration against the committed tests/golden/solidify/mesh_index.csv
/// (regenerate with TPF_REGEN_GOLDENS=1 ./tests/test_mesh_parallel). Every
/// cell is IEEE-754 arithmetic on machine-independent fields in a fixed
/// order printed with %.17g, so the reference reproduces across machines.
TEST(MeshGolden, SolidifyIndexMatchesCommittedReference) {
    const fs::path goldenCsv =
        fs::path(TPF_GOLDEN_DIR) / "solidify" / "mesh_index.csv";

    TempDir dir("golden");
    runWithMeshObserver(meshConfig(1, 1), 1, /*steps=*/16, /*every=*/4,
                        dir.path.string());
    const fs::path freshCsv = dir.path / "mesh_index.csv";

    if (std::getenv("TPF_REGEN_GOLDENS") != nullptr) {
        fs::copy_file(freshCsv, goldenCsv,
                      fs::copy_options::overwrite_existing);
        GTEST_SKIP() << "regenerated golden mesh index " << goldenCsv;
    }

    ASSERT_TRUE(fs::exists(goldenCsv))
        << "missing committed golden mesh index " << goldenCsv
        << " — run with TPF_REGEN_GOLDENS=1 and commit tests/golden/";
    const io::CsvDiff d =
        io::compareCsvSeries(goldenCsv.string(), freshCsv.string());
    EXPECT_TRUE(d.identical)
        << "solidify mesh index diverged from the committed reference.\n  "
        << d.message
        << "\n  If this change to the extraction is intentional, regenerate "
           "with TPF_REGEN_GOLDENS=1 ./tests/test_mesh_parallel and commit "
           "tests/golden/.";
}

} // namespace
} // namespace tpf
