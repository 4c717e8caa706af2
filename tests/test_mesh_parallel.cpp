/// The rank-invariance contract of the in-situ mesh-extraction pipeline:
/// the mesh index CSV *and every streamed OBJ frame* of the solidify
/// scenario are bitwise identical for every ranks x threads combination in
/// {1,2,4} x {1,4}, with the moving window active and the production
/// mu-overlap communication hiding on; a front-localized run (all surface in
/// rank 0's block) is rebalanced across ranks with the same bytes; and the
/// index series is pinned against a committed golden reference. (That a
/// restarted run leaves the frames of an uninterrupted one is pinned with
/// every other series in test_run.cpp.)

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <algorithm>
#include <map>
#include <sstream>
#include <string>

#include "analysis/mesh_observer.h"
#include "app/run.h"
#include "core/solver.h"
#include "io/csv_writer.h"
#include "run_support.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

/// Every artifact the observer wrote into \p dir, keyed by file name —
/// the unit of the bitwise comparison across decompositions.
std::map<std::string, std::string> readArtifacts(const fs::path& dir) {
    std::map<std::string, std::string> out;
    for (const auto& e : fs::directory_iterator(dir))
        out[e.path().filename().string()] = test::readAll(e.path());
    return out;
}

/// Run the solidify scenario of \p cfg with the mesh observer (phases
/// {0,1,2}) streaming every \p every steps into <out>/mesh.
app::RunResult runWithMesh(const core::SolverConfig& cfg, int ranks,
                           int steps, int every, const fs::path& out) {
    app::RunSpec spec = test::runSpec(cfg, ranks, steps, out);
    spec.meshEvery = every;
    return app::run(spec);
}

TEST(MeshRankInvariance, IndexAndObjFramesBitwiseIdenticalAcrossRanksAndThreads) {
    test::TempDir dir("mesh_invariance");
    std::map<std::string, std::string> reference;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const fs::path out =
                dir.path / ("mesh_r" + std::to_string(ranks) + "_t" +
                            std::to_string(threads));
            const double offset =
                runWithMesh(test::windowConfig(ranks, threads), ranks,
                            /*steps=*/16, /*every=*/4, out)
                    .windowOffset;

            const std::map<std::string, std::string> artifacts =
                readArtifacts(out / "mesh");
            // 5 samples (steps 0,4,...,16) x 3 phases + the index CSV.
            ASSERT_EQ(artifacts.size(), 16u);
            if (reference.empty()) {
                reference = artifacts;
                EXPECT_GT(offset, 0.0)
                    << "no window shift during the run — the 'window on' "
                       "part of the contract is untested";
                const io::CsvSeries s = io::readCsvSeries(
                    (out / "mesh" / "mesh_index.csv").string());
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
    test::TempDir dir("mesh_front");
    std::map<std::string, std::string> reference;

    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const fs::path out =
                dir.path / ("front_r" + std::to_string(ranks) + "_t" +
                            std::to_string(threads));
            const app::RunResult run =
                runWithMesh(frontLocalizedConfig(ranks, threads), ranks,
                            /*steps=*/16, /*every=*/8, out);

            const std::map<std::string, std::string> artifacts =
                readArtifacts(out / "mesh");
            // 3 samples (steps 0, 8, 16) x 3 phases + the index CSV.
            ASSERT_EQ(artifacts.size(), 10u);
            if (ranks == 1) {
                EXPECT_EQ(run.mesh.chunksOffOwner, 0);
            } else {
                // Rank 0 owns every chunk with surface; the balancer must
                // have handed some of them to the idle ranks.
                EXPECT_GT(run.mesh.chunksOffOwner, 0);
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

/// Golden mesh-index regression: the solidify index series at a pinned
/// configuration against the committed tests/golden/solidify/mesh_index.csv
/// (regenerate with TPF_REGEN_GOLDENS=1 ./tests/test_mesh_parallel). Every
/// cell is IEEE-754 arithmetic on machine-independent fields in a fixed
/// order printed with %.17g, so the reference reproduces across machines.
TEST(MeshGolden, SolidifyIndexMatchesCommittedReference) {
    const fs::path goldenCsv =
        fs::path(TPF_GOLDEN_DIR) / "solidify" / "mesh_index.csv";

    test::TempDir dir("mesh_golden");
    runWithMesh(test::windowConfig(1, 1), 1, /*steps=*/16, /*every=*/4,
                dir.path);
    const fs::path freshCsv = dir.path / "mesh" / "mesh_index.csv";

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
