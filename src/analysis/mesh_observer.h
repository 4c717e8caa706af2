#pragma once
/// \file mesh_observer.h
/// In-situ time-series mesh output: streams per-phase compressed (extracted,
/// boundary-lock simplified, stitched) iso-surface meshes during the run —
/// the paper's I/O-reduction payoff (§3.2: 121 GB of raw fields shrunk to
/// surface meshes) as a post-step observer instead of an offline pass.
///
/// Per sampled step the observer runs io::extractGlobalPhaseSurfaces over
/// the configured phases (collective: every rank participates); root writes
/// `<dir>/phase<k>_step<NNNNNN>.obj` and appends one row with triangle
/// count, vertex count, area and Euler characteristic per phase to the
/// `# tpf-mesh v1` index CSV `<dir>/mesh_index.csv`.
///
/// Scheduling and restart mirror the analysis pipeline (observers.h): the
/// cadence keys off the *global* step count via Solver::addPostStepHook, and
/// resume() trims index rows newer than the checkpoint — re-reached steps
/// rewrite their OBJ files with bitwise-identical content, so a restarted
/// run leaves exactly the artifacts an uninterrupted one would.

#include <string>
#include <vector>

#include "io/csv_writer.h"
#include "io/mesh_pipeline.h"

namespace tpf::core {
class Solver;
}

namespace tpf::analysis {

/// Index-CSV schema tag/version (same conventions as kAnalysisCsvTag).
inline constexpr const char* kMeshCsvTag = "tpf-mesh";
inline constexpr int kMeshCsvVersion = 1;
inline constexpr io::SeriesFlags kMeshCsvFlags{"--mesh-dir", "--mesh-phases"};

class MeshObserver {
public:
    struct Options {
        std::string dir;                ///< output directory (created lazily)
        std::vector<int> phases{0, 1, 2}; ///< order parameters to mesh
        int every = 100;                ///< global-step cadence
        double iso = 0.5;
        /// Per-chunk in-situ reduction factor (io::MeshPipelineOptions).
        double reduceTarget = 0.25;
    };

    explicit MeshObserver(Options opt);

    /// Column names after the leading step key: time, then per phase k the
    /// tri_s<k>, verts_s<k>, area_s<k>, euler_s<k> quadruple.
    std::vector<std::string> columns() const;

    /// Start a fresh index series (root rank only; others skip silently).
    void create(bool isRoot);
    /// Continue an existing series after a restart from step \p lastStep
    /// (root rank only). Throws io::CsvError on schema/column mismatch.
    void resume(bool isRoot, long long lastStep);

    const std::string& indexPath() const { return indexPath_; }
    /// OBJ file name for one phase/step frame ("phase<k>_step<NNNNNN>.obj").
    static std::string objName(int phase, long long step);

    /// Collective: extract, reduce and stitch every configured phase at
    /// completed step \p step; root writes the OBJ frames + one index row.
    void sample(core::Solver& solver, long long step);

    /// Register the cadence hook (collective registration, like the analysis
    /// pipeline: every rank must attach an identically configured observer).
    void attach(core::Solver& solver);

    /// Accumulated pipeline stage timings over all sample() calls.
    const io::MeshPipelineTimings& timings() const { return timings_; }

private:
    Options opt_;
    std::string indexPath_;
    io::CsvWriter csv_;
    io::MeshPipelineTimings timings_;
};

} // namespace tpf::analysis
