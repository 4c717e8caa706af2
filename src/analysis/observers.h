#pragma once
/// \file observers.h
/// In-situ, rank-parallel analysis observers and the pipeline that schedules
/// them — the paper's scientific payoff (lamella splits/merges of Figs.
/// 10/11, phase fractions vs. the lever rule, the announced two-point-
/// correlation/PCA comparison) computed *during* the run instead of offline
/// on a dumped whole-domain field.
///
/// An Observer contributes named columns to a shared CSV time series
/// (io::CsvWriter). Pipeline::sample() is collective: every rank calls it at
/// the same completed step; observers run their per-rank tile sweeps, the
/// tiles are combined on root via the canonical-order scheme of
/// src/analysis/gather.h, and root appends one row. The resulting series is
/// bitwise identical for any ranks x threads decomposition, moving window
/// included — enforced by ctest `analysis_rank_invariance` and the golden
/// time-series suite.
///
/// Scheduling hooks into core::Solver::addPostStepHook (after the ping-pong
/// swap, so observers see the post-step phiSrc/muSrc fields) with a cadence
/// keyed off the *global* step count; a restarted run therefore resumes the
/// sampling schedule exactly (ctest `restart_equivalence`).

#include <memory>
#include <string>
#include <vector>

#include "analysis/gather.h"
#include "io/csv_writer.h"

namespace tpf::core {
class Solver;
}

namespace tpf::analysis {

/// CSV schema tag/version shared by pipeline producers and validators. Bump
/// the version whenever columns or value semantics change; golden series and
/// resumed runs reject mismatching files with a pointed message.
inline constexpr const char* kAnalysisCsvTag = "tpf-analysis";
inline constexpr int kAnalysisCsvVersion = 1;
/// The tpf-sim flags an incompatible series error points the user to.
inline constexpr io::SeriesFlags kAnalysisCsvFlags{"--analysis-dir",
                                                   "--analysis-observers"};

/// Everything an observer may look at during one collective sample.
struct SampleContext {
    const std::vector<std::unique_ptr<core::SimBlock>>* blocks = nullptr;
    const BlockForest* forest = nullptr;
    vmpi::Comm* comm = nullptr; ///< nullptr: serial run
    long long step = 0;         ///< completed global steps
    double time = 0.0;
    double windowOffset = 0.0;  ///< add to z for absolute cell coordinates
    /// Global solid-front z in window coordinates (-1: all liquid); computed
    /// once per sample (collective max) and shared by all observers.
    int frontZ = -1;

    bool isRoot() const { return comm == nullptr || comm->isRoot(); }
};

/// One diagnostic family. sample() is collective — every rank must call it,
/// in pipeline registration order; only root's return value is used (other
/// ranks return an empty vector).
class Observer {
public:
    virtual ~Observer() = default;
    virtual const char* name() const = 0;
    /// Column names contributed to the CSV header, fixed for the run.
    virtual std::vector<std::string> columns() const = 0;
    /// Root: one value per column; non-root: empty.
    virtual std::vector<double> sample(const SampleContext& ctx) = 0;
};

/// Phase fractions (per order parameter), solid-only renormalized fractions
/// and the front position: frac_s0..2, frac_liq, sfrac_s0..2, front_z.
std::unique_ptr<Observer> makeFractionsObserver();

/// Per-solid-phase lamella topology over the solid slab [0, front]:
/// component count at the mid-solid slice, splits and merges along z
/// (lam_count_s*, lam_splits_s*, lam_merges_s*).
std::unique_ptr<Observer> makeLamellaObserver();

/// Per-solid-phase spacing/anisotropy at the mid-solid slice: S2 spacing
/// estimates along x and y and the correlation-PCA anisotropy
/// (s2_spacing_x_s*, s2_spacing_y_s*, pca_aniso_s*). A 0 spacing means "no
/// estimate" (see lamellarSpacingEstimate).
std::unique_ptr<Observer> makeCorrelationObserver();

/// Factory by CLI name: "fractions", "lamellae", "correlation". Returns
/// nullptr for unknown names.
std::unique_ptr<Observer> makeObserver(const std::string& name);

/// Observer names understood by makeObserver, in canonical order.
const std::vector<std::string>& observerNames();

/// The observer registry plus the CSV series it streams to.
class Pipeline {
public:
    void add(std::unique_ptr<Observer> obs);

    /// Column names: time,window_offset + every observer's columns (the
    /// leading step key is owned by the writer).
    std::vector<std::string> columns() const;

    /// Start a fresh CSV series (root rank only; other ranks skip silently).
    void createCsv(const std::string& path);
    /// Continue an existing series after a restart from step \p lastStep
    /// (root rank only). Throws io::CsvError on schema/column mismatch.
    void resumeCsv(const std::string& path, long long lastStep);

    /// Collective: sample every observer at completed step \p step and
    /// append one row on root.
    void sample(core::Solver& solver, long long step);

    /// Register the cadence hook on \p solver: sample at every completed
    /// global step divisible by \p every. Collective registration — every
    /// rank must attach an identically configured pipeline.
    void attach(core::Solver& solver, int every);

private:
    std::vector<std::unique_ptr<Observer>> obs_;
    io::CsvWriter csv_;
};

} // namespace tpf::analysis
