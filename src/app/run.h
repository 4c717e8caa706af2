#pragma once
/// \file run.h
/// One production run — the paper's restartable time loop with its in-situ
/// analysis, hierarchical mesh output, telemetry and checkpoints — as a
/// plain description (RunSpec) and one driver (run). tpf-sim is flag
/// parsing on top of this; the run-level test suites (telemetry
/// non-perturbation, analysis and mesh rank invariance, the mesh golden,
/// analysis-series restart continuity) drive the same code, so what they
/// pin is what the CLI executes.

#include <optional>
#include <string>
#include <vector>

#include "core/solver.h"
#include "io/mesh_pipeline.h"
#include "vmpi/transport.h"

namespace tpf::app {

/// Everything one run needs: the solver configuration plus one field per
/// tpf-sim run flag, with the flag's default and meaning.
struct RunSpec {
    /// Grid, blocks ({0,0,0}: one block per rank, z-split), threads,
    /// physics, window and communication hiding.
    core::SolverConfig cfg;
    std::string scenario = "solidify"; ///< solidify|interface|liquid|solid
    int steps = 400;
    int ranks = 1;
    std::string transport;     ///< thread|shm|mpi ("": $TPF_TRANSPORT, else thread)
    std::string outdir = "tpf_output";
    std::string restart;       ///< checkpoint directory to resume ("": fresh)
    int reportEvery = 0;       ///< steps between reports (0: steps/8)
    int vtkEvery = 0;          ///< 0: off
    int checkpointEvery = 0;   ///< 0: off
    int analyzeEvery = 0;      ///< in-situ analysis cadence (0: off)
    std::string analysisDir;   ///< analysis CSV directory ("": outdir)
    std::vector<std::string> observers{"fractions", "lamellae",
                                       "correlation"};
    int meshEvery = 0;         ///< in-situ mesh cadence (0: off)
    std::string meshDir;       ///< OBJ/index directory ("": <outdir>/mesh)
    std::vector<int> meshPhases{0, 1, 2};
    std::string tracePath;     ///< merged Chrome trace JSON ("": off)
    std::string metricsPath;   ///< telemetry CSV ("": off)
    /// Metrics cadence (0: 10; a nonzero value implies metricsPath
    /// <outdir>/metrics.csv when metricsPath is empty).
    int metricsEvery = 0;
    bool timingSummary = false; ///< end-of-run per-functor table

    /// Why a spec cannot run: the message for stderr and the process exit
    /// code (2: rejected input, 1: unreadable checkpoint).
    struct Rejection {
        int exitCode = 2;
        std::string message;
    };

    /// Check the spec before any rank starts: geometry, cadences, observer
    /// and mesh settings, and on --restart that the checkpoint matches the
    /// geometry and every series to be continued matches this build.
    std::optional<Rejection> validate() const;

    /// The transport multi-rank runs use (call on a validated spec).
    vmpi::TransportKind transportKind() const;
};

/// Root's view of a finished run.
struct RunResult {
    long long stepsDone = 0;      ///< global step count at the end
    double windowOffset = 0.0;    ///< final moving-window offset in cells
    io::MeshPipelineTimings mesh; ///< root's accumulated mesh stage timings
};

/// Execute a validated \p spec: on the calling thread for one rank, over
/// spec.ranks ranks otherwise. Every rank builds the solver, restores the
/// checkpoint or initializes the scenario, attaches the analysis, mesh and
/// telemetry hooks (root opens their series), steps with the global-step
/// VTK/checkpoint/report cadences and finishes the telemetry; root writes
/// the final VTK snapshot and the run summary to stdout. Throws
/// io::CheckpointError or io::CsvError, on every rank, when an artifact
/// cannot be read or written.
RunResult run(const RunSpec& spec);

} // namespace tpf::app
