/// \file tpf_sim.cpp
/// Unified scenario driver: every workload previously buried in examples/
/// and bench_common.h, runnable from one binary.
///
///   tpf-sim --scenario solidify   full directional solidification from a
///                                 Voronoi-seeded melt (the production run)
///   tpf-sim --scenario interface  benchmark fill: solidification front
///   tpf-sim --scenario liquid     benchmark fill: pure melt
///   tpf-sim --scenario solid      benchmark fill: lamellar solid
///
/// Grid size, step count, temperature gradient/velocity, rank count,
/// communication hiding, moving window, and VTK/checkpoint output cadence
/// are all command-line options; see --help. This file only maps the flags
/// onto an app::RunSpec; validation and the run itself live in app/run.h.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "app/cli.h"
#include "app/run.h"
#include "core/kernel_dispatch.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"

namespace {

/// Split a comma-separated list ("fractions,lamellae,...").
std::vector<std::string> splitList(const std::string& list) {
    std::vector<std::string> names;
    std::size_t begin = 0;
    while (begin <= list.size()) {
        const std::size_t comma = list.find(',', begin);
        const std::string name =
            list.substr(begin, comma == std::string::npos ? std::string::npos
                                                          : comma - begin);
        if (!name.empty()) names.push_back(name);
        if (comma == std::string::npos) break;
        begin = comma + 1;
    }
    return names;
}

} // namespace

int main(int argc, char** argv) {
    using namespace tpf;

    app::Cli cli(argc, argv, "--scenario <solidify|interface|liquid|solid> [options]");

    app::RunSpec spec;
    core::SolverConfig& cfg = spec.cfg;
    spec.scenario = cli.getString(
        "scenario", spec.scenario,
        "workload: solidify (Voronoi melt), interface, liquid, solid");
    cfg.globalCells =
        cli.getInt3("size", {48, 48, 64}, "global grid NX,NY,NZ");
    cfg.blockSize = cli.getInt3(
        "block", {0, 0, 0},
        "block size (0,0,0: one block per domain, auto z-split for ranks>1)");
    spec.steps = cli.getInt("steps", spec.steps, "number of time steps");
    spec.ranks =
        cli.getInt("ranks", spec.ranks, "virtual ranks (see --transport)");
    cfg.threads = cli.getInt(
        "threads", 1,
        "intra-rank sweep threads per rank (hybrid: ranks x threads cores)");
    cfg.model.temp.gradient =
        cli.getDouble("gradient", 0.5, "temperature gradient G [K/cell]");
    cfg.model.temp.velocity = cli.getDouble(
        "velocity", 0.02, "isotherm pulling velocity v [cells/time]");
    const double zeut =
        cli.getDouble("zeut", -1.0,
                      "initial eutectic isotherm z (-1: 0.375*NZ)");
    const int fillHeight =
        cli.getInt("fill-height", -1,
                   "Voronoi solid fill height (-1: 3*NZ/16)");
    cfg.init.seedsPerArea =
        cli.getInt("seeds", 0, "Voronoi seeds per area (0: auto)");
    spec.reportEvery = cli.getInt("report-every", spec.reportEvery,
                                  "steps between reports (>= 0; 0: steps/8)");
    spec.vtkEvery = cli.getInt("vtk-every", spec.vtkEvery,
                               "steps between VTK snapshots (>= 0; 0: off)");
    spec.checkpointEvery =
        cli.getInt("checkpoint-every", spec.checkpointEvery,
                   "steps between checkpoints (>= 0; 0: off)");
    spec.restart = cli.getString(
        "restart", spec.restart,
        "resume from this checkpoint directory (skips scenario init; pass "
        "the same --size/--ranks/--block and physics flags as the original "
        "run; --steps counts the additional steps)");
    spec.analyzeEvery =
        cli.getInt("analyze", spec.analyzeEvery,
                   "steps between in-situ analysis samples streamed to "
                   "<analysis-dir>/analysis.csv (>= 0; 0: off)");
    spec.analysisDir = cli.getString(
        "analysis-dir", spec.analysisDir,
        "analysis CSV directory (default: --out)");
    spec.observers = splitList(cli.getString(
        "analysis-observers", "fractions,lamellae,correlation",
        "comma-separated observers to run (fractions, lamellae, correlation)"));
    spec.meshEvery = cli.getInt(
        "mesh", spec.meshEvery,
        "steps between in-situ surface-mesh extractions: per-phase OBJ "
        "frames plus a mesh_index.csv streamed to --mesh-dir (>= 0; 0: off; "
        "needs a z-slab block decomposition)");
    spec.meshDir = cli.getString(
        "mesh-dir", spec.meshDir, "mesh output directory (default: <out>/mesh)");
    const std::string meshPhases = cli.getString(
        "mesh-phases", "0,1,2",
        "comma-separated order-parameter indices to mesh");
    spec.tracePath = cli.getString(
        "trace", spec.tracePath,
        "write per-rank tracing spans as one merged Chrome trace-event JSON "
        "to this file (open in Perfetto or chrome://tracing)");
    spec.metricsPath = cli.getString(
        "metrics", spec.metricsPath,
        "stream the run-telemetry CSV ('# tpf-metrics v1': MLUP/s, ghost "
        "exchange, pool fan-out, window shifts, RSS, ...) to this file");
    spec.metricsEvery = cli.getInt(
        "metrics-every", spec.metricsEvery,
        "steps between metrics samples (>= 0; 0: 10; a nonzero value implies "
        "--metrics <out>/metrics.csv when --metrics is not given)");
    spec.timingSummary = cli.getFlag(
        "timing-summary",
        "print the end-of-run per-functor timing table (with cross-rank "
        "max/avg load imbalance for --ranks > 1)");
    spec.outdir = cli.getString("out", spec.outdir, "output directory");
    const std::string overlap = cli.getString(
        "overlap", "mu", "communication hiding: none, mu");
    spec.transport = cli.getString(
        "transport", spec.transport,
        "message transport for --ranks > 1: thread (in-process), shm "
        "(forked processes over shared memory), mpi (TPF_WITH_MPI builds "
        "under mpirun); default: $TPF_TRANSPORT, else thread");
    cfg.window.enabled =
        cli.getFlag("window", "enable the moving window (solidify only)");
    const std::string kernelFlag = cli.getString(
        "kernel", "",
        "kernel target auto|scalar|sse2|avx2|avx512 (default: $TPF_KERNEL, "
        "else auto = widest the CPU supports); results are bitwise "
        "identical across targets");
    const bool listKernels = cli.getFlag(
        "list-kernels", "list the compiled-in dispatch targets and exit");

    if (cli.helpRequested()) {
        cli.printHelp();
        return 0;
    }
    if (!cli.finish()) return 2;

    // Kernel selection: --kernel beats TPF_KERNEL (resolved by the dispatch
    // layer on first use) beats the auto-detected widest target.
    if (!kernelFlag.empty() && !core::setKernelTarget(kernelFlag)) {
        std::fprintf(stderr,
                     "tpf-sim: unknown or unavailable kernel target '%s' "
                     "(auto|scalar|sse2|avx2|avx512; see --list-kernels)\n",
                     kernelFlag.c_str());
        return 2;
    }

    if (listKernels) {
        const auto targets = core::availableKernelTargets();
        std::printf("available kernel targets (narrowest first):\n");
        for (const core::KernelTarget* t : targets)
            std::printf("  %-8s %d-wide multi-cell sweeps%s\n", t->name,
                        t->width,
                        t == core::activeKernelTarget() ? "  [active]" : "");
        return 0;
    }

    if (overlap != "none" && overlap != "mu") {
        std::fprintf(stderr, "unknown --overlap '%s'\n", overlap.c_str());
        return 2;
    }
    cfg.overlapMu = overlap == "mu";
    // Same default ratios as examples/quickstart (zEut0=24, fill=12 at
    // NZ=64) so the two binaries produce comparable trajectories.
    const int nz = cfg.globalCells.z;
    cfg.model.temp.zEut0 = zeut >= 0.0 ? zeut : 0.375 * nz;
    cfg.init.fillHeight = fillHeight >= 0 ? fillHeight : 3 * nz / 16;
    spec.meshPhases.clear();
    for (const auto& tok : splitList(meshPhases)) {
        // A malformed entry becomes -1, which validate() rejects.
        char* end = nullptr;
        const long p = std::strtol(tok.c_str(), &end, 10);
        spec.meshPhases.push_back(*end == '\0' && p >= 0 && p < core::N
                                      ? static_cast<int>(p)
                                      : -1);
    }

    if (const auto rejection = spec.validate()) {
        std::fprintf(stderr, "tpf-sim: %s\n", rejection->message.c_str());
        return rejection->exitCode;
    }

    const Int3 size = cfg.globalCells;
    std::printf("tpf-sim: scenario=%s  %dx%dx%d cells, %d steps, "
                "%d rank(s) x %d thread(s)\n"
                "         G=%.3f K/cell  v=%.4f cells/t  overlap=%s%s  "
                "transport=%s\n"
                "         kernel=%s (%d-wide)\n\n",
                spec.scenario.c_str(), size.x, size.y, size.z, spec.steps,
                spec.ranks, cfg.threads, cfg.model.temp.gradient,
                cfg.model.temp.velocity, overlap.c_str(),
                cfg.window.enabled ? "  moving-window" : "",
                spec.ranks == 1 ? "(serial)"
                                : vmpi::transportName(spec.transportKind()),
                core::activeKernelTarget()->name,
                core::activeKernelTarget()->width);

    try {
        app::run(spec);
    } catch (const io::CheckpointError& e) {
        // Raised collectively on every rank (no hung collectives) and
        // rethrown once on this thread by runParallel.
        std::fprintf(stderr, "tpf-sim: %s\n", e.what());
        return 1;
    } catch (const io::CsvError& e) {
        std::fprintf(stderr, "tpf-sim: %s\n", e.what());
        return 1;
    }
    return 0;
}
