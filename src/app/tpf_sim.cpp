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
/// are all command-line options; see --help.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "app/cli.h"
#include "core/kernel_dispatch.h"
#include "core/regions.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "io/writers.h"
#include "obs/run_obs.h"
#include "perf/perf.h"
#include "vmpi/comm.h"

namespace {

using namespace tpf;

struct RunOptions {
    std::string scenario;
    std::string outdir;
    std::string restart; ///< checkpoint directory to resume from ("" = fresh)
    int steps = 0;
    int ranks = 1;
    int reportEvery = 0;
    int vtkEvery = 0;
    int checkpointEvery = 0;
    int analyzeEvery = 0;      ///< in-situ analysis cadence (0 = off)
    std::string analysisDir;   ///< CSV directory ("" = outdir)
    std::vector<std::string> observers; ///< enabled observer names, in order
    int meshEvery = 0;         ///< in-situ mesh extraction cadence (0 = off)
    std::string meshDir;       ///< OBJ/index directory (default <out>/mesh)
    std::vector<int> meshPhases; ///< order parameters to mesh
    std::string tracePath;     ///< merged Chrome trace JSON ("" = off)
    std::string metricsPath;   ///< run-telemetry CSV ("" = off)
    int metricsEvery = 10;     ///< metrics sampling cadence in steps
    bool timingSummary = false; ///< end-of-run per-functor table
};

/// Split a comma-separated observer list ("fractions,lamellae,...").
std::vector<std::string> splitObserverList(const std::string& list) {
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

void writeVtkSnapshot(const RunOptions& opt, core::Solver& solver,
                      long long step) {
    // One file per root-rank block. Sub-domain files carry the block origin
    // in their name so a partial volume is never mistaken for the full
    // domain (remote ranks' blocks are not gathered).
    const bool wholeDomain =
        opt.ranks == 1 && solver.localBlocks().size() == 1;
    for (const auto& blk : solver.localBlocks()) {
        char name[96];
        if (wholeDomain)
            std::snprintf(name, sizeof name, "phi_step%06lld.vtk", step);
        else
            std::snprintf(name, sizeof name,
                          "phi_step%06lld_block_x%d_y%d_z%d.vtk", step,
                          blk->origin.x, blk->origin.y, blk->origin.z);
        const std::string path = opt.outdir + "/" + name;
        io::writeVtkField(path, blk->phiSrc, "phi");
        std::printf("wrote %s%s\n", path.c_str(),
                    wholeDomain ? "" : " (rank-0 sub-domain)");
    }
}

void writeCheckpoint(const RunOptions& opt, core::Solver& solver,
                     bool isRoot) {
    // Named by the *global* step count, so a run restarted at step N writes
    // checkpoint_step<N+k> — the same name an uninterrupted run would use.
    // That is what lets the restart-equivalence harness diff the two.
    char name[64];
    std::snprintf(name, sizeof name, "checkpoint_step%06lld",
                  solver.stepsDone());
    const std::string dir = opt.outdir + "/" + name;
    io::saveCheckpoint(dir, solver);
    if (isRoot) std::printf("wrote %s/\n", dir.c_str());
}

int report(core::Solver& solver, bool isRoot) {
    // All three diagnostics are collective: every rank must make the calls,
    // only root prints. Returns the front position for the heartbeat line.
    const auto f = solver.phaseFractions();
    const auto sf = solver.solidFractions();
    const int front = solver.frontPosition();
    if (isRoot)
        std::printf("t=%9.2f  front=%4d  liquid=%.4f  "
                    "solids %.3f/%.3f/%.3f\n",
                    solver.time(), front, f[core::LIQ], sf[0], sf[1], sf[2]);
    return front;
}

/// Root-only progress heartbeat: percent done, global step, interval
/// throughput, front position and a wall-clock ETA for the remaining steps.
void heartbeat(const RunOptions& opt, core::Solver& solver, long long cells,
               int done, int sinceLast, double intervalSeconds, int front) {
    const double mlups =
        intervalSeconds > 0.0
            ? static_cast<double>(cells) * sinceLast / intervalSeconds / 1e6
            : 0.0;
    const double sPerStep =
        sinceLast > 0 ? intervalSeconds / sinceLast : 0.0;
    const long long etaS =
        static_cast<long long>(sPerStep * (opt.steps - done) + 0.5);
    std::printf("[%3d%%] step %lld/%lld  %7.2f MLUP/s  front_z=%d  "
                "eta %lld:%02lld\n",
                opt.steps > 0 ? 100 * done / opt.steps : 100,
                solver.stepsDone(),
                solver.stepsDone() - done + opt.steps, mlups, front,
                etaS / 60, etaS % 60);
}

/// Run the configured solver on one (possibly thread-backed) rank: scenario
/// init, stepping with periodic reporting and output, final summary.
void runRank(const RunOptions& opt, const core::SolverConfig& cfg,
             vmpi::Comm* comm) {
    const bool isRoot = !comm || comm->isRoot();
    core::Solver solver(cfg, comm);

    // In-situ analysis pipeline: every rank builds the same observer set in
    // the same order (sampling is collective); only root streams the CSV.
    analysis::Pipeline pipeline;
    if (opt.analyzeEvery > 0)
        for (const auto& name : opt.observers)
            pipeline.add(analysis::makeObserver(name));

    if (!opt.restart.empty()) {
        // Resume from a checkpoint: fields, clocks, window offset and the
        // step counter are restored; no scenario initialization runs.
        io::loadCheckpoint(opt.restart, solver);
        if (isRoot)
            std::printf("restarted from %s at step %lld (t=%.6g, window "
                        "offset %g)\n",
                        opt.restart.c_str(), solver.stepsDone(), solver.time(),
                        solver.windowOffsetCells());
    } else if (opt.scenario == "solidify") {
        solver.initialize(); // Voronoi-seeded melt
    } else {
        const core::Scenario sc = opt.scenario == "liquid"
                                      ? core::Scenario::Liquid
                                  : opt.scenario == "solid"
                                      ? core::Scenario::Solid
                                      : core::Scenario::Interface;
        for (auto& b : solver.localBlocks())
            core::fillScenario(*b, sc, solver.system(), cfg.model.eps);
        solver.restore(/*time=*/0.0, /*windowOffset=*/0.0);
    }

    if (opt.analyzeEvery > 0) {
        const std::string csvPath = opt.analysisDir + "/analysis.csv";
        int ok = 1;
        if (isRoot) {
            // A restarted run continues the existing series in place: rows
            // after the checkpoint step are dropped, the cadence resumes on
            // the global step grid — no duplicated or skipped rows.
            try {
                if (!opt.restart.empty())
                    pipeline.resumeCsv(csvPath, solver.stepsDone());
                else
                    pipeline.createCsv(csvPath);
                std::printf("analysis: every %d steps -> %s\n",
                            opt.analyzeEvery, csvPath.c_str());
            } catch (const io::CsvError& e) {
                // Print here (only root knows the cause), then fail the
                // collective agreement below so every rank throws.
                std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                ok = 0;
            }
        }
        // Collective agreement: a root-only failure (unwritable directory,
        // read-only or incompatible series file) must abort *all* ranks —
        // otherwise the healthy ranks block forever in the next collective
        // sample waiting for the dead root.
        if (comm && comm->size() > 1) ok = comm->bcast(ok);
        if (!ok)
            throw io::CsvError("analysis CSV setup failed on the root rank "
                               "(see the message above)");
        pipeline.attach(solver, opt.analyzeEvery);
        // Fresh runs record the initial state; restarts already have it.
        if (opt.restart.empty()) pipeline.sample(solver, solver.stepsDone());
    }

    // In-situ mesh extraction: collective like the analysis pipeline (every
    // rank attaches the same observer; only root streams the OBJ frames and
    // the index CSV), with the same root-failure agreement.
    std::unique_ptr<analysis::MeshObserver> mesh;
    if (opt.meshEvery > 0) {
        analysis::MeshObserver::Options mo;
        mo.dir = opt.meshDir;
        mo.phases = opt.meshPhases;
        mo.every = opt.meshEvery;
        mesh = std::make_unique<analysis::MeshObserver>(mo);
        int ok = 1;
        if (isRoot) {
            try {
                if (!opt.restart.empty())
                    mesh->resume(true, solver.stepsDone());
                else
                    mesh->create(true);
                std::printf("mesh: every %d steps -> %s\n", opt.meshEvery,
                            opt.meshDir.c_str());
            } catch (const io::CsvError& e) {
                std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                ok = 0;
            }
        }
        if (comm && comm->size() > 1) ok = comm->bcast(ok);
        if (!ok)
            throw io::CsvError("mesh index setup failed on the root rank "
                               "(see the message above)");
        mesh->attach(solver);
        if (opt.restart.empty()) mesh->sample(solver, solver.stepsDone());
    }

    // Run telemetry (docs/OBSERVABILITY.md): per-rank trace spans and/or the
    // metrics CSV. Attached last so the "obs-metrics" hook samples after the
    // analysis/mesh hooks of the same step ran; the CSV setup mirrors the
    // analysis pipeline's root-failure agreement above.
    std::unique_ptr<obs::RunObs> runObs;
    if (!opt.tracePath.empty() || !opt.metricsPath.empty()) {
        obs::RunObsOptions oo;
        oo.tracePath = opt.tracePath;
        oo.metricsPath = opt.metricsPath;
        oo.metricsEvery = opt.metricsEvery;
        runObs = std::make_unique<obs::RunObs>(oo);
        if (runObs->metricsEnabled()) {
            int ok = 1;
            if (isRoot) {
                try {
                    runObs->openMetricsCsv(!opt.restart.empty(),
                                           solver.stepsDone());
                    std::printf("metrics: every %d steps -> %s\n",
                                opt.metricsEvery, opt.metricsPath.c_str());
                } catch (const io::CsvError& e) {
                    std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                    ok = 0;
                }
            }
            if (comm && comm->size() > 1) ok = comm->bcast(ok);
            if (!ok)
                throw io::CsvError("metrics CSV setup failed on the root "
                                   "rank (see the message above)");
        }
        if (isRoot && runObs->traceEnabled())
            std::printf("trace: %s\n", opt.tracePath.c_str());
        runObs->attach(solver);
    }

    report(solver, isRoot); // collective: all ranks participate
    const double t0 = perf::now();

    // Output cadences are keyed off the *global* step count so a restarted
    // run writes snapshots/checkpoints at the same steps (and names) an
    // uninterrupted run would — the restart-equivalence harness depends on
    // it. `done` counts only this invocation's steps; the report chunking
    // stays local (it describes this run's progress).
    const long long startStep = solver.stepsDone();
    auto nextBoundary = [startStep](int done, int every) {
        const long long g = startStep + done;
        return static_cast<int>((g / every + 1) * every - startStep);
    };
    const int chunk = std::max(1, opt.reportEvery > 0
                                      ? opt.reportEvery
                                      : std::max(1, opt.steps / 8));
    const long long cells = static_cast<long long>(cfg.globalCells.x) *
                            cfg.globalCells.y * cfg.globalCells.z;
    int lastReport = 0;
    double lastReportT = t0;
    long long lastVtkStep = -1;
    for (int done = 0; done < opt.steps;) {
        // Stop at whichever boundary comes first: the report chunk or an
        // output cadence.
        int next = std::min(opt.steps, lastReport + chunk);
        if (opt.vtkEvery > 0)
            next = std::min(next, nextBoundary(done, opt.vtkEvery));
        if (opt.checkpointEvery > 0)
            next = std::min(next, nextBoundary(done, opt.checkpointEvery));

        solver.run(next - done);
        done = next;

        if (done - lastReport >= chunk || done == opt.steps) {
            const int front = report(solver, isRoot);
            const double nowT = perf::now();
            if (isRoot)
                heartbeat(opt, solver, cells, done, done - lastReport,
                          nowT - lastReportT, front);
            lastReport = done;
            lastReportT = nowT;
        }
        if (opt.vtkEvery > 0 && solver.stepsDone() % opt.vtkEvery == 0) {
            if (isRoot) writeVtkSnapshot(opt, solver, solver.stepsDone());
            lastVtkStep = solver.stepsDone();
        }
        if (opt.checkpointEvery > 0 &&
            solver.stepsDone() % opt.checkpointEvery == 0) {
            const double c0 = perf::now();
            writeCheckpoint(opt, solver, isRoot);
            if (runObs && runObs->metricsEnabled())
                runObs->metrics().counter("checkpoint_s").add(perf::now() - c0);
        }
    }

    const double wall = perf::now() - t0;

    // Post-run collectives, before the non-root ranks return: merge + write
    // the trace, flush the final metrics row, gather the cross-rank
    // per-functor totals for the timing summary.
    if (runObs) runObs->finish(solver);
    std::vector<obs::FunctorStats> functorStats;
    if (opt.timingSummary) functorStats = obs::gatherTimingStats(solver);

    if (!isRoot) return;

    // Final artifacts: a VTK volume of the (root-rank) phi field plus the
    // run summary, so every invocation leaves output behind (skipped when
    // the cadence already wrote this step).
    if (lastVtkStep != solver.stepsDone())
        writeVtkSnapshot(opt, solver, solver.stepsDone());

    std::printf("\n%d steps on %lld cells in %.2f s", opt.steps, cells, wall);
    if (wall > 0.0)
        std::printf("  (%.2f MLUP/s total)",
                    static_cast<double>(cells) * opt.steps / wall / 1e6);
    std::printf("\ntimeloop breakdown (total / worst step):\n");
    for (const auto& t : solver.timeloop().timings())
        std::printf("  %-18s %8.3f s  %8.5f s\n", t.name.c_str(), t.seconds,
                    t.maxSeconds);
    if (opt.timingSummary) {
        // The full Timeloop::timings() table. For multi-rank runs the
        // cross-rank columns expose load imbalance per functor (max/avg is
        // the paper's Fig. 8 figure of merit): a well-hidden exchange shows
        // imbalance ~1.0, a straggling rank pushes it up.
        const bool multi = comm && comm->size() > 1;
        if (multi)
            std::printf("\ntiming summary across %d ranks "
                        "(avg s / max s @rank / imbalance / spike s / calls):\n",
                        comm->size());
        else
            std::printf("\ntiming summary "
                        "(seconds / spike s / calls):\n");
        for (const auto& f : functorStats) {
            if (multi)
                std::printf("  %-18s %8.3f  %8.3f @%-3d %6.2fx  %8.5f  %8lld\n",
                            f.name.c_str(), f.avgSeconds, f.maxSeconds,
                            f.maxRank,
                            f.avgSeconds > 0.0 ? f.maxSeconds / f.avgSeconds
                                               : 1.0,
                            f.spikeSeconds, f.calls);
            else
                std::printf("  %-18s %8.3f  %8.5f  %8lld\n", f.name.c_str(),
                            f.avgSeconds, f.spikeSeconds, f.calls);
        }
    }
    if (mesh) {
        const io::MeshPipelineTimings& mt = mesh->timings();
        std::printf("mesh pipeline (total, rank 0): extract %.3f s  simplify "
                    "%.3f s  balance+gather+stitch %.3f s  chunks off owner "
                    "%lld\n",
                    mt.extractSec, mt.simplifySec, mt.gatherSec,
                    mt.chunksOffOwner);
    }
}

} // namespace

int main(int argc, char** argv) {
    using namespace tpf;

    app::Cli cli(argc, argv, "--scenario <solidify|interface|liquid|solid> [options]");

    RunOptions opt;
    opt.scenario = cli.getString(
        "scenario", "solidify",
        "workload: solidify (Voronoi melt), interface, liquid, solid");
    const Int3 size =
        cli.getInt3("size", {48, 48, 64}, "global grid NX,NY,NZ");
    Int3 block = cli.getInt3(
        "block", {0, 0, 0},
        "block size (0,0,0: one block per domain, auto z-split for ranks>1)");
    opt.steps = cli.getInt("steps", 400, "number of time steps");
    opt.ranks = cli.getInt("ranks", 1, "virtual ranks (see --transport)");
    const int threads = cli.getInt(
        "threads", 1,
        "intra-rank sweep threads per rank (hybrid: ranks x threads cores)");
    const double gradient =
        cli.getDouble("gradient", 0.5, "temperature gradient G [K/cell]");
    const double velocity = cli.getDouble(
        "velocity", 0.02, "isotherm pulling velocity v [cells/time]");
    const double zeut =
        cli.getDouble("zeut", -1.0,
                      "initial eutectic isotherm z (-1: 0.375*NZ)");
    const int fillHeight =
        cli.getInt("fill-height", -1,
                   "Voronoi solid fill height (-1: 3*NZ/16)");
    const int seeds =
        cli.getInt("seeds", 0, "Voronoi seeds per area (0: auto)");
    opt.reportEvery =
        cli.getInt("report-every", 0, "steps between reports (0: steps/8)");
    opt.vtkEvery =
        cli.getInt("vtk-every", 0, "steps between VTK snapshots (0: off)");
    opt.checkpointEvery = cli.getInt("checkpoint-every", 0,
                                     "steps between checkpoints (0: off)");
    opt.restart = cli.getString(
        "restart", "",
        "resume from this checkpoint directory (skips scenario init; pass "
        "the same --size/--ranks/--block and physics flags as the original "
        "run; --steps counts the additional steps)");
    opt.analyzeEvery =
        cli.getInt("analyze", 0,
                   "steps between in-situ analysis samples streamed to "
                   "<analysis-dir>/analysis.csv (0: off)");
    const std::string analysisDir = cli.getString(
        "analysis-dir", "", "analysis CSV directory (default: --out)");
    const std::string observerList = cli.getString(
        "analysis-observers", "fractions,lamellae,correlation",
        "comma-separated observers to run (fractions, lamellae, correlation)");
    opt.meshEvery = cli.getInt(
        "mesh", 0,
        "steps between in-situ surface-mesh extractions: per-phase OBJ "
        "frames plus a mesh_index.csv streamed to --mesh-dir (0: off; "
        "needs a z-slab block decomposition)");
    const std::string meshDirFlag = cli.getString(
        "mesh-dir", "", "mesh output directory (default: <out>/mesh)");
    const std::string meshPhasesFlag = cli.getString(
        "mesh-phases", "0,1,2",
        "comma-separated order-parameter indices to mesh");
    opt.tracePath = cli.getString(
        "trace", "",
        "write per-rank tracing spans as one merged Chrome trace-event JSON "
        "to this file (open in Perfetto or chrome://tracing)");
    opt.metricsPath = cli.getString(
        "metrics", "",
        "stream the run-telemetry CSV ('# tpf-metrics v1': MLUP/s, ghost "
        "exchange, pool fan-out, window shifts, RSS, ...) to this file");
    const int metricsEveryFlag = cli.getInt(
        "metrics-every", 0,
        "steps between metrics samples (0: 10; a nonzero value implies "
        "--metrics <out>/metrics.csv when --metrics is not given)");
    opt.timingSummary = cli.getFlag(
        "timing-summary",
        "print the end-of-run per-functor timing table (with cross-rank "
        "max/avg load imbalance for --ranks > 1)");
    opt.outdir = cli.getString("out", "tpf_output", "output directory");
    const std::string overlap = cli.getString(
        "overlap", "mu", "communication hiding: none, mu");
    const std::string transportFlag = cli.getString(
        "transport", "",
        "message transport for --ranks > 1: thread (in-process), shm "
        "(forked processes over shared memory), mpi (TPF_WITH_MPI builds "
        "under mpirun); default: $TPF_TRANSPORT, else thread");
    const bool window =
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

    const bool knownScenario =
        opt.scenario == "solidify" || opt.scenario == "interface" ||
        opt.scenario == "liquid" || opt.scenario == "solid";
    if (!knownScenario) {
        std::fprintf(stderr,
                     "unknown scenario '%s' (solidify|interface|liquid|solid)\n",
                     opt.scenario.c_str());
        return 2;
    }
    if (opt.steps < 0 || opt.ranks < 1 || threads < 1 || size.x < 4 ||
        size.y < 1 || size.z < 2) {
        std::fprintf(stderr, "invalid --steps/--ranks/--threads/--size\n");
        return 2;
    }
    // Each rank spawns its own pool: cap the total so a typo fails cleanly
    // instead of exhausting OS threads in the ThreadPool constructor.
    const int maxWorkers = 256;
    if (opt.ranks * threads > maxWorkers) {
        std::fprintf(stderr,
                     "--ranks x --threads = %d exceeds the limit of %d "
                     "workers\n",
                     opt.ranks * threads, maxWorkers);
        return 2;
    }
    const bool blockGiven = block.x != 0 || block.y != 0 || block.z != 0;
    if (blockGiven && (block.x < 4 || block.y < 1 || block.z < 1)) {
        std::fprintf(stderr,
                     "--block must be all zero (auto) or a valid size; got "
                     "%d,%d,%d\n",
                     block.x, block.y, block.z);
        return 2;
    }
    if (size.x % 4 != 0 || (block.x != 0 && block.x % 4 != 0)) {
        std::fprintf(stderr,
                     "NX must be divisible by 4 (the production kernels use "
                     "four-cell vectorization); got %s=%d\n",
                     size.x % 4 != 0 ? "--size NX" : "--block NX",
                     size.x % 4 != 0 ? size.x : block.x);
        return 2;
    }

    core::SolverConfig cfg;
    cfg.globalCells = size;
    cfg.threads = threads;
    cfg.model.temp.gradient = gradient;
    cfg.model.temp.velocity = velocity;
    // Same default ratios as examples/quickstart (zEut0=24, fill=12 at
    // NZ=64) so the two binaries produce comparable trajectories.
    cfg.model.temp.zEut0 = zeut >= 0.0 ? zeut : 0.375 * size.z;
    cfg.init.fillHeight = fillHeight >= 0 ? fillHeight : 3 * size.z / 16;
    cfg.init.seedsPerArea = seeds;
    cfg.window.enabled = window;
    cfg.overlapMu = overlap == "mu";
    if (overlap != "none" && overlap != "mu") {
        std::fprintf(stderr, "unknown --overlap '%s'\n", overlap.c_str());
        return 2;
    }

    if (opt.ranks > 1 && !blockGiven) {
        if (size.z % opt.ranks != 0) {
            std::fprintf(stderr,
                         "NZ=%d not divisible by %d ranks; pass --block\n",
                         size.z, opt.ranks);
            return 2;
        }
        block = {size.x, size.y, size.z / opt.ranks};
    }
    cfg.blockSize = block;

    if (!opt.restart.empty()) {
        // Fail fast, before spawning ranks, when the checkpoint does not
        // match the requested geometry (loadCheckpoint re-validates
        // everything per rank, but this produces one clear message).
        try {
            const io::CheckpointMeta meta =
                io::readCheckpointMeta(opt.restart);
            const Int3 effBlock = blockGiven || opt.ranks > 1 ? block : size;
            if (!(meta.globalCells == size)) {
                std::fprintf(stderr,
                             "checkpoint %s holds a %dx%dx%d domain; pass "
                             "--size %d,%d,%d\n",
                             opt.restart.c_str(), meta.globalCells.x,
                             meta.globalCells.y, meta.globalCells.z,
                             meta.globalCells.x, meta.globalCells.y,
                             meta.globalCells.z);
                return 2;
            }
            if (meta.numRanks != opt.ranks) {
                std::fprintf(stderr,
                             "checkpoint %s was written by %d rank(s); pass "
                             "--ranks %d\n",
                             opt.restart.c_str(), meta.numRanks,
                             meta.numRanks);
                return 2;
            }
            if (!(meta.blockCells == effBlock)) {
                std::fprintf(stderr,
                             "checkpoint %s uses %dx%dx%d blocks; pass "
                             "--block %d,%d,%d\n",
                             opt.restart.c_str(), meta.blockCells.x,
                             meta.blockCells.y, meta.blockCells.z,
                             meta.blockCells.x, meta.blockCells.y,
                             meta.blockCells.z);
                return 2;
            }
            if (meta.windowOffset > 0.0 && !window)
                std::fprintf(stderr,
                             "warning: checkpoint has a moving-window offset "
                             "of %g cells but --window is off; the window "
                             "will not keep moving\n",
                             meta.windowOffset);
        } catch (const io::CheckpointError& e) {
            std::fprintf(stderr, "tpf-sim: %s\n", e.what());
            return 1;
        }
    }

    opt.analysisDir = analysisDir.empty() ? opt.outdir : analysisDir;
    opt.observers = splitObserverList(observerList);
    if (opt.analyzeEvery < 0) {
        std::fprintf(stderr, "--analyze must be >= 0\n");
        return 2;
    }
    if (opt.analyzeEvery > 0) {
        if (opt.observers.empty()) {
            std::fprintf(stderr, "--analysis-observers is empty\n");
            return 2;
        }
        for (const auto& name : opt.observers) {
            if (analysis::makeObserver(name) == nullptr) {
                std::fprintf(stderr,
                             "unknown observer '%s' (fractions, lamellae, "
                             "correlation)\n",
                             name.c_str());
                return 2;
            }
        }
        if (!opt.restart.empty()) {
            // Fail fast (before spawning ranks) when the existing series
            // cannot be continued — a throw on the root rank mid-run would
            // leave the other ranks blocked in the collective sample.
            const std::string csvPath = opt.analysisDir + "/analysis.csv";
            if (std::filesystem::exists(csvPath)) {
                analysis::Pipeline probe;
                for (const auto& name : opt.observers)
                    probe.add(analysis::makeObserver(name));
                try {
                    const io::CsvSeries series = io::readCsvSeries(csvPath);
                    const std::string schema =
                        std::string("# ") + analysis::kAnalysisCsvTag + " v" +
                        std::to_string(analysis::kAnalysisCsvVersion);
                    if (series.schema != schema) {
                        std::fprintf(stderr,
                                     "tpf-sim: %s carries schema '%s' but "
                                     "this build writes '%s'; move the "
                                     "series aside or use a fresh "
                                     "--analysis-dir\n",
                                     csvPath.c_str(), series.schema.c_str(),
                                     schema.c_str());
                        return 2;
                    }
                    std::string header = "step";
                    for (const auto& c : probe.columns()) header += "," + c;
                    std::string existing;
                    for (const auto& c : series.columns)
                        existing += (existing.empty() ? "" : ",") + c;
                    if (existing != header) {
                        std::fprintf(stderr,
                                     "tpf-sim: %s has columns\n  %s\nbut the "
                                     "configured observers produce\n  %s\n"
                                     "pass the original --analysis-observers "
                                     "or a fresh --analysis-dir\n",
                                     csvPath.c_str(), existing.c_str(),
                                     header.c_str());
                        return 2;
                    }
                } catch (const io::CsvError& e) {
                    std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                    return 2;
                }
            }
        }
    }

    opt.meshDir = meshDirFlag.empty() ? opt.outdir + "/mesh" : meshDirFlag;
    if (opt.meshEvery < 0) {
        std::fprintf(stderr, "--mesh must be >= 0\n");
        return 2;
    }
    if (opt.meshEvery > 0) {
        for (const auto& tok : splitObserverList(meshPhasesFlag)) {
            char* end = nullptr;
            const long p = std::strtol(tok.c_str(), &end, 10);
            if (*end != '\0' || p < 0 || p >= core::N) {
                std::fprintf(stderr,
                             "--mesh-phases entry '%s' is not a phase index "
                             "in [0,%d)\n",
                             tok.c_str(), core::N);
                return 2;
            }
            opt.meshPhases.push_back(static_cast<int>(p));
        }
        if (opt.meshPhases.empty()) {
            std::fprintf(stderr, "--mesh-phases is empty\n");
            return 2;
        }
        // The pipeline's determinism contract needs blocks spanning the
        // periodic x/y extent (mesh_pipeline.h): cube corners wrap laterally
        // instead of reading corner ghosts the D3C19 exchange doesn't fill.
        if (blockGiven && (block.x != size.x || block.y != size.y)) {
            std::fprintf(stderr,
                         "tpf-sim: --mesh needs blocks spanning the full x/y "
                         "extent (z-split only); got block %d,%d,%d for "
                         "domain %d,%d,%d\n",
                         block.x, block.y, block.z, size.x, size.y, size.z);
            return 2;
        }
        if (!opt.restart.empty()) {
            // Fail fast (before spawning ranks) when the existing mesh index
            // cannot be continued, mirroring the analysis series check.
            const std::string csvPath = opt.meshDir + "/mesh_index.csv";
            if (std::filesystem::exists(csvPath)) {
                analysis::MeshObserver::Options mo;
                mo.dir = opt.meshDir;
                mo.phases = opt.meshPhases;
                mo.every = opt.meshEvery;
                const analysis::MeshObserver probe(mo);
                try {
                    const io::CsvSeries series = io::readCsvSeries(csvPath);
                    const std::string schema =
                        std::string("# ") + analysis::kMeshCsvTag + " v" +
                        std::to_string(analysis::kMeshCsvVersion);
                    if (series.schema != schema) {
                        std::fprintf(stderr,
                                     "tpf-sim: %s carries schema '%s' but "
                                     "this build writes '%s'; move the "
                                     "series aside or use a fresh "
                                     "--mesh-dir\n",
                                     csvPath.c_str(), series.schema.c_str(),
                                     schema.c_str());
                        return 2;
                    }
                    std::string header = "step";
                    for (const auto& c : probe.columns()) header += "," + c;
                    std::string existing;
                    for (const auto& c : series.columns)
                        existing += (existing.empty() ? "" : ",") + c;
                    if (existing != header) {
                        std::fprintf(stderr,
                                     "tpf-sim: %s has columns\n  %s\nbut the "
                                     "configured --mesh-phases produce\n  "
                                     "%s\npass the original --mesh-phases or "
                                     "a fresh --mesh-dir\n",
                                     csvPath.c_str(), existing.c_str(),
                                     header.c_str());
                        return 2;
                    }
                } catch (const io::CsvError& e) {
                    std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                    return 2;
                }
            }
        }
    }

    if (metricsEveryFlag < 0) {
        std::fprintf(stderr, "--metrics-every must be >= 0\n");
        return 2;
    }
    if (metricsEveryFlag > 0) {
        opt.metricsEvery = metricsEveryFlag;
        if (opt.metricsPath.empty())
            opt.metricsPath = opt.outdir + "/metrics.csv";
    }
    if (!opt.metricsPath.empty() && !opt.restart.empty()) {
        // Fail fast (before spawning ranks) when the existing telemetry
        // series cannot be continued, mirroring the analysis series check.
        if (std::filesystem::exists(opt.metricsPath)) {
            const obs::RunObs probe({"", opt.metricsPath, opt.metricsEvery});
            try {
                const io::CsvSeries series =
                    io::readCsvSeries(opt.metricsPath);
                const std::string schema =
                    std::string("# ") + obs::MetricsRegistry::kCsvTag + " v" +
                    std::to_string(obs::MetricsRegistry::kCsvVersion);
                if (series.schema != schema) {
                    std::fprintf(stderr,
                                 "tpf-sim: %s carries schema '%s' but this "
                                 "build writes '%s'; move the series aside "
                                 "or pass a fresh --metrics path\n",
                                 opt.metricsPath.c_str(),
                                 series.schema.c_str(), schema.c_str());
                    return 2;
                }
                std::string header = "step";
                for (const auto& c : probe.metricsColumns())
                    header += "," + c;
                std::string existing;
                for (const auto& c : series.columns)
                    existing += (existing.empty() ? "" : ",") + c;
                if (existing != header) {
                    std::fprintf(stderr,
                                 "tpf-sim: %s has columns\n  %s\nbut this "
                                 "build writes\n  %s\nmove the series aside "
                                 "or pass a fresh --metrics path\n",
                                 opt.metricsPath.c_str(), existing.c_str(),
                                 header.c_str());
                    return 2;
                }
            } catch (const io::CsvError& e) {
                std::fprintf(stderr, "tpf-sim: %s\n", e.what());
                return 2;
            }
        }
    }

    vmpi::TransportKind transport = vmpi::defaultTransport();
    if (!transportFlag.empty()) {
        if (!vmpi::parseTransportName(transportFlag, transport)) {
            std::fprintf(stderr, "unknown --transport '%s' (thread, shm, mpi)\n",
                         transportFlag.c_str());
            return 2;
        }
        if (!vmpi::transportCompiledIn(transport)) {
            std::fprintf(stderr,
                         "--transport mpi requires a TPF_WITH_MPI=ON build\n");
            return 2;
        }
    }

    std::filesystem::create_directories(opt.outdir);

    std::printf("tpf-sim: scenario=%s  %dx%dx%d cells, %d steps, "
                "%d rank(s) x %d thread(s)\n"
                "         G=%.3f K/cell  v=%.4f cells/t  overlap=%s%s  "
                "transport=%s\n"
                "         kernel=%s (%d-wide)\n\n",
                opt.scenario.c_str(), size.x, size.y, size.z, opt.steps,
                opt.ranks, threads, gradient, velocity, overlap.c_str(),
                window ? "  moving-window" : "",
                opt.ranks == 1 ? "(serial)" : vmpi::transportName(transport),
                core::activeKernelTarget()->name,
                core::activeKernelTarget()->width);

    try {
        if (opt.ranks == 1) {
            runRank(opt, cfg, nullptr);
        } else {
            vmpi::runParallel(transport, opt.ranks, [&](vmpi::Comm& comm) {
                runRank(opt, cfg, &comm);
            });
        }
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
