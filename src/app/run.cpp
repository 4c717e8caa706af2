/// \file run.cpp

#include "app/run.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "core/regions.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "io/writers.h"
#include "obs/run_obs.h"
#include "perf/perf.h"
#include "vmpi/comm.h"

namespace tpf::app {

namespace {

bool blockGiven(const RunSpec& s) {
    const Int3 b = s.cfg.blockSize;
    return b.x != 0 || b.y != 0 || b.z != 0;
}

/// The solver configuration with the automatic z-split resolved: multi-rank
/// runs without an explicit block size get one z-slab per rank.
core::SolverConfig solverConfig(const RunSpec& s) {
    core::SolverConfig cfg = s.cfg;
    if (s.ranks > 1 && !blockGiven(s))
        cfg.blockSize = {cfg.globalCells.x, cfg.globalCells.y,
                         cfg.globalCells.z / s.ranks};
    return cfg;
}

std::string analysisCsvPath(const RunSpec& s) {
    return (s.analysisDir.empty() ? s.outdir : s.analysisDir) +
           "/analysis.csv";
}

analysis::Pipeline makePipeline(const RunSpec& s) {
    analysis::Pipeline p;
    for (const auto& name : s.observers) p.add(analysis::makeObserver(name));
    return p;
}

analysis::MeshObserver::Options meshOptions(const RunSpec& s) {
    analysis::MeshObserver::Options mo;
    mo.dir = s.meshDir.empty() ? s.outdir + "/mesh" : s.meshDir;
    mo.phases = s.meshPhases;
    mo.every = s.meshEvery;
    return mo;
}

obs::RunObsOptions obsOptions(const RunSpec& s) {
    obs::RunObsOptions oo;
    oo.tracePath = s.tracePath;
    oo.metricsPath = s.metricsPath;
    if (s.metricsEvery > 0) {
        oo.metricsEvery = s.metricsEvery;
        if (oo.metricsPath.empty()) oo.metricsPath = s.outdir + "/metrics.csv";
    }
    return oo;
}

[[gnu::format(printf, 1, 2)]] std::string format(const char* fmt, ...) {
    std::va_list args;
    va_start(args, fmt);
    std::va_list sizing;
    va_copy(sizing, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, sizing);
    va_end(sizing);
    std::string out(static_cast<std::size_t>(std::max(n, 0)), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

void writeVtkSnapshot(const RunSpec& spec, core::Solver& solver) {
    // One file per root-rank block. Sub-domain files carry the block origin
    // in their name so a partial volume is never mistaken for the full
    // domain (remote ranks' blocks are not gathered).
    const long long step = solver.stepsDone();
    const bool wholeDomain =
        spec.ranks == 1 && solver.localBlocks().size() == 1;
    for (const auto& blk : solver.localBlocks()) {
        const std::string path =
            spec.outdir + "/" +
            (wholeDomain
                 ? format("phi_step%06lld.vtk", step)
                 : format("phi_step%06lld_block_x%d_y%d_z%d.vtk", step,
                          blk->origin.x, blk->origin.y, blk->origin.z));
        io::writeVtkField(path, blk->phiSrc, "phi");
        std::printf("wrote %s%s\n", path.c_str(),
                    wholeDomain ? "" : " (rank-0 sub-domain)");
    }
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
void heartbeat(const RunSpec& spec, core::Solver& solver, long long cells,
               int done, int sinceLast, double intervalSeconds, int front) {
    const double mlups =
        intervalSeconds > 0.0
            ? static_cast<double>(cells) * sinceLast / intervalSeconds / 1e6
            : 0.0;
    const double sPerStep =
        sinceLast > 0 ? intervalSeconds / sinceLast : 0.0;
    const long long etaS =
        static_cast<long long>(sPerStep * (spec.steps - done) + 0.5);
    std::printf("[%3d%%] step %lld/%lld  %7.2f MLUP/s  front_z=%d  "
                "eta %lld:%02lld\n",
                spec.steps > 0 ? 100 * done / spec.steps : 100,
                solver.stepsDone(),
                solver.stepsDone() - done + spec.steps, mlups, front,
                etaS / 60, etaS % 60);
}

void printTimingSummary(const std::vector<obs::FunctorStats>& stats,
                        int ranks) {
    // The full Timeloop::timings() table. For multi-rank runs the
    // cross-rank columns expose load imbalance per functor (max/avg is the
    // paper's Fig. 8 figure of merit): a well-hidden exchange shows
    // imbalance ~1.0, a straggling rank pushes it up.
    if (ranks > 1)
        std::printf("\ntiming summary across %d ranks "
                    "(avg s / max s @rank / imbalance / spike s / calls):\n",
                    ranks);
    else
        std::printf("\ntiming summary (seconds / spike s / calls):\n");
    for (const auto& f : stats) {
        if (ranks > 1)
            std::printf("  %-18s %8.3f  %8.3f @%-3d %6.2fx  %8.5f  %8lld\n",
                        f.name.c_str(), f.avgSeconds, f.maxSeconds, f.maxRank,
                        f.avgSeconds > 0.0 ? f.maxSeconds / f.avgSeconds : 1.0,
                        f.spikeSeconds, f.calls);
        else
            std::printf("  %-18s %8.3f  %8.5f  %8lld\n", f.name.c_str(),
                        f.avgSeconds, f.spikeSeconds, f.calls);
    }
}

/// Open one output series on root and agree on the outcome: a root-only
/// failure (unwritable directory, read-only or incompatible series file)
/// must abort *all* ranks — otherwise the healthy ranks block forever in
/// the next collective sample waiting for the dead root. Root prints the
/// cause (only it knows it); every rank throws.
void openSeriesOnRoot(vmpi::Comm* comm, const char* what,
                      const std::function<void()>& open) {
    int ok = 1;
    if (!comm || comm->isRoot()) {
        try {
            open();
        } catch (const io::CsvError& e) {
            std::fprintf(stderr, "tpf-sim: %s\n", e.what());
            ok = 0;
        }
    }
    if (comm && comm->size() > 1) ok = comm->bcast(ok);
    if (!ok)
        throw io::CsvError(std::string(what) +
                           " setup failed on the root rank (see the message "
                           "above)");
}

/// One rank of the run; fills \p result on root.
void runRank(const RunSpec& spec, vmpi::Comm* comm, RunResult& result) {
    const bool isRoot = !comm || comm->isRoot();
    const bool restart = !spec.restart.empty();
    core::Solver solver(solverConfig(spec), comm);

    if (restart) {
        // Resume from a checkpoint: fields, clocks, window offset and the
        // step counter are restored; no scenario initialization runs.
        io::loadCheckpoint(spec.restart, solver);
        if (isRoot) {
            std::printf("restarted from %s at step %lld (t=%.6g, window "
                        "offset %g)\n",
                        spec.restart.c_str(), solver.stepsDone(),
                        solver.time(), solver.windowOffsetCells());
            if (solver.windowOffsetCells() > 0.0 && !spec.cfg.window.enabled)
                std::fprintf(stderr,
                             "warning: checkpoint has a moving-window offset "
                             "of %g cells but --window is off; the window "
                             "will not keep moving\n",
                             solver.windowOffsetCells());
        }
    } else if (spec.scenario == "solidify") {
        solver.initialize(); // Voronoi-seeded melt
    } else {
        const core::Scenario sc = spec.scenario == "liquid"
                                      ? core::Scenario::Liquid
                                  : spec.scenario == "solid"
                                      ? core::Scenario::Solid
                                      : core::Scenario::Interface;
        for (auto& b : solver.localBlocks())
            core::fillScenario(*b, sc, solver.system(), spec.cfg.model.eps);
        solver.restore(/*time=*/0.0, /*windowOffset=*/0.0);
    }

    // In-situ analysis: every rank builds the same observer set in the same
    // order (sampling is collective); only root streams the CSV. A restarted
    // run continues the existing series in place: rows after the checkpoint
    // step are dropped, the cadence resumes on the global step grid.
    analysis::Pipeline pipeline;
    if (spec.analyzeEvery > 0) {
        pipeline = makePipeline(spec);
        const std::string csv = analysisCsvPath(spec);
        openSeriesOnRoot(comm, "analysis CSV", [&] {
            if (restart)
                pipeline.resumeCsv(csv, solver.stepsDone());
            else
                pipeline.createCsv(csv);
            std::printf("analysis: every %d steps -> %s\n", spec.analyzeEvery,
                        csv.c_str());
        });
        pipeline.attach(solver, spec.analyzeEvery);
        // Fresh runs record the initial state; restarts already have it.
        if (!restart) pipeline.sample(solver, solver.stepsDone());
    }

    // In-situ mesh extraction: collective like the analysis pipeline.
    std::unique_ptr<analysis::MeshObserver> mesh;
    if (spec.meshEvery > 0) {
        mesh = std::make_unique<analysis::MeshObserver>(meshOptions(spec));
        openSeriesOnRoot(comm, "mesh index", [&] {
            if (restart)
                mesh->resume(true, solver.stepsDone());
            else
                mesh->create(true);
            std::printf("mesh: every %d steps -> %s\n", spec.meshEvery,
                        meshOptions(spec).dir.c_str());
        });
        mesh->attach(solver);
        if (!restart) mesh->sample(solver, solver.stepsDone());
    }

    // Run telemetry (docs/OBSERVABILITY.md): per-rank trace spans and/or the
    // metrics CSV. Attached last so the "obs-metrics" hook samples after the
    // analysis/mesh hooks of the same step ran.
    const obs::RunObsOptions oo = obsOptions(spec);
    std::unique_ptr<obs::RunObs> runObs;
    if (!oo.tracePath.empty() || !oo.metricsPath.empty()) {
        runObs = std::make_unique<obs::RunObs>(oo);
        if (runObs->metricsEnabled())
            openSeriesOnRoot(comm, "metrics CSV", [&] {
                runObs->openMetricsCsv(restart, solver.stepsDone());
                std::printf("metrics: every %d steps -> %s\n", oo.metricsEvery,
                            oo.metricsPath.c_str());
            });
        if (isRoot && runObs->traceEnabled())
            std::printf("trace: %s\n", oo.tracePath.c_str());
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
    const int chunk = spec.reportEvery > 0 ? spec.reportEvery
                                           : std::max(1, spec.steps / 8);
    const Int3 n = spec.cfg.globalCells;
    const long long cells = static_cast<long long>(n.x) * n.y * n.z;
    int lastReport = 0;
    double lastReportT = t0;
    long long lastVtkStep = -1;
    for (int done = 0; done < spec.steps;) {
        // Stop at whichever boundary comes first: the report chunk or an
        // output cadence.
        int next = std::min(spec.steps, lastReport + chunk);
        if (spec.vtkEvery > 0)
            next = std::min(next, nextBoundary(done, spec.vtkEvery));
        if (spec.checkpointEvery > 0)
            next = std::min(next, nextBoundary(done, spec.checkpointEvery));

        solver.run(next - done);
        done = next;

        if (done - lastReport >= chunk || done == spec.steps) {
            const int front = report(solver, isRoot);
            const double nowT = perf::now();
            if (isRoot)
                heartbeat(spec, solver, cells, done, done - lastReport,
                          nowT - lastReportT, front);
            lastReport = done;
            lastReportT = nowT;
        }
        if (spec.vtkEvery > 0 && solver.stepsDone() % spec.vtkEvery == 0) {
            if (isRoot) writeVtkSnapshot(spec, solver);
            lastVtkStep = solver.stepsDone();
        }
        if (spec.checkpointEvery > 0 &&
            solver.stepsDone() % spec.checkpointEvery == 0) {
            // Named by the global step count, so a run restarted at step N
            // writes the names an uninterrupted run would use.
            const double c0 = perf::now();
            const std::string dir =
                spec.outdir +
                format("/checkpoint_step%06lld", solver.stepsDone());
            io::saveCheckpoint(dir, solver);
            if (isRoot) std::printf("wrote %s/\n", dir.c_str());
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
    if (spec.timingSummary) functorStats = obs::gatherTimingStats(solver);

    if (!isRoot) return;

    // Final artifacts: a VTK volume of the (root-rank) phi field plus the
    // run summary, so every invocation leaves output behind (skipped when
    // the cadence already wrote this step).
    if (lastVtkStep != solver.stepsDone()) writeVtkSnapshot(spec, solver);

    std::printf("\n%d steps on %lld cells in %.2f s", spec.steps, cells, wall);
    if (wall > 0.0)
        std::printf("  (%.2f MLUP/s total)",
                    static_cast<double>(cells) * spec.steps / wall / 1e6);
    std::printf("\ntimeloop breakdown (total / worst step):\n");
    for (const auto& t : solver.timeloop().timings())
        std::printf("  %-18s %8.3f s  %8.5f s\n", t.name.c_str(), t.seconds,
                    t.maxSeconds);
    if (spec.timingSummary) printTimingSummary(functorStats, spec.ranks);
    if (mesh) {
        const io::MeshPipelineTimings& mt = mesh->timings();
        std::printf("mesh pipeline (total, rank 0): extract %.3f s  simplify "
                    "%.3f s  balance+gather+stitch %.3f s  chunks off owner "
                    "%lld\n",
                    mt.extractSec, mt.simplifySec, mt.gatherSec,
                    mt.chunksOffOwner);
        result.mesh = mt;
    }
    result.stepsDone = solver.stepsDone();
    result.windowOffset = solver.windowOffsetCells();
}

} // namespace

std::optional<RunSpec::Rejection> RunSpec::validate() const {
    auto reject = [](int code, std::string msg) {
        return std::optional<Rejection>(Rejection{code, std::move(msg)});
    };
    const Int3 size = cfg.globalCells;
    const Int3 block = cfg.blockSize;

    if (scenario != "solidify" && scenario != "interface" &&
        scenario != "liquid" && scenario != "solid")
        return reject(2, "unknown scenario '" + scenario +
                             "' (solidify|interface|liquid|solid)");
    if (steps < 0 || ranks < 1 || cfg.threads < 1 || size.x < 4 ||
        size.y < 1 || size.z < 2)
        return reject(2, "invalid --steps/--ranks/--threads/--size");
    // Each rank spawns its own pool: cap the total so a typo fails cleanly
    // instead of exhausting OS threads in the ThreadPool constructor.
    const int maxWorkers = 256;
    if (ranks > maxWorkers / cfg.threads)
        return reject(2, format("--ranks x --threads = %lld exceeds the limit "
                                "of %d workers",
                                static_cast<long long>(ranks) * cfg.threads,
                                maxWorkers));
    if (blockGiven(*this) && (block.x < 4 || block.y < 1 || block.z < 1))
        return reject(2, format("--block must be all zero (auto) or a valid "
                                "size; got %d,%d,%d",
                                block.x, block.y, block.z));
    if (size.x % 4 != 0 || block.x % 4 != 0)
        return reject(2, format("NX must be divisible by 4 (the production "
                                "kernels use four-cell vectorization); got "
                                "%s=%d",
                                size.x % 4 != 0 ? "--size NX" : "--block NX",
                                size.x % 4 != 0 ? size.x : block.x));
    if (ranks > 1 && !blockGiven(*this) && size.z % ranks != 0)
        return reject(2, format("NZ=%d not divisible by %d ranks; pass --block",
                                size.z, ranks));
    for (const auto& [flag, every] :
         {std::pair{"--report-every", reportEvery}, {"--vtk-every", vtkEvery},
          {"--checkpoint-every", checkpointEvery}, {"--analyze", analyzeEvery},
          {"--mesh", meshEvery}, {"--metrics-every", metricsEvery}})
        if (every < 0) return reject(2, std::string(flag) + " must be >= 0");

    // --transport, else $TPF_TRANSPORT, which only multi-rank runs resolve;
    // checked here so a bad value exits 2 instead of aborting in
    // vmpi::defaultTransport().
    const bool fromEnv = transport.empty() && ranks > 1;
    const std::string tname =
        fromEnv ? vmpi::transportFromEnvironment() : transport;
    const std::string tsource = fromEnv ? "$TPF_TRANSPORT" : "--transport";
    vmpi::TransportKind kind = vmpi::TransportKind::Thread;
    if (!tname.empty()) {
        if (!vmpi::parseTransportName(tname, kind))
            return reject(2, "unknown " + tsource + " '" + tname +
                                 "' (thread, shm, mpi)");
        if (!vmpi::transportCompiledIn(kind))
            return reject(2, tsource +
                                 " mpi requires a TPF_WITH_MPI=ON build");
    }

    if (analyzeEvery > 0) {
        if (observers.empty())
            return reject(2, "--analysis-observers is empty");
        for (const auto& name : observers)
            if (analysis::makeObserver(name) == nullptr)
                return reject(2, "unknown observer '" + name +
                                     "' (fractions, lamellae, correlation)");
    }
    if (meshEvery > 0) {
        if (meshPhases.empty()) return reject(2, "--mesh-phases is empty");
        for (const int p : meshPhases)
            if (p < 0 || p >= core::N)
                return reject(2, format("--mesh-phases entries must be phase "
                                        "indices in [0,%d); got %d",
                                        core::N, p));
        // The pipeline's determinism contract needs blocks spanning the
        // periodic x/y extent (mesh_pipeline.h): cube corners wrap
        // laterally instead of reading corner ghosts the D3C19 exchange
        // doesn't fill.
        if (blockGiven(*this) && (block.x != size.x || block.y != size.y))
            return reject(2, format("--mesh needs blocks spanning the full "
                                    "x/y extent (z-split only); got block "
                                    "%d,%d,%d for domain %d,%d,%d",
                                    block.x, block.y, block.z, size.x, size.y,
                                    size.z));
    }

    if (restart.empty()) return std::nullopt;

    // Fail fast, before spawning ranks, when the checkpoint does not match
    // the requested geometry (loadCheckpoint re-validates everything per
    // rank, but this produces one clear message).
    try {
        const io::CheckpointMeta meta = io::readCheckpointMeta(restart);
        const Int3 effBlock =
            blockGiven(*this) || ranks > 1 ? solverConfig(*this).blockSize
                                           : size;
        const Int3 g = meta.globalCells, b = meta.blockCells;
        if (!(g == size) || meta.numRanks != ranks || !(b == effBlock))
            return reject(2, format("checkpoint %s was written with --size "
                                    "%d,%d,%d --ranks %d --block %d,%d,%d; "
                                    "pass the same",
                                    restart.c_str(), g.x, g.y, g.z,
                                    meta.numRanks, b.x, b.y, b.z));
    } catch (const io::CheckpointError& e) {
        return reject(1, e.what());
    }

    // Every series the run continues must match this build and spec — a
    // throw on the root rank mid-run would leave the other ranks blocked in
    // the collective sample.
    try {
        if (analyzeEvery > 0)
            io::checkSeriesContinuable(
                analysisCsvPath(*this), analysis::kAnalysisCsvTag,
                analysis::kAnalysisCsvVersion, makePipeline(*this).columns(),
                analysis::kAnalysisCsvFlags);
        if (meshEvery > 0) {
            const analysis::MeshObserver probe(meshOptions(*this));
            io::checkSeriesContinuable(probe.indexPath(), analysis::kMeshCsvTag,
                                       analysis::kMeshCsvVersion,
                                       probe.columns(),
                                       analysis::kMeshCsvFlags);
        }
        const obs::RunObsOptions oo = obsOptions(*this);
        if (!oo.metricsPath.empty())
            io::checkSeriesContinuable(
                oo.metricsPath, obs::MetricsRegistry::kCsvTag,
                obs::MetricsRegistry::kCsvVersion,
                obs::RunObs(oo).metricsColumns(),
                obs::MetricsRegistry::kCsvFlags);
    } catch (const io::CsvError& e) {
        return reject(2, e.what());
    }
    return std::nullopt;
}

vmpi::TransportKind RunSpec::transportKind() const {
    vmpi::TransportKind kind = vmpi::defaultTransport();
    if (!transport.empty()) vmpi::parseTransportName(transport, kind);
    return kind;
}

RunResult run(const RunSpec& spec) {
    std::filesystem::create_directories(spec.outdir);
    RunResult result;
    if (spec.ranks == 1)
        runRank(spec, nullptr, result);
    else
        vmpi::runParallel(spec.transportKind(), spec.ranks,
                          [&](vmpi::Comm& comm) {
                              runRank(spec, &comm, result);
                          });
    return result;
}

} // namespace tpf::app
