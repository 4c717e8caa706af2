/// Per-stage cost of the in-situ mesh-extraction pipeline (io/mesh_pipeline.h):
/// extract / simplify / gather+stitch wall time per streamed frame (one frame
/// = all three phase surfaces of a solidifying 32x32x128 Voronoi melt,
/// production-shaped: z-long, the geometry the moving-window runs use) across
/// ranks x threads decompositions, plus the in-situ overhead fraction at the
/// production cadence of one frame every 100 steps — the budget the paper's
/// I/O-reduction argument rests on (extraction must be cheap next to the
/// solver, §3.2; docs/MESH.md).
///
/// The solid sits low in the column, in rank 0's block, so the rank scaling
/// rests on the pipeline's chunk balancing: the "busiest rank" column is the
/// largest per-rank extract + simplify time, and "shipped" counts the chunks
/// executed off their owner per frame. The last row fills the bottom quarter
/// (the interface just inside rank 0's block at 4 ranks). Runs over the
/// default transport; set TPF_TRANSPORT=shm for forked ranks.
///
/// The production-step benchmark (prodbench/) times the same stages inside a
/// solidify run as its io.mesh_*_ms metrics.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/solver.h"
#include "io/mesh_pipeline.h"
#include "perf/perf.h"
#include "util/table.h"
#include "vmpi/comm.h"

using namespace tpf;

namespace {

constexpr int kWarmupSteps = 8;
/// The step time is the median of kStepWindows windows of kWindowSteps
/// steps each, so one noisy window cannot move the overhead line.
constexpr int kStepWindows = 6;
constexpr int kWindowSteps = 4;
constexpr int kFrames = 5;
constexpr int kNz = 128;

struct Result {
    double extractMs = 0.0;  ///< per frame, summed over root's chunks
    double simplifyMs = 0.0; ///< per frame
    double gatherMs = 0.0;   ///< per frame, incl. balancing and the stitch
    double busiestMs = 0.0;  ///< per frame, max over ranks of extract+simplify
    double shipped = 0.0;    ///< chunks executed off their owner per frame
    double stepMs = 0.0;     ///< one solver step, median over the windows
    double stepMinMs = 0.0;  ///< fastest window's step
    double stepMaxMs = 0.0;  ///< slowest window's step
};

core::SolverConfig meshBenchConfig(int ranks, int threads, int fill) {
    core::SolverConfig cfg;
    cfg.globalCells = {32, 32, kNz};
    if (ranks > 1) cfg.blockSize = {32, 32, kNz / ranks};
    cfg.threads = threads;
    if (fill > 0) {
        cfg.init.fillHeight = fill;
        cfg.model.temp.zEut0 = fill;
    }
    return cfg;
}

/// One decomposition: warm the solver into a developed microstructure, time
/// plain stepping, then time kFrames full-pipeline extractions. \p fill 0
/// keeps the default solid fill.
Result measure(int ranks, int threads, int fill) {
    Result res;
    auto body = [&](vmpi::Comm* comm) {
        core::Solver solver(meshBenchConfig(ranks, threads, fill), comm);
        solver.initialize();
        solver.run(kWarmupSteps);

        std::vector<double> stepSec;
        for (int w = 0; w < kStepWindows; ++w) {
            const double t0 = perf::now();
            solver.run(kWindowSteps);
            stepSec.push_back((perf::now() - t0) / kWindowSteps);
        }
        std::sort(stepSec.begin(), stepSec.end());

        io::MeshPipelineTimings tm;
        io::MeshPipelineOptions opt;
        opt.pool = solver.pool();
        for (int frame = 0; frame < kFrames; ++frame)
            io::extractGlobalPhaseSurfaces(solver.localBlocks(),
                                           solver.forest(), comm, {0, 1, 2},
                                           opt, &tm);
        double busiest = tm.extractSec + tm.simplifySec;
        if (comm != nullptr) busiest = comm->allreduceMax(busiest);
        if (!comm || comm->isRoot()) {
            res.extractMs = tm.extractSec / kFrames * 1e3;
            res.simplifyMs = tm.simplifySec / kFrames * 1e3;
            res.gatherMs = tm.gatherSec / kFrames * 1e3;
            res.busiestMs = busiest / kFrames * 1e3;
            res.shipped = static_cast<double>(tm.chunksOffOwner) / kFrames;
            // Even count: the mean of the two middle windows.
            res.stepMs =
                (stepSec[kStepWindows / 2 - 1] + stepSec[kStepWindows / 2]) /
                2.0 * 1e3;
            res.stepMinMs = stepSec.front() * 1e3;
            res.stepMaxMs = stepSec.back() * 1e3;
        }
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return res;
}

} // namespace

int main() {
    std::printf("== In-situ mesh pipeline, 32x32x%d solidify, 3 phases, "
                "%d frames ==\n\n",
                kNz, kFrames);

    Table t({"ranks", "threads", "fill", "extract [ms]", "simplify [ms]",
             "gather [ms]", "frame [ms]", "busiest rank [ms]", "shipped",
             "step [ms]"});
    std::string overhead;
    auto row = [&](int ranks, int threads, int fill) {
        const Result r = measure(ranks, threads, fill);
        const double frameMs = r.extractMs + r.simplifyMs + r.gatherMs;
        t.addRow({std::to_string(ranks), std::to_string(threads),
                  fill > 0 ? std::to_string(fill) : "default",
                  Table::num(r.extractMs, 3), Table::num(r.simplifyMs, 3),
                  Table::num(r.gatherMs, 3), Table::num(frameMs, 3),
                  Table::num(r.busiestMs, 3), Table::num(r.shipped, 3),
                  Table::num(r.stepMs, 3)});
        if (threads == 1 && fill == 0) {
            char buf[96];
            std::snprintf(buf, sizeof buf,
                          "%sr%d %.2f%% (step %.2f ms, windows %.2f-%.2f)",
                          overhead.empty() ? "" : ", ", ranks,
                          frameMs / (100.0 * r.stepMs) * 100.0, r.stepMs,
                          r.stepMinMs, r.stepMaxMs);
            overhead += buf;
        }
    };
    for (const int ranks : {1, 2, 4})
        for (const int threads : {1, 4}) row(ranks, threads, 0);
    row(4, 1, kNz / 4 - 4); // front-localized: bottom quarter, rank 0 only
    t.print();
    std::printf("\nin-situ overhead at one frame per 100 steps (t1, root's "
                "frame wall vs its median step over %d windows of %d steps, "
                "window range in parentheses): %s\n",
                kStepWindows, kWindowSteps, overhead.c_str());
    return 0;
}
