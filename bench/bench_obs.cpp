/// Overhead of the run-telemetry layer (src/obs): step throughput of the
/// solidify scenario with the full stack on (trace spans on every timeloop
/// functor, metrics sampling with cross-rank reductions, fan-out stats in
/// every parallelFor) versus the same run with no sinks installed — the
/// obs-off path every production run without --trace/--metrics takes.
///
/// The budget (docs/OBSERVABILITY.md): the overhead stays below 2%. That is
/// what makes "leave the heartbeat and metrics on by default" a defensible
/// operational stance for the paper's multi-day directional-solidification
/// runs, where discovering a load imbalance after the fact costs a full
/// re-run. The overhead is printed signed: a negative value means the
/// instrumented run measured faster, i.e. the run-to-run noise is larger
/// than the telemetry cost. The production-step benchmark (prodbench/)
/// reports the same quantity as trace_overhead_frac.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <unistd.h>

#include "core/solver.h"
#include "obs/run_obs.h"
#include "perf/perf.h"
#include "util/table.h"

using namespace tpf;

namespace {

constexpr int kWarmupSteps = 8;
constexpr int kTimedSteps = 48;
constexpr int kReps = 3; ///< best-of reps: the floor, not the noise

core::SolverConfig obsBenchConfig() {
    core::SolverConfig cfg;
    cfg.globalCells = {32, 32, 64};
    cfg.threads = 1;
    return cfg;
}

/// MLUP/s of kTimedSteps solver steps; with \p instrumented, the full
/// telemetry stack rides along exactly as `tpf-sim --trace --metrics` wires
/// it (artifacts land in a scratch dir that is removed afterwards).
double measure(bool instrumented, const std::filesystem::path& scratch) {
    const core::SolverConfig cfg = obsBenchConfig();
    core::Solver solver(cfg);

    std::unique_ptr<obs::RunObs> ro;
    if (instrumented) {
        ro = std::make_unique<obs::RunObs>(obs::RunObsOptions{
            (scratch / "trace.json").string(),
            (scratch / "metrics.csv").string(), /*metricsEvery=*/10});
        ro->openMetricsCsv(/*restart=*/false, 0);
    }
    solver.initialize();
    if (ro) ro->attach(solver);
    solver.run(kWarmupSteps);

    const double t0 = perf::now();
    solver.run(kTimedSteps);
    const double sec = perf::now() - t0;

    if (ro) ro->finish(solver);

    const double cells = static_cast<double>(cfg.globalCells.x) *
                         cfg.globalCells.y * cfg.globalCells.z;
    return cells * kTimedSteps / sec / 1e6;
}

} // namespace

int main() {
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::temp_directory_path() /
        ("tpf_bench_obs_" + std::to_string(::getpid()));
    fs::create_directories(scratch);

    std::printf("== Telemetry overhead, 32x32x64 solidify, %d timed steps, "
                "best of %d ==\n\n",
                kTimedSteps, kReps);

    // Interleave off/on reps so drift (thermal, cache state) hits both.
    double off = 0.0, on = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        off = std::max(off, measure(false, scratch));
        on = std::max(on, measure(true, scratch));
    }
    fs::remove_all(scratch);

    const double overhead = (off - on) / off;

    Table t({"configuration", "MLUP/s", "overhead"});
    t.addRow({"obs off (no sinks)", Table::num(off, 3), "-"});
    t.addRow({"trace+metrics+fanout on", Table::num(on, 3),
              Table::num(overhead * 100.0, 2) + "%"});
    t.print();

    std::printf("\nbudget: overhead < 2%%; a negative overhead means the "
                "run-to-run noise exceeds the telemetry cost\n");
    return 0;
}
