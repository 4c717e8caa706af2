/// \file test_obs.cpp
/// The run-telemetry layer (src/obs): trace recording and the Chrome
/// trace-event writer (valid JSON, balanced B/E spans, rank-merge ordering),
/// the metrics registry and its versioned CSV (schema line, %.17g exact
/// round-trip, restart-resume semantics mirroring the analysis series), the
/// fan-out stats choke point in util::ThreadPool, and the layer's hard
/// contract: observability is non-perturbing — a solver run with tracing
/// and metrics fully on produces a checkpoint bitwise identical to an
/// uninstrumented run, across ranks x threads (docs/OBSERVABILITY.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>

#include "app/run.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "obs/fanout.h"
#include "obs/metrics.h"
#include "obs/run_obs.h"
#include "obs/trace.h"
#include "run_support.h"
#include "util/thread_pool.h"

namespace tpf {
namespace {

namespace fs = std::filesystem;

void writeFile(const fs::path& p, const std::string& content) {
    std::ofstream out(p, std::ios::binary);
    out << content;
}

// --- Trace recording and the Chrome trace-event writer --------------------

TEST(ObsTrace, ScopedSpansRecordBalancedEventsThroughTheThreadSink) {
    obs::Trace t;
    obs::setThreadTrace(&t);
    {
        TPF_SPAN("outer");
        { obs::ScopedSpan inner("inner"); }
    }
    obs::setThreadTrace(nullptr);
    EXPECT_EQ(t.eventCount(), 4u); // two B + two E
    EXPECT_EQ(t.openSpans(), 0);

    // With no sink installed the macro is a no-op, not a crash.
    { TPF_SPAN("unsinked"); }
}

TEST(ObsTrace, MergedChromeTraceIsValidJsonWithOneRankPerBlob) {
    test::TempDir dir("obs_trace");
    const std::string path = (dir.path / "trace.json").string();

    obs::Trace r0;
    r0.begin("step");
    r0.begin("phi-sweep");
    r0.end();
    r0.end();
    obs::Trace r1;
    r1.begin("step");
    r1.end();

    const double epoch = std::min(r0.firstTs(), r1.firstTs());
    obs::writeChromeTrace(path, {r0.serialize(epoch), r1.serialize(epoch)});

    const obs::TraceCheck c = obs::validateTraceFile(path);
    EXPECT_TRUE(c.ok) << c.message;
    EXPECT_EQ(c.ranks, 2);
    EXPECT_EQ(c.events, 6); // 4 + 2 duration events
    EXPECT_EQ(c.spanNames,
              (std::vector<std::string>{"phi-sweep", "step"}));
}

TEST(ObsTrace, SerializeAssertsOnOpenSpansViaBalanceStack) {
    // An unbalanced recording is a bug in the instrumentation; the balance
    // stack catches it before anything reaches disk.
    obs::Trace t;
    t.begin("never-closed");
    EXPECT_EQ(t.openSpans(), 1);
    t.end();
    EXPECT_EQ(t.openSpans(), 0);
}

TEST(ObsTrace, ValidatorRejectsMalformedUnbalancedAndNonMonotonic) {
    test::TempDir dir("obs_validate");

    const fs::path bad = dir.path / "bad.json";
    writeFile(bad, "{\"traceEvents\":[");
    EXPECT_FALSE(obs::validateTraceFile(bad.string()).ok);

    const fs::path unbalanced = dir.path / "unbalanced.json";
    writeFile(unbalanced,
              "{\"traceEvents\":[{\"ph\":\"B\",\"ts\":0,\"pid\":0,"
              "\"tid\":0,\"name\":\"x\"}]}");
    EXPECT_FALSE(obs::validateTraceFile(unbalanced.string()).ok);

    const fs::path backwards = dir.path / "backwards.json";
    writeFile(backwards,
              "{\"traceEvents\":["
              "{\"ph\":\"B\",\"ts\":10,\"pid\":0,\"tid\":0,\"name\":\"x\"},"
              "{\"ph\":\"E\",\"ts\":5,\"pid\":0,\"tid\":0,\"name\":\"x\"}]}");
    EXPECT_FALSE(obs::validateTraceFile(backwards.string()).ok);

    EXPECT_FALSE(
        obs::validateTraceFile((dir.path / "absent.json").string()).ok);
}

// --- Metrics registry and CSV ----------------------------------------------

TEST(ObsMetrics, RegistrationOrderDefinesColumnsAndHistogramsExpand) {
    obs::MetricsRegistry r;
    r.counter("steps").add(2.5);
    r.gauge("mlups").set(-1.0);
    r.histogram("wall").observe(3.0);
    r.histogram("wall").observe(1.0);

    EXPECT_EQ(r.columns(),
              (std::vector<std::string>{"steps", "mlups", "wall_count",
                                        "wall_min", "wall_max", "wall_sum"}));
    const std::vector<double> row = r.row();
    ASSERT_EQ(row.size(), 6u);
    EXPECT_EQ(row[0], 2.5);
    EXPECT_EQ(row[1], -1.0);
    EXPECT_EQ(row[2], 2.0);
    EXPECT_EQ(row[3], 1.0);
    EXPECT_EQ(row[4], 3.0);
    EXPECT_EQ(row[5], 4.0);
}

TEST(ObsMetrics, CsvCarriesSchemaLineAndRoundTripsDoublesExactly) {
    test::TempDir dir("obs_csv");
    const std::string path = (dir.path / "metrics.csv").string();
    const double v = 0.1 + 0.2; // 0.30000000000000004

    obs::MetricsRegistry r;
    r.gauge("v");
    r.createCsv(path);
    r.gauge("v").set(v);
    r.writeCsvRow(0);
    r.gauge("v").set(1.0 / 3.0);
    r.writeCsvRow(10);
    r.closeCsv();

    const io::CsvSeries s = io::readCsvSeries(path);
    EXPECT_EQ(s.schema, "# tpf-metrics v1");
    ASSERT_EQ(s.columns, (std::vector<std::string>{"step", "v"}));
    ASSERT_EQ(s.rows.size(), 2u);
    EXPECT_EQ(s.stepOf(0), 0);
    EXPECT_EQ(s.stepOf(1), 10);
    EXPECT_EQ(std::stod(s.rows[0][1]), v) << s.rows[0][1];
    EXPECT_EQ(std::stod(s.rows[1][1]), 1.0 / 3.0) << s.rows[1][1];
}

TEST(ObsMetrics, ResumeRejectsAForeignSchema) {
    test::TempDir dir("obs_schema");
    const std::string path = (dir.path / "metrics.csv").string();
    {
        io::CsvWriter w;
        w.create(path, "tpf-analysis", 1, {"v"});
        w.writeRow(0, {1.0});
        w.close();
    }
    obs::MetricsRegistry r;
    r.gauge("v");
    EXPECT_THROW(r.resumeCsv(path, 0), io::CsvError);
}

// --- Fan-out stats through the ThreadPool choke point ----------------------

TEST(ObsFanout, ParallelForReportsIntoTheInstalledSink) {
    util::ThreadPool pool(2);
    obs::FanoutStats stats;
    obs::setThreadFanoutStats(&stats);
    pool.parallelFor(8, [](int) {});
    pool.parallelFor(3, [](int) {});
    obs::setThreadFanoutStats(nullptr);

    EXPECT_EQ(stats.fanouts.load(), 2);
    EXPECT_EQ(stats.tasks.load(), 11);
    EXPECT_GE(stats.wallSeconds.load(), 0.0);
    EXPECT_GE(stats.busySeconds.load(), 0.0);

    // With the sink uninstalled the pool records nothing further.
    pool.parallelFor(4, [](int) {});
    EXPECT_EQ(stats.fanouts.load(), 2);
}

// --- The non-perturbation contract ------------------------------------------

TEST(ObsNonPerturbation, CheckpointBitwiseIdenticalWithTelemetryOn) {
    test::TempDir dir("obs_nonperturb");
    const int steps = 8;

    for (const int ranks : {1, 2}) {
        for (const int threads : {1, 2}) {
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            const std::string tag =
                "r" + std::to_string(ranks) + "_t" + std::to_string(threads);
            // Uninstrumented reference at the same decomposition (the
            // checkpoint layout is per-rank; cross-rank invariance is the
            // other suites' contract — this one pins obs-on == obs-off).
            app::RunSpec spec = test::runSpec(
                test::windowConfig(ranks, threads), ranks, steps,
                dir.path / ("ref_" + tag));
            spec.checkpointEvery = steps;
            app::run(spec);
            const fs::path ref = test::checkpointDir(spec, steps);

            // The full telemetry stack rides along: trace + metrics +
            // fan-out sinks, sampling hook, post-run merge.
            spec.outdir = (dir.path / ("obs_" + tag)).string();
            const std::string trace =
                (dir.path / ("trace_" + tag + ".json")).string();
            const std::string metrics =
                (dir.path / ("metrics_" + tag + ".csv")).string();
            spec.tracePath = trace;
            spec.metricsPath = metrics;
            spec.metricsEvery = 4;
            app::run(spec);
            const fs::path chk = test::checkpointDir(spec, steps);

            const io::CheckpointDiff d =
                io::compareCheckpoints(ref.string(), chk.string());
            EXPECT_TRUE(d.identical)
                << "telemetry perturbed the run: " << d.message();

            // The artifacts the run produced must themselves be sound.
            const obs::TraceCheck c = obs::validateTraceFile(trace);
            EXPECT_TRUE(c.ok) << c.message;
            EXPECT_EQ(c.ranks, ranks);
            EXPECT_TRUE(std::find(c.spanNames.begin(), c.spanNames.end(),
                                  "step") != c.spanNames.end());
            EXPECT_TRUE(std::find(c.spanNames.begin(), c.spanNames.end(),
                                  "phi-sweep") != c.spanNames.end());

            const io::CsvSeries s = io::readCsvSeries(metrics);
            EXPECT_EQ(s.schema, "# tpf-metrics v1");
            ASSERT_GE(s.rows.size(), 3u); // steps 0, 4, 8
            EXPECT_EQ(s.stepOf(0), 0);
            EXPECT_EQ(s.stepOf(s.rows.size() - 1), steps);
            for (std::size_t i = 1; i < s.rows.size(); ++i)
                EXPECT_GT(s.stepOf(i), s.stepOf(i - 1));
        }
    }
}

TEST(ObsTimingStats, GatherFillsCrossRankLoadFigures) {
    // Single rank: avg == max == the rank's own total, spike from timings.
    {
        core::Solver solver(test::windowConfig(1, 1));
        solver.initialize();
        solver.run(2);
        const auto stats = obs::gatherTimingStats(solver);
        ASSERT_FALSE(stats.empty());
        bool sawPhi = false;
        for (const auto& f : stats) {
            EXPECT_EQ(f.avgSeconds, f.maxSeconds) << f.name;
            EXPECT_EQ(f.maxRank, 0) << f.name;
            if (f.name == "phi-sweep") {
                sawPhi = true;
                EXPECT_GT(f.maxSeconds, 0.0);
                EXPECT_GT(f.calls, 0);
            }
        }
        EXPECT_TRUE(sawPhi);
    }

    // Two ranks: the collective fills avg/max on the root; the imbalance
    // figure max/avg is finite and >= 1.
    vmpi::runParallel(2, [&](vmpi::Comm& comm) {
        core::Solver solver(test::windowConfig(2, 1), &comm);
        solver.initialize();
        solver.run(2);
        const auto stats = obs::gatherTimingStats(solver);
        if (comm.isRoot()) {
            ASSERT_FALSE(stats.empty());
            for (const auto& f : stats) {
                if (f.avgSeconds > 0.0) {
                    EXPECT_GE(f.maxSeconds / f.avgSeconds, 1.0) << f.name;
                }
                EXPECT_GE(f.maxRank, 0);
                EXPECT_LT(f.maxRank, 2);
            }
        }
    });
}

} // namespace
} // namespace tpf
