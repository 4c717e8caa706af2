/// Tests for checkpointing (format v2: versioned header, per-field CRC32,
/// exact float64 restart, optional float32 mode, atomic publication) and the
/// file writers.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "io/writers.h"

namespace tpf::io {
namespace {

namespace fs = std::filesystem;

core::SolverConfig testConfig() {
    core::SolverConfig cfg;
    cfg.globalCells = {24, 24, 32};
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.zEut0 = 16.0;
    cfg.model.temp.velocity = 0.02;
    cfg.init.fillHeight = 8;
    return cfg;
}

struct TempDir {
    fs::path path;
    TempDir() {
        path = fs::temp_directory_path() /
               ("tpf_test_" + std::to_string(::getpid()) + "_" +
                std::to_string(counter()));
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    static int counter() {
        static int c = 0;
        return c++;
    }
};

/// Max |difference| over phi and mu interiors of two solvers' first blocks.
double stateDiff(core::Solver& a, core::Solver& b) {
    auto& ba = *a.localBlocks().front();
    auto& bb = *b.localBlocks().front();
    double maxDiff = 0.0;
    forEachCell(ba.phiSrc.interior(), [&](int x, int y, int z) {
        for (int f = 0; f < core::N; ++f)
            maxDiff = std::max(maxDiff, std::abs(ba.phiSrc(x, y, z, f) -
                                                 bb.phiSrc(x, y, z, f)));
        for (int f = 0; f < core::KC; ++f)
            maxDiff = std::max(maxDiff, std::abs(ba.muSrc(x, y, z, f) -
                                                 bb.muSrc(x, y, z, f)));
    });
    return maxDiff;
}

TEST(Checkpoint, RoundTripIsExactInFloat64) {
    TempDir dir;
    core::Solver a(testConfig());
    a.initialize();
    a.run(40);
    saveCheckpoint(dir.path.string(), a);

    core::Solver b(testConfig());
    b.initialize(); // different state before load
    loadCheckpoint(dir.path.string(), b);

    EXPECT_EQ(b.time(), a.time());
    EXPECT_EQ(b.windowOffsetCells(), a.windowOffsetCells());
    EXPECT_EQ(b.stepsDone(), a.stepsDone());
    // Default precision is float64: the restored state is bitwise identical.
    EXPECT_EQ(stateDiff(a, b), 0.0);
}

TEST(Checkpoint, Float32ModeRoundsToFloatPrecision) {
    TempDir dir;
    core::Solver a(testConfig());
    a.initialize();
    a.run(40);
    CheckpointOptions opts;
    opts.precision = CheckpointPrecision::Float32;
    saveCheckpoint(dir.path.string(), a, opts);

    core::Solver b(testConfig());
    b.initialize();
    loadCheckpoint(dir.path.string(), b);

    const double maxDiff = stateDiff(a, b);
    // Single-precision storage: values match to float epsilon only.
    EXPECT_LT(maxDiff, 1e-6);
    EXPECT_GT(maxDiff, 0.0) << "float rounding should be visible";
}

TEST(Checkpoint, RestartContinuesTheSimulationExactly) {
    TempDir dir;
    // Reference: 60 uninterrupted steps.
    core::Solver ref(testConfig());
    ref.initialize();
    ref.run(60);

    // Interrupted: 30 steps, checkpoint, restore, 30 more.
    core::Solver first(testConfig());
    first.initialize();
    first.run(30);
    saveCheckpoint(dir.path.string(), first);

    core::Solver second(testConfig());
    loadCheckpoint(dir.path.string(), second);
    second.run(30);

    // The float64 checkpoint makes the restarted trajectory bitwise equal to
    // the uninterrupted one (tests/test_restart.cpp covers ranks x threads).
    EXPECT_EQ(second.time(), ref.time());
    EXPECT_EQ(second.stepsDone(), ref.stepsDone());
    EXPECT_EQ(stateDiff(ref, second), 0.0);
}

TEST(Checkpoint, MetaReadback) {
    TempDir dir;
    core::Solver s(testConfig());
    s.initialize();
    s.run(5);
    saveCheckpoint(dir.path.string(), s);

    const CheckpointMeta meta = readCheckpointMeta(dir.path.string());
    EXPECT_EQ(meta.formatVersion, kCheckpointFormatVersion);
    EXPECT_EQ(meta.precisionBytes, 8);
    EXPECT_EQ(meta.step, 5);
    EXPECT_EQ(meta.time, s.time());
    EXPECT_EQ(meta.globalCells, (Int3{24, 24, 32}));
    EXPECT_EQ(meta.blockCells, (Int3{24, 24, 32}));
    EXPECT_EQ(meta.numRanks, 1);
}

TEST(Checkpoint, MultiRankSaveAndLoad) {
    TempDir dir;
    auto cfg = testConfig();
    cfg.blockSize = {24, 24, 8};
    vmpi::runParallel(4, [&](vmpi::Comm& comm) {
        core::Solver s(cfg, &comm);
        s.initialize();
        s.run(20);
        const auto fr = s.phaseFractions();
        saveCheckpoint(dir.path.string(), s);

        core::Solver t(cfg, &comm);
        t.initialize();
        loadCheckpoint(dir.path.string(), t);
        const auto fr2 = t.phaseFractions();
        // Exact restore + deterministic rank-ordered reductions: the
        // diagnostics agree bitwise, not just to a tolerance.
        for (int a = 0; a < core::N; ++a)
            EXPECT_EQ(fr2[static_cast<std::size_t>(a)],
                      fr[static_cast<std::size_t>(a)]);
    });
    // Four rank files must exist.
    for (int r = 0; r < 4; ++r)
        EXPECT_TRUE(fs::exists(dir.path / ("rank_" + std::to_string(r) +
                                           ".tpfchk")));
}

TEST(Checkpoint, FileSizeMatchesPrecision) {
    TempDir dir64, dir32;
    core::Solver s(testConfig());
    s.initialize();

    saveCheckpoint(dir64.path.string(), s);
    EXPECT_EQ(fs::file_size(dir64.path / "rank_0.tpfchk"),
              checkpointBytes(s));

    CheckpointOptions opts;
    opts.precision = CheckpointPrecision::Float32;
    saveCheckpoint(dir32.path.string(), s, opts);
    const auto actual32 = fs::file_size(dir32.path / "rank_0.tpfchk");
    EXPECT_EQ(actual32, checkpointBytes(s, CheckpointPrecision::Float32));
    // 6 floats per cell — half of the 6 doubles of the live state (paper
    // §3.2's I/O reduction), modulo the fixed headers.
    const std::size_t cells = 24 * 24 * 32;
    EXPECT_NEAR(static_cast<double>(actual32),
                static_cast<double>(cells * 6 * sizeof(float)), 1024.0);
}

TEST(Checkpoint, CorruptedByteIsDetectedAndNamesTheField) {
    TempDir dir;
    core::Solver s(testConfig());
    s.initialize();
    s.run(5);
    saveCheckpoint(dir.path.string(), s);

    // Flip one byte near the end of the rank file: inside the mu payload
    // (the last field written).
    const fs::path file = dir.path / "rank_0.tpfchk";
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(-17, std::ios::end);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x5A);
        f.seekp(-17, std::ios::end);
        f.write(&byte, 1);
    }

    core::Solver t(testConfig());
    try {
        loadCheckpoint(dir.path.string(), t);
        FAIL() << "corrupted checkpoint must not load";
    } catch (const CheckpointError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
        EXPECT_NE(what.find("'mu'"), std::string::npos)
            << "the offending field must be named: " << what;
    }
}

TEST(Checkpoint, CorruptedRankCountCannotFakeAnIdenticalDiff) {
    // The header is not CRC-protected: a zeroed numRanks must be rejected
    // as corrupt, not shrink compareCheckpoints to an empty (and therefore
    // "identical") comparison.
    TempDir dir;
    core::Solver s(testConfig());
    s.initialize();
    saveCheckpoint(dir.path.string(), s);

    const fs::path file = dir.path / "rank_0.tpfchk";
    {
        std::fstream f(file, std::ios::in | std::ios::out |
                                 std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekp(72); // FileHeader::numRanks
        const std::int32_t zero = 0;
        f.write(reinterpret_cast<const char*>(&zero), sizeof(zero));
    }

    const CheckpointDiff d =
        compareCheckpoints(dir.path.string(), dir.path.string());
    EXPECT_FALSE(d.identical);
    EXPECT_NE(d.structural.find("corrupt checkpoint header"),
              std::string::npos)
        << d.message();
}

TEST(Checkpoint, TruncatedFileIsDetected) {
    TempDir dir;
    core::Solver s(testConfig());
    s.initialize();
    saveCheckpoint(dir.path.string(), s);

    const fs::path file = dir.path / "rank_0.tpfchk";
    fs::resize_file(file, fs::file_size(file) / 2);

    core::Solver t(testConfig());
    try {
        loadCheckpoint(dir.path.string(), t);
        FAIL() << "truncated checkpoint must not load";
    } catch (const CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
            << e.what();
    }
}

TEST(Checkpoint, SaveIsAtomicAndCleansStaleStaging) {
    TempDir dir;
    const std::string target = (dir.path / "chk").string();

    // Simulate the debris of a killed save: a stale staging directory.
    fs::create_directories(target + ".tmp");
    {
        std::ofstream junk(target + ".tmp/rank_0.tpfchk");
        junk << "half-written garbage";
    }

    core::Solver s(testConfig());
    s.initialize();
    s.run(3);
    saveCheckpoint(target, s);

    // The staging directory was consumed by the rename; the published
    // checkpoint is complete and loadable.
    EXPECT_FALSE(fs::exists(target + ".tmp"));
    core::Solver t(testConfig());
    loadCheckpoint(target, t);
    EXPECT_EQ(t.stepsDone(), 3);

    // Overwriting an existing checkpoint re-publishes atomically: neither
    // staging nor the moved-aside previous checkpoint is left behind.
    s.run(2);
    saveCheckpoint(target, s);
    EXPECT_FALSE(fs::exists(target + ".tmp"));
    EXPECT_FALSE(fs::exists(target + ".old"));
    core::Solver u(testConfig());
    loadCheckpoint(target, u);
    EXPECT_EQ(u.stepsDone(), 5);
}

TEST(Checkpoint, CompareCheckpointsReportsFirstDivergentCell) {
    TempDir dirA, dirB;
    core::Solver s(testConfig());
    s.initialize();
    s.run(5);
    saveCheckpoint(dirA.path.string(), s);

    // Perturb exactly one phi value (same clocks, same geometry) and save
    // again: the diff must point at that field, component and cell.
    auto& blk = *s.localBlocks().front();
    blk.phiSrc(3, 7, 11, 2) += 1e-9;
    saveCheckpoint(dirB.path.string(), s);

    const CheckpointDiff d =
        compareCheckpoints(dirA.path.string(), dirB.path.string());
    EXPECT_FALSE(d.identical);
    EXPECT_TRUE(d.structural.empty()) << d.structural;
    EXPECT_EQ(d.field, "phi");
    EXPECT_EQ(d.component, 2);
    EXPECT_EQ(d.cell, (Int3{3, 7, 11}));
    EXPECT_EQ(d.differingValues, 1);
    EXPECT_NE(d.message().find("'phi'"), std::string::npos) << d.message();

    const CheckpointDiff same =
        compareCheckpoints(dirA.path.string(), dirA.path.string());
    EXPECT_TRUE(same.identical) << same.message();
}

// --- writers ---

TriMesh unitTriangle() {
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
    m.triangles = {{0, 1, 2}};
    return m;
}

TEST(Writers, ObjRoundTrip) {
    TempDir dir;
    TriMesh m = unitTriangle();
    m.vertices.push_back({0.25, 0.25, 1.5});
    m.triangles.push_back({0, 1, 3});

    const std::string path = (dir.path / "mesh.obj").string();
    writeObj(path, m);
    const TriMesh back = readObj(path);

    ASSERT_EQ(back.numVertices(), m.numVertices());
    ASSERT_EQ(back.numTriangles(), m.numTriangles());
    for (std::size_t i = 0; i < m.vertices.size(); ++i) {
        EXPECT_NEAR(back.vertices[i].x, m.vertices[i].x, 1e-7);
        EXPECT_NEAR(back.vertices[i].z, m.vertices[i].z, 1e-7);
    }
    EXPECT_EQ(back.triangles, m.triangles);
}

TEST(Writers, StlBinaryHasCorrectSize) {
    TempDir dir;
    const TriMesh m = unitTriangle();
    const std::string path = (dir.path / "mesh.stl").string();
    writeStlBinary(path, m);
    // 80-byte header + 4-byte count + 50 bytes per triangle.
    EXPECT_EQ(fs::file_size(path), 80u + 4u + 50u * m.numTriangles());
}

TEST(Writers, VtkFieldContainsHeaderAndData) {
    TempDir dir;
    Field<double> f(4, 3, 2, 2, 1, Layout::fzyx);
    f.fill(1.25);
    const std::string path = (dir.path / "field.vtk").string();
    writeVtkField(path, f, "phi");

    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("STRUCTURED_POINTS"), std::string::npos);
    EXPECT_NE(content.find("DIMENSIONS 4 3 2"), std::string::npos);
    EXPECT_NE(content.find("SCALARS phi0"), std::string::npos);
    EXPECT_NE(content.find("SCALARS phi1"), std::string::npos);
    EXPECT_NE(content.find("1.25"), std::string::npos);
}

// --- CSV time-series writer (the analysis pipeline's output format) ------

const SeriesFlags kSeriesFlags{"--dir", "--columns"};

TEST(CsvWriter, CreateWriteReadRoundTrip) {
    TempDir dir;
    const std::string path = (dir.path / "series.csv").string();
    CsvWriter w;
    w.create(path, "tpf-analysis", 1, {"time", "front_z"});
    w.writeRow(0, {0.0, 4.0});
    w.writeRow(4, {0.04, 5.0});
    w.close();

    const CsvSeries s = readCsvSeries(path);
    EXPECT_EQ(s.schema, "# tpf-analysis v1");
    ASSERT_EQ(s.columns,
              (std::vector<std::string>{"step", "time", "front_z"}));
    ASSERT_EQ(s.rows.size(), 2u);
    EXPECT_EQ(s.stepOf(0), 0);
    EXPECT_EQ(s.stepOf(1), 4);
    EXPECT_EQ(s.rows[1][2], "5");
}

TEST(CsvWriter, ValuesRoundTripDoublesExactly) {
    TempDir dir;
    const std::string path = (dir.path / "series.csv").string();
    const double v = 0.1 + 0.2; // 0.30000000000000004
    CsvWriter w;
    w.create(path, "tpf-analysis", 1, {"v"});
    w.writeRow(0, {v});
    w.close();

    const CsvSeries s = readCsvSeries(path);
    EXPECT_EQ(std::stod(s.rows[0][1]), v) << s.rows[0][1];
}

TEST(CsvWriter, ResumeKeepsRowsUpToTheCheckpointStep) {
    TempDir dir;
    const std::string path = (dir.path / "series.csv").string();
    {
        CsvWriter w;
        w.create(path, "tpf-analysis", 1, {"v"});
        w.writeRow(0, {1.0});
        w.writeRow(4, {2.0});
        w.writeRow(8, {3.0}); // the run outlived its step-4 checkpoint
    }
    CsvWriter w;
    w.resume(path, "tpf-analysis", 1, {"v"}, /*lastStep=*/4, kSeriesFlags);
    w.writeRow(8, {30.0}); // the continuation re-samples step 8
    w.close();

    const CsvSeries s = readCsvSeries(path);
    ASSERT_EQ(s.rows.size(), 3u);
    EXPECT_EQ(s.rows[1][1], "2");
    EXPECT_EQ(s.rows[2][1], "30");
}

TEST(CsvWriter, ResumeRejectsSchemaAndColumnMismatches) {
    TempDir dir;
    const std::string path = (dir.path / "series.csv").string();
    {
        CsvWriter w;
        w.create(path, "tpf-analysis", 1, {"v"});
        w.writeRow(0, {1.0});
    }
    CsvWriter w;
    EXPECT_THROW(w.resume(path, "tpf-analysis", 2, {"v"}, 0, kSeriesFlags),
                 CsvError);
    EXPECT_THROW(
        w.resume(path, "tpf-analysis", 1, {"other"}, 0, kSeriesFlags),
        CsvError);
}

TEST(CsvWriter, ResumeOfMissingFileStartsAFreshSeries) {
    TempDir dir;
    const std::string path = (dir.path / "series.csv").string();
    CsvWriter w;
    w.resume(path, "tpf-analysis", 1, {"v"}, /*lastStep=*/8, kSeriesFlags);
    w.writeRow(12, {1.0});
    w.close();
    const CsvSeries s = readCsvSeries(path);
    ASSERT_EQ(s.rows.size(), 1u);
    EXPECT_EQ(s.stepOf(0), 12);
}

TEST(CsvWriter, CompareSeriesReportsStructuralMismatches) {
    TempDir dir;
    const std::string a = (dir.path / "a.csv").string();
    const std::string b = (dir.path / "b.csv").string();
    {
        CsvWriter w;
        w.create(a, "tpf-analysis", 1, {"v"});
        w.writeRow(0, {1.0});
        CsvWriter w2;
        w2.create(b, "tpf-analysis", 1, {"v"});
        w2.writeRow(0, {1.0});
        w2.writeRow(4, {2.0});
    }
    const CsvDiff d = compareCsvSeries(a, b);
    EXPECT_FALSE(d.identical);
    EXPECT_NE(d.message.find("row count mismatch"), std::string::npos)
        << d.message;

    const CsvDiff same = compareCsvSeries(a, a);
    EXPECT_TRUE(same.identical);
}

TEST(CsvWriter, ReaderRejectsMalformedFiles) {
    TempDir dir;
    const std::string path = (dir.path / "bad.csv").string();
    {
        std::ofstream out(path);
        out << "step,v\n0,1\n"; // no schema line
    }
    EXPECT_THROW(readCsvSeries(path), CsvError);
    {
        std::ofstream out(path);
        out << "# tpf-analysis v1\nstep,v\n0,1,2\n"; // ragged row
    }
    EXPECT_THROW(readCsvSeries(path), CsvError);
    EXPECT_THROW(readCsvSeries((dir.path / "absent.csv").string()), CsvError);
}

} // namespace
} // namespace tpf::io
