/// Tests for the surface-mesh pipeline: iso-surface extraction (geometry,
/// watertightness, block stitching), quadric simplification (error bounds,
/// boundary preservation) and the hierarchical reduction over ranks.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "comm/exchange.h"
#include "io/marching_cubes.h"
#include "io/mesh_pipeline.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "io/writers.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

namespace tpf::io {
namespace {

/// Fill component \p c of \p f (including ghosts) with a signed sphere field:
/// value 1 inside radius r around center, 0 outside, smooth across ~2 cells.
void fillSphere(Field<double>& f, int c, Vec3 center, double r, Vec3 origin) {
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        const Vec3 p{origin.x + x + 0.5, origin.y + y + 0.5, origin.z + z + 0.5};
        const double d = (p - center).norm() - r;
        f(x, y, z, c) = 1.0 / (1.0 + std::exp(2.0 * d));
    });
}

TEST(IsoSurface, SphereIsClosedWithEulerCharacteristic2) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 8.0, {0, 0, 0});

    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 100u);
    EXPECT_TRUE(m.isClosed()) << "sphere surface must be watertight";
    EXPECT_EQ(m.eulerCharacteristic(), 2) << "sphere has genus 0";
}

TEST(IsoSurface, SphereAreaMatchesAnalytic) {
    Field<double> f(40, 40, 40, 1, 1, Layout::fzyx);
    const double r = 10.0;
    fillSphere(f, 0, {20, 20, 20}, r, {0, 0, 0});

    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const double analytic = 4.0 * M_PI * r * r;
    EXPECT_NEAR(m.totalArea(), analytic, 0.05 * analytic);
}

TEST(IsoSurface, VerticesLieOnTheIsoSurface) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    const double r = 9.0;
    fillSphere(f, 0, {16, 16, 16}, r, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    for (const Vec3& v : m.vertices) {
        const double d = (v - Vec3{16, 16, 16}).norm();
        EXPECT_NEAR(d, r, 0.6) << "vertex far from the analytic surface";
    }
}

TEST(IsoSurface, EmptyFieldProducesEmptyMesh) {
    Field<double> f(8, 8, 8, 1, 1, Layout::fzyx);
    f.fill(0.0);
    EXPECT_TRUE(extractIsoSurface(f, 0, 0.5, {0, 0, 0}).empty());
    f.fill(1.0);
    EXPECT_TRUE(extractIsoSurface(f, 0, 0.5, {0, 0, 0}).empty());
}

TEST(IsoSurface, PerBlockExtractionStitchesToClosedSurface) {
    // The same sphere extracted from two half-domain blocks (with correct
    // ghost values) must stitch into one watertight mesh — the property the
    // per-block ghost extension exists for.
    const Vec3 center{16, 16, 16};
    const double r = 9.0;

    Field<double> lower(32, 32, 16, 1, 1, Layout::fzyx);
    Field<double> upper(32, 32, 16, 1, 1, Layout::fzyx);
    fillSphere(lower, 0, center, r, {0, 0, 0});
    fillSphere(upper, 0, center, r, {0, 0, 16});

    TriMesh a = extractIsoSurface(lower, 0, 0.5, {0, 0, 0});
    TriMesh b = extractIsoSurface(upper, 0, 0.5, {0, 0, 16});
    EXPECT_FALSE(a.isClosed()) << "half-sphere has an open rim";

    a.append(b);
    a.weldVertices(1e-6);
    EXPECT_TRUE(a.isClosed()) << "stitched halves must be watertight";
    EXPECT_EQ(a.eulerCharacteristic(), 2);
}

TEST(IsoSurface, SphereTrianglesAreOrientedOutward) {
    // Regression for the orientation reference point: the ni == 1 tet case
    // must use the lone *inside* corner (not blend it with the outside
    // corners), otherwise a fraction of the sphere's triangles flip inward.
    const Vec3 center{16, 16, 16};
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, center, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 1000u);

    for (const auto& t : m.triangles) {
        const Vec3& a = m.vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = m.vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = m.vertices[static_cast<std::size_t>(t[2])];
        const Vec3 n = (b - a).cross(c - a);
        const Vec3 centroid = (a + b + c) * (1.0 / 3.0);
        // On a convex surface every outward normal points away from the
        // center; a single flipped triangle fails here.
        ASSERT_GT(n.dot(centroid - center), 0.0)
            << "inward-facing triangle on a sphere";
    }
}

TEST(IsoSurface, ExactIsoHitsProduceNoDegenerateTriangles) {
    // Cell values that hit the iso value exactly put edge points bitwise on
    // cell centers; the tetrahedra around such a corner emit zero-area
    // triangles that must be skipped at emit time (not left to the weld).
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    int snapped = 0;
    forEachCell(f.withGhosts(), [&](int x, int y, int z) {
        if (std::abs(f(x, y, z, 0) - 0.5) < 0.15) {
            f(x, y, z, 0) = 0.5;
            ++snapped;
        }
    });
    ASSERT_GT(snapped, 100) << "fixture must exercise exact iso hits";

    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 1000u);
    for (const auto& t : m.triangles) {
        const Vec3& a = m.vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = m.vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = m.vertices[static_cast<std::size_t>(t[2])];
        ASSERT_GT((b - a).cross(c - a).norm(), 0.0)
            << "zero-area triangle emitted on exact iso hit";
    }
    EXPECT_TRUE(m.isClosed()) << "exact-hit surface must stay watertight";
    EXPECT_EQ(m.eulerCharacteristic(), 2);
}

TEST(IsoSurface, ThreadPoolDoesNotChangeTheMesh) {
    // The slab fan-out appends per-slab parts in slab order, so the extracted
    // mesh is bitwise independent of the worker count.
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});

    const TriMesh serial = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    util::ThreadPool pool(4);
    const TriMesh threaded = extractIsoSurface(f, 0, 0.5, {0, 0, 0}, &pool);

    ASSERT_EQ(threaded.numVertices(), serial.numVertices());
    ASSERT_EQ(threaded.numTriangles(), serial.numTriangles());
    EXPECT_EQ(threaded.triangles, serial.triangles);
    for (std::size_t i = 0; i < serial.vertices.size(); ++i) {
        EXPECT_EQ(threaded.vertices[i].x, serial.vertices[i].x);
        EXPECT_EQ(threaded.vertices[i].y, serial.vertices[i].y);
        EXPECT_EQ(threaded.vertices[i].z, serial.vertices[i].z);
    }
}

TEST(Mesh, WeldMergesDuplicates) {
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0},
                  {1, 0, 0}, {0, 1, 0}, {1, 1, 0}};
    m.triangles = {{0, 1, 2}, {3, 5, 4}};
    m.weldVertices(1e-9);
    EXPECT_EQ(m.numVertices(), 4u);
    EXPECT_EQ(m.numTriangles(), 2u);
}

TEST(Mesh, WeldDropsDegenerateTriangles) {
    TriMesh m;
    m.vertices = {{0, 0, 0}, {1e-12, 0, 0}, {0, 1, 0}};
    m.triangles = {{0, 1, 2}};
    m.weldVertices(1e-6);
    EXPECT_EQ(m.numTriangles(), 0u);
}

TEST(Mesh, WeldMergesAcrossQuantizationBinBoundary) {
    // Two copies of a vertex 0.4*tol apart that quantize into *different*
    // bins (they straddle a bin edge at 0.5*tol): the 27-neighbor probe must
    // still weld them. A single-bin hash lookup misses this pair and leaves
    // a crack along the block seam.
    const double tol = 1e-6;
    TriMesh m;
    m.vertices = {{0.3 * tol, 0.0, 0.0}, {1, 0, 0}, {0, 1, 0},
                  {0.7 * tol, 0.0, 0.0}, {1, 0, 0}, {0, -1, 0}};
    m.triangles = {{0, 1, 2}, {3, 4, 5}};
    m.weldVertices(tol);

    EXPECT_EQ(m.numVertices(), 4u);
    EXPECT_EQ(m.numTriangles(), 2u);
    // First-insertion order: the kept representative is the earliest copy.
    EXPECT_EQ(m.vertices[0].x, 0.3 * tol);
    EXPECT_EQ(m.triangles[1][0], 0);
}

TEST(Mesh, ObjRoundTripIsBitwiseExact) {
    // writeObj emits %.17g coordinates, so read-back reconstructs every
    // double exactly — the property the rank-invariance OBJ byte comparison
    // and checkpoint-restart frame rewrites rely on.
    Field<double> f(24, 24, 24, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {12, 12, 12}, 7.0, {0, 0, 0});
    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ASSERT_GT(m.numTriangles(), 100u);

    namespace fs = std::filesystem;
    const fs::path path = fs::temp_directory_path() /
                          ("tpf_mesh_objrt_" + std::to_string(::getpid()) +
                           ".obj");
    writeObj(path.string(), m);
    const TriMesh back = readObj(path.string());
    fs::remove(path);

    ASSERT_EQ(back.numVertices(), m.numVertices());
    ASSERT_EQ(back.numTriangles(), m.numTriangles());
    EXPECT_EQ(back.triangles, m.triangles);
    for (std::size_t i = 0; i < m.vertices.size(); ++i) {
        EXPECT_EQ(back.vertices[i].x, m.vertices[i].x);
        EXPECT_EQ(back.vertices[i].y, m.vertices[i].y);
        EXPECT_EQ(back.vertices[i].z, m.vertices[i].z);
    }
}

// --- simplification ---

TEST(Simplify, ReachesTargetTriangleCount) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const std::size_t before = m.numTriangles();
    ASSERT_GT(before, 1000u);

    SimplifyOptions opt;
    opt.targetTriangles = 300;
    simplifyMesh(m, opt);
    EXPECT_LE(m.numTriangles(), 320u);
    EXPECT_GT(m.numTriangles(), 50u);
}

TEST(Simplify, CoarsenedSphereStaysOnTheSphere) {
    Field<double> f(40, 40, 40, 1, 1, Layout::fzyx);
    const double r = 11.0;
    fillSphere(f, 0, {20, 20, 20}, r, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});

    SimplifyOptions opt;
    opt.targetTriangles = 400;
    simplifyMesh(m, opt);

    // Quadric-optimal placement keeps vertices near the original surface,
    // and the area must be approximately preserved.
    for (const Vec3& v : m.vertices)
        EXPECT_NEAR((v - Vec3{20, 20, 20}).norm(), r, 1.0);
    EXPECT_NEAR(m.totalArea(), 4.0 * M_PI * r * r, 0.10 * 4.0 * M_PI * r * r);
}

TEST(Simplify, ClosedSurfaceStaysClosed) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    SimplifyOptions opt;
    opt.targetTriangles = 500;
    simplifyMesh(m, opt);
    EXPECT_TRUE(m.isClosed());
    EXPECT_EQ(m.eulerCharacteristic(), 2);
}

TEST(Simplify, LockedVerticesStayPut) {
    // Half-sphere extracted from one block; vertices on the block boundary
    // plane z = 16.5 are locked (the hierarchical scheme's high weight).
    Field<double> lower(32, 32, 16, 1, 1, Layout::fzyx);
    fillSphere(lower, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(lower, 0, 0.5, {0, 0, 0});

    // Record boundary vertices (on the top ghost plane of the block).
    const double boundaryZ = 16.5;
    std::vector<Vec3> boundaryBefore;
    for (const Vec3& v : m.vertices)
        if (std::abs(v.z - boundaryZ) < 1e-6) boundaryBefore.push_back(v);
    ASSERT_GT(boundaryBefore.size(), 10u);

    SimplifyOptions opt;
    opt.targetTriangles = m.numTriangles() / 6;
    opt.lockedVertex = [&](const Vec3& v) {
        return std::abs(v.z - boundaryZ) < 1e-6;
    };
    simplifyMesh(m, opt);

    // Every original boundary vertex position must still exist.
    std::size_t found = 0;
    for (const Vec3& b : boundaryBefore)
        for (const Vec3& v : m.vertices)
            if ((v - b).norm() < 1e-6) {
                ++found;
                break;
            }
    EXPECT_EQ(found, boundaryBefore.size())
        << "locked boundary vertices must survive simplification";
}

TEST(Simplify, MaxErrorBoundStopsEarly) {
    Field<double> f(32, 32, 32, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {16, 16, 16}, 9.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    const std::size_t before = m.numTriangles();

    SimplifyOptions opt;
    opt.targetTriangles = 1;     // no count limit in practice
    opt.maxError = 1e-9;         // but an extremely tight error bound
    simplifyMesh(m, opt);
    // Only near-zero-error collapses (coplanar patches) are allowed.
    EXPECT_GT(m.numTriangles(), before / 3);
}

// --- serialization + hierarchical reduction ---

TEST(Reduction, MeshSerializationRoundTrip) {
    Field<double> f(16, 16, 16, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {8, 8, 8}, 5.0, {0, 0, 0});
    const TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});

    const TriMesh back = deserializeMesh(serializeMesh(m));
    ASSERT_EQ(back.numVertices(), m.numVertices());
    ASSERT_EQ(back.numTriangles(), m.numTriangles());
    EXPECT_EQ(back.triangles, m.triangles);
    for (std::size_t i = 0; i < m.vertices.size(); ++i)
        EXPECT_EQ(back.vertices[i].x, m.vertices[i].x);
}

TEST(Reduction, HierarchicalGatherProducesClosedCoarsenedSphere) {
    // Four ranks each own a z-slab of a sphere; the log2(P) reduction must
    // deliver one closed, coarsened surface on rank 0.
    const Vec3 center{16, 16, 16};
    const double r = 10.0;

    TriMesh result;
    vmpi::runParallel(4, [&](vmpi::Comm& comm) {
        const int zBase = 8 * comm.rank();
        Field<double> f(32, 32, 8, 1, 1, Layout::fzyx);
        fillSphere(f, 0, center, r, {0, 0, static_cast<double>(zBase)});
        TriMesh local =
            extractIsoSurface(f, 0, 0.5, {0, 0, static_cast<double>(zBase)});

        ReductionOptions opt;
        opt.maxTriangles = 600;
        TriMesh reduced = reduceMeshHierarchical(std::move(local), &comm, opt);
        if (comm.isRoot())
            result = std::move(reduced);
        else
            EXPECT_TRUE(reduced.empty());
    });

    ASSERT_FALSE(result.empty());
    EXPECT_LE(result.numTriangles(), 620u);
    EXPECT_TRUE(result.isClosed());
    EXPECT_EQ(result.eulerCharacteristic(), 2);
    EXPECT_NEAR(result.totalArea(), 4.0 * M_PI * r * r,
                0.15 * 4.0 * M_PI * r * r);
}

TEST(Reduction, SerialPathJustWeldsAndCoarsens) {
    Field<double> f(24, 24, 24, 1, 1, Layout::fzyx);
    fillSphere(f, 0, {12, 12, 12}, 7.0, {0, 0, 0});
    TriMesh m = extractIsoSurface(f, 0, 0.5, {0, 0, 0});
    ReductionOptions opt;
    opt.maxTriangles = 200;
    const TriMesh out = reduceMeshHierarchical(std::move(m), nullptr, opt);
    EXPECT_LE(out.numTriangles(), 220u);
    EXPECT_TRUE(out.isClosed());
}

// --- in-situ stitching pipeline ---

namespace {

/// Run the stitching pipeline over a 32^3 sphere split into \p ranks z-slabs
/// and return root's stitched mesh (serial path when ranks == 1 and
/// threads == 0 is requested via pool == nullptr).
TriMesh stitchSphere(int ranks, int threads, double reduceTarget) {
    const Vec3 center{16, 16, 16};
    const double r = 10.0;
    TriMesh result;
    const auto body = [&](vmpi::Comm* comm) {
        const int rank = comm != nullptr ? comm->rank() : 0;
        const int nz = 32 / ranks;
        const int zBase = nz * rank;
        Field<double> f(32, 32, nz, 1, 1, Layout::fzyx);
        fillSphere(f, 0, center, r, {0, 0, static_cast<double>(zBase)});

        MeshPipelineOptions opt;
        opt.reduceTarget = reduceTarget;
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1) {
            pool = std::make_unique<util::ThreadPool>(threads);
            opt.pool = pool.get();
        }
        const std::vector<MeshLocalSlab> slabs{
            MeshLocalSlab{&f, Int3{0, 0, zBase}}};
        TriMesh stitched =
            std::move(stitchIsoSurfaces(slabs, {0}, comm, opt).front());
        if (comm == nullptr || comm->isRoot())
            result = std::move(stitched);
        else
            EXPECT_TRUE(stitched.empty());
    };
    if (ranks == 1)
        body(nullptr);
    else
        vmpi::runParallel(ranks, [&](vmpi::Comm& comm) { body(&comm); });
    return result;
}

} // namespace

TEST(MeshPipeline, StitchedSphereIsClosedWithAccurateArea) {
    // The paper's acceptance property: closed surface, chi = 2, area within
    // 2% of 4*pi*r^2 — both for the raw stitched extraction and after the
    // in-situ boundary-locked simplification, serial and for every rank
    // count whose z-splits align with the canonical chunk grid.
    const double analytic = 4.0 * M_PI * 10.0 * 10.0;
    for (const int ranks : {1, 2, 4}) {
        for (const double reduce : {1.0, 0.25}) {
            const TriMesh m = stitchSphere(ranks, 1, reduce);
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " reduce=" + std::to_string(reduce));
            ASSERT_GT(m.numTriangles(), 100u);
            EXPECT_TRUE(m.isClosed());
            EXPECT_EQ(m.eulerCharacteristic(), 2);
            EXPECT_NEAR(m.totalArea(), analytic, 0.02 * analytic);
            if (reduce < 1.0) {
                EXPECT_LT(m.numTriangles(),
                          stitchSphere(ranks, 1, 1.0).numTriangles() / 2);
            }
        }
    }
}

TEST(MeshPipeline, StitchedMeshIsBitwiseRankAndThreadInvariant) {
    // The determinism contract of mesh_pipeline.h at unit level: the same
    // serialized bytes out of every ranks x threads decomposition.
    const std::vector<std::byte> reference =
        serializeMesh(stitchSphere(1, 1, 0.25));
    ASSERT_FALSE(reference.empty());
    for (const int ranks : {1, 2, 4}) {
        for (const int threads : {1, 4}) {
            if (ranks == 1 && threads == 1) continue;
            SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                         " threads=" + std::to_string(threads));
            EXPECT_TRUE(serializeMesh(stitchSphere(ranks, threads, 0.25)) ==
                        reference)
                << "stitched mesh bytes depend on the decomposition";
        }
    }
}

} // namespace
} // namespace tpf::io
