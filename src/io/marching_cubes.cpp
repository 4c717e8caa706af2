#include "io/marching_cubes.h"

#include <cmath>

#include "core/slab_sweep.h"
#include "io/mc_tables.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// Interpolated iso-crossing on the edge between corners (pa, va) and
/// (pb, vb); va and vb straddle the iso value. When the iso value hits a
/// corner exactly, t is exactly 0 or 1 and the returned point is bitwise
/// equal to that corner position (cell-center coordinates are exact in
/// double precision), which is what lets emitTriangle detect the collapsed
/// zero-area triangles exactly.
Vec3 edgePoint(Vec3 pa, double va, Vec3 pb, double vb, double iso) {
    const double denom = vb - va;
    const double t = (std::abs(denom) < 1e-300) ? 0.5 : (iso - va) / denom;
    return pa + (pb - pa) * t;
}

/// Emit the triangle (a, b, c), oriented so the normal points away from the
/// inside (value >= iso) region represented by \p insidePoint. Triangles with
/// exactly zero area — produced when the iso value hits a tet vertex exactly
/// and two edge points collapse onto it — are skipped at emit time; relying
/// on the post-weld index dedup instead would leave self-edges that break
/// isClosed()/eulerCharacteristic() on exact-hit fields.
void emitTriangle(TriMesh& m, Vec3 a, Vec3 b, Vec3 c, Vec3 insidePoint) {
    const Vec3 n = (b - a).cross(c - a);
    if (!(n.dot(n) > 0.0)) return; // degenerate (or NaN): no surface content
    const Vec3 centroid = (a + b + c) * (1.0 / 3.0);
    if (n.dot(insidePoint - centroid) > 0.0) std::swap(b, c);
    const int base = static_cast<int>(m.vertices.size());
    m.vertices.push_back(a);
    m.vertices.push_back(b);
    m.vertices.push_back(c);
    m.triangles.push_back({base, base + 1, base + 2});
}

/// March one tetrahedron.
void marchTet(TriMesh& m, const Vec3 p[4], const double v[4], double iso) {
    int insideMask = 0;
    for (int i = 0; i < 4; ++i)
        if (v[i] >= iso) insideMask |= 1 << i;
    if (insideMask == 0 || insideMask == 0xF) return;

    int inside[4], outside[4];
    int ni = 0, no = 0;
    for (int i = 0; i < 4; ++i) {
        if (insideMask & (1 << i))
            inside[ni++] = i;
        else
            outside[no++] = i;
    }

    if (ni == 1 || ni == 3) {
        // One triangle separating the lone vertex from the other three.
        const int lone = (ni == 1) ? inside[0] : outside[0];
        const int* others = (ni == 1) ? outside : inside;
        const Vec3 a = edgePoint(p[lone], v[lone], p[others[0]], v[others[0]], iso);
        const Vec3 b = edgePoint(p[lone], v[lone], p[others[1]], v[others[1]], iso);
        const Vec3 c = edgePoint(p[lone], v[lone], p[others[2]], v[others[2]], iso);
        // Inside reference: the lone corner itself when it is the inside one
        // (ni == 1); otherwise the centroid of the three inside corners —
        // using a single inside corner here degenerates when that corner
        // lies exactly on the triangle plane (v == iso), leaving the
        // orientation to the arbitrary tet vertex order.
        const Vec3 insidePt =
            (ni == 1) ? p[lone]
                      : (p[others[0]] + p[others[1]] + p[others[2]]) *
                            (1.0 / 3.0);
        emitTriangle(m, a, b, c, insidePt);
    } else {
        // 2-2 split: a quad on the four crossing edges, as two triangles.
        const int i0 = inside[0], i1 = inside[1];
        const int o0 = outside[0], o1 = outside[1];
        const Vec3 q00 = edgePoint(p[i0], v[i0], p[o0], v[o0], iso);
        const Vec3 q01 = edgePoint(p[i0], v[i0], p[o1], v[o1], iso);
        const Vec3 q10 = edgePoint(p[i1], v[i1], p[o0], v[o0], iso);
        const Vec3 q11 = edgePoint(p[i1], v[i1], p[o1], v[o1], iso);
        // Quad q00-q01-q11-q10 (opposite corners share no tet edge).
        emitTriangle(m, q00, q01, q11, p[i0]);
        emitTriangle(m, q00, q11, q10, p[i1]);
    }
}

/// Visit every cube whose lower corner z lies in [z0, z1) over the full x/y
/// interior and whose corners straddle the iso value, as \p fn(x, y, z, cv)
/// with the eight corner values in kCubeCorner order. With \p wrapXY the +1
/// lateral corner reads wrap to x/y = 0 (periodic self-wrap: only the z
/// ghost planes are touched); otherwise they read the +1 ghost layer.
template <typename Fn>
void forEachCutCube(const Field<double>& field, int component, double iso,
                    int z0, int z1, bool wrapXY, Fn&& fn) {
    const int nx = field.nx(), ny = field.ny();
    // Hoisted row pointers: per (y, z) the four corner rows of the cube
    // layer, with the constant x stride of the layout (1 for fzyx, nf for
    // zyxf). The inner loop then classifies each cube with eight strided
    // loads instead of eight full index computations — the classification
    // touches *every* cube, so this is what keeps the in-situ extraction
    // overhead small next to the solver step.
    const std::ptrdiff_t xs =
        field.index(1, 0, 0, component) - field.index(0, 0, 0, component);
    for (int z = z0; z < z1; ++z) {
        for (int y = 0; y < ny; ++y) {
            const int yUp = (wrapXY && y + 1 == ny) ? 0 : y + 1;
            const double* row[4] = {
                field.ptr(0, y, z, component),
                field.ptr(0, yUp, z, component),
                field.ptr(0, y, z + 1, component),
                field.ptr(0, yUp, z + 1, component),
            };
            for (int x = 0; x < nx; ++x) {
                // Classify the corners first: the overwhelming majority of
                // cubes lie entirely on one side of the iso value.
                const std::ptrdiff_t a = x * xs;
                const std::ptrdiff_t b =
                    (wrapXY && x + 1 == nx) ? 0 : (x + 1) * xs;
                // kCubeCorner order: bit0 = +x, bit1 = +y, bit2 = +z.
                const double cv[8] = {row[0][a], row[0][b], row[1][a],
                                      row[1][b], row[2][a], row[2][b],
                                      row[3][a], row[3][b]};
                bool anyIn = false, anyOut = false;
                for (const double v : cv) (v >= iso ? anyIn : anyOut) = true;
                if (anyIn && anyOut) fn(x, y, z, cv);
            }
        }
    }
}

/// March every cut cube with lower corner z in [z0, z1), appending raw
/// (unwelded) triangles to \p mesh.
void marchCubeRange(TriMesh& mesh, const Field<double>& field, int component,
                    double iso, Vec3 origin, int z0, int z1, bool wrapXY) {
    forEachCutCube(field, component, iso, z0, z1, wrapXY,
                   [&](int x, int y, int z, const double (&cv)[8]) {
        // Cube on the cell centers (x..x+1, y..y+1, z..z+1).
        Vec3 cp[8];
        for (int c = 0; c < 8; ++c) {
            const auto& o = kCubeCorner[static_cast<std::size_t>(c)];
            cp[c] = Vec3{origin.x + x + o[0] + 0.5, origin.y + y + o[1] + 0.5,
                         origin.z + z + o[2] + 0.5};
        }
        for (const auto& tet : kCubeTets) {
            const Vec3 tp[4] = {cp[tet[0]], cp[tet[1]], cp[tet[2]],
                                cp[tet[3]]};
            const double tv[4] = {cv[tet[0]], cv[tet[1]], cv[tet[2]],
                                  cv[tet[3]]};
            marchTet(mesh, tp, tv, iso);
        }
    });
}

} // namespace

TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin, util::ThreadPool* pool) {
    TPF_ASSERT(field.ghost() >= 1,
               "iso-surface extraction reads the +1 ghost layer");

    // Fan out over the same fixed z-slab partition as the kernel sweeps: the
    // partition depends on the interval alone, every slab extracts into its
    // own buffer, and the buffers are appended in slab order — so the
    // triangle stream (and hence the welded mesh) is bitwise independent of
    // the thread count, exactly like the field sweeps (core/slab_sweep.h).
    const CellInterval interior{0, 0, 0, field.nx() - 1, field.ny() - 1,
                                field.nz() - 1};
    const std::vector<CellInterval> slabs = core::slabPartition(interior);
    std::vector<TriMesh> parts(slabs.size());
    const auto extractSlab = [&](int i) {
        const CellInterval& s = slabs[static_cast<std::size_t>(i)];
        marchCubeRange(parts[static_cast<std::size_t>(i)], field, component,
                       iso, origin, s.zMin, s.zMax + 1, /*wrapXY=*/false);
    };
    if (pool != nullptr && pool->threads() > 1 && slabs.size() > 1) {
        pool->parallelFor(static_cast<int>(slabs.size()), extractSlab);
    } else {
        for (std::size_t i = 0; i < slabs.size(); ++i)
            extractSlab(static_cast<int>(i));
    }

    TriMesh mesh;
    for (const TriMesh& part : parts) mesh.append(part);

    // Merge the duplicated edge points between tetrahedra / cubes / slabs.
    mesh.weldVertices(1e-7);
    return mesh;
}

TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin) {
    return extractIsoSurface(field, component, iso, origin, nullptr);
}

TriMesh extractIsoSurfaceWrapXY(const Field<double>& field, int component,
                                double iso, Vec3 origin, int z0, int z1) {
    TPF_ASSERT(field.ghost() >= 1,
               "iso-surface extraction reads the +1 z ghost plane");
    TPF_ASSERT(z0 >= 0 && z1 <= field.nz() && z0 <= z1,
               "cube z range out of the field interior");
    TriMesh mesh;
    marchCubeRange(mesh, field, component, iso, origin, z0, z1,
                   /*wrapXY=*/true);
    mesh.weldVertices(1e-7);
    return mesh;
}

long long countCutCubesWrapXY(const Field<double>& field, int component,
                              double iso, int z0, int z1) {
    TPF_ASSERT(field.ghost() >= 1,
               "iso-surface extraction reads the +1 z ghost plane");
    TPF_ASSERT(z0 >= 0 && z1 <= field.nz() && z0 <= z1,
               "cube z range out of the field interior");
    long long cut = 0;
    forEachCutCube(field, component, iso, z0, z1, /*wrapXY=*/true,
                   [&](int, int, int, const double (&)[8]) { ++cut; });
    return cut;
}

TriMesh extractPhaseSurface(const core::SimBlock& blk, int phase, double iso) {
    return extractIsoSurface(blk.phiSrc, phase, iso,
                             Vec3{static_cast<double>(blk.origin.x),
                                  static_cast<double>(blk.origin.y),
                                  static_cast<double>(blk.origin.z)});
}

} // namespace tpf::io
