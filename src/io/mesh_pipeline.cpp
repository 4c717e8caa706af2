#include "io/mesh_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

#include "core/slab_sweep.h"
#include "io/marching_cubes.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "perf/perf.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// One canonical extraction chunk of one component: a kSlabHeight z-slab of
/// the global cube lattice. On its owner it reads the owning slab's field in
/// place; on another executor it reads the one-component copy of planes
/// lz0..lz1 the owner shipped.
struct ChunkRef {
    const Field<double>* field = nullptr;
    int component = 0;
    int slot = 0;       ///< index of the component in the call's list
    Int3 origin;        ///< global origin of the slab the field holds
    int lz0 = 0;        ///< local z of the chunk's first cube plane
    int lz1 = 0;        ///< local z one past the chunk's last cube plane
    int gz0 = 0;        ///< global z of the chunk (the canonical sort key)
    long long cost = 0; ///< cut cubes (countCutCubesWrapXY)
    const std::byte* shipped = nullptr; ///< ShipHeader + planes, or null
    TriMesh mesh;
};

/// One entry of the agreed cost list: a chunk with at least one cut cube.
struct ChunkCost {
    std::int64_t gz0 = 0;
    std::int64_t slot = 0;
    std::int64_t cost = 0;
};

/// A shipped chunk: this header, then nx * ny * (nz + 1) doubles — the
/// chunk's component on planes lz0..lz1, x fastest.
struct ShipHeader {
    std::int64_t gz0 = 0;
    std::int64_t slot = 0;
    std::int64_t nx = 0, ny = 0, nz = 0;
    std::int64_t ox = 0, oy = 0;
    std::size_t bytes() const {
        return sizeof(ShipHeader) +
               static_cast<std::size_t>(nx * ny * (nz + 1)) * sizeof(double);
    }
};

/// Record framing inside the gathered blob: chunk key + payload size, then
/// the serializeMesh() bytes.
struct ChunkHeader {
    std::int64_t gz0 = 0;
    std::int64_t slot = 0;
    std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkCost> &&
              std::is_trivially_copyable_v<ShipHeader> &&
              std::is_trivially_copyable_v<ChunkHeader>);

template <typename T>
void appendPod(std::vector<std::byte>& blob, const T& v) {
    const std::size_t at = blob.size();
    blob.resize(at + sizeof v);
    std::memcpy(blob.data() + at, &v, sizeof v);
}

template <typename T>
T readPod(const std::byte* at) {
    T v;
    std::memcpy(&v, at, sizeof v);
    return v;
}

void runOverChunks(std::vector<ChunkRef>& chunks, util::ThreadPool* pool,
                   const std::function<void(ChunkRef&)>& fn) {
    if (pool != nullptr && pool->threads() > 1 && chunks.size() > 1) {
        pool->parallelFor(static_cast<int>(chunks.size()), [&](int i) {
            fn(chunks[static_cast<std::size_t>(i)]);
        });
    } else {
        for (ChunkRef& c : chunks) fn(c);
    }
}

/// Deterministic LPT (longest processing time first): items by cost
/// descending, then gz0, then slot, each onto the least-loaded rank (ties to
/// the lowest rank). Returns the executor per item, in the order of
/// \p items.
std::vector<int> assignLpt(const std::vector<ChunkCost>& items, int ranks) {
    std::vector<std::size_t> order(items.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const ChunkCost& p = items[a];
        const ChunkCost& q = items[b];
        if (p.cost != q.cost) return p.cost > q.cost;
        if (p.gz0 != q.gz0) return p.gz0 < q.gz0;
        return p.slot < q.slot;
    });
    std::vector<long long> load(static_cast<std::size_t>(ranks), 0);
    std::vector<int> executor(items.size(), 0);
    for (const std::size_t i : order) {
        const auto least = std::min_element(load.begin(), load.end());
        *least += items[i].cost;
        executor[i] = static_cast<int>(least - load.begin());
    }
    return executor;
}

/// Append \p c to \p dst as a shipped record (ShipHeader + planes).
void packChunk(const ChunkRef& c, std::vector<std::byte>& dst) {
    const Field<double>& f = *c.field;
    ShipHeader h;
    h.gz0 = c.gz0;
    h.slot = c.slot;
    h.nx = f.nx();
    h.ny = f.ny();
    h.nz = c.lz1 - c.lz0;
    h.ox = c.origin.x;
    h.oy = c.origin.y;
    appendPod(dst, h);
    std::size_t at = dst.size();
    dst.resize(at + h.bytes() - sizeof h);
    const std::ptrdiff_t xs = f.xStride();
    for (int z = c.lz0; z <= c.lz1; ++z)
        for (int y = 0; y < f.ny(); ++y) {
            const double* row = f.ptr(0, y, z, c.component);
            for (int x = 0; x < f.nx(); ++x, at += sizeof(double))
                std::memcpy(dst.data() + at, row + x * xs, sizeof(double));
        }
}

/// Extract one chunk. A shipped chunk is rebuilt as a one-component field
/// holding planes lz0..lz1 at local z 0..nz, with the origin shifted by lz0:
/// corner positions are origin.z + z + o + 0.5, sums of integers and halves,
/// so every vertex is bitwise the one the owner would have produced.
TriMesh extractChunk(const ChunkRef& c, double iso) {
    if (c.shipped == nullptr)
        return extractIsoSurfaceWrapXY(
            *c.field, c.component, iso,
            Vec3{static_cast<double>(c.origin.x),
                 static_cast<double>(c.origin.y),
                 static_cast<double>(c.origin.z)},
            c.lz0, c.lz1);
    const auto h = readPod<ShipHeader>(c.shipped);
    const int nx = static_cast<int>(h.nx), ny = static_cast<int>(h.ny);
    const int nz = static_cast<int>(h.nz);
    Field<double> local(nx, ny, nz, 1, 1, Layout::fzyx);
    const std::byte* at = c.shipped + sizeof h;
    const std::size_t rowBytes = static_cast<std::size_t>(nx) * sizeof(double);
    for (int z = 0; z <= nz; ++z)
        for (int y = 0; y < ny; ++y, at += rowBytes)
            std::memcpy(local.ptr(0, y, z), at, rowBytes);
    return extractIsoSurfaceWrapXY(
        local, 0, iso,
        Vec3{static_cast<double>(h.ox), static_cast<double>(h.oy),
             static_cast<double>(h.gz0)},
        0, nz);
}

/// Agree every rank's chunk costs, assign executors by LPT, and ship each
/// chunk this rank owns but does not execute. Returns the chunks this rank
/// executes; shipped ones point into \p received.
std::vector<ChunkRef> balance(std::vector<ChunkRef> owned, vmpi::Comm& comm,
                              std::vector<std::vector<std::byte>>& received,
                              MeshPipelineTimings* timings) {
    const std::size_t n = static_cast<std::size_t>(comm.size());
    std::vector<std::byte> mine;
    for (const ChunkRef& c : owned)
        appendPod(mine, ChunkCost{c.gz0, c.slot, c.cost});
    const std::vector<std::vector<std::byte>> costBlobs =
        comm.alltoallBytes(std::vector<std::vector<std::byte>>(n, mine));

    std::vector<ChunkCost> items; // rank-major, each rank's own order
    std::vector<int> owner;
    std::size_t first = 0; // this rank's first entry in items
    for (std::size_t r = 0; r < n; ++r) {
        if (static_cast<int>(r) == comm.rank()) first = items.size();
        for (std::size_t at = 0; at < costBlobs[r].size();
             at += sizeof(ChunkCost)) {
            items.push_back(readPod<ChunkCost>(costBlobs[r].data() + at));
            owner.push_back(static_cast<int>(r));
        }
    }
    const std::vector<int> executor = assignLpt(items, comm.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        if (timings != nullptr && executor[i] != owner[i])
            ++timings->chunksOffOwner;

    std::vector<ChunkRef> chunks;
    std::vector<std::vector<std::byte>> out(n);
    for (std::size_t k = 0; k < owned.size(); ++k) {
        const int ex = executor[first + k];
        if (ex == comm.rank())
            chunks.push_back(std::move(owned[k]));
        else
            packChunk(owned[k], out[static_cast<std::size_t>(ex)]);
    }
    received = comm.alltoallBytes(std::move(out));
    for (const std::vector<std::byte>& blob : received)
        for (std::size_t at = 0; at < blob.size();) {
            const auto h = readPod<ShipHeader>(blob.data() + at);
            ChunkRef r;
            r.slot = static_cast<int>(h.slot);
            r.gz0 = static_cast<int>(h.gz0);
            r.shipped = blob.data() + at;
            chunks.push_back(std::move(r));
            at += h.bytes();
        }
    return chunks;
}

} // namespace

std::vector<TriMesh> stitchIsoSurfaces(const std::vector<MeshLocalSlab>& slabs,
                                       const std::vector<int>& components,
                                       vmpi::Comm* comm,
                                       const MeshPipelineOptions& opt,
                                       MeshPipelineTimings* timings) {
    // Canonical chunking: every slab interior splits into the same fixed
    // kSlabHeight z-slabs the kernel sweeps use. The partition is a function
    // of the interval alone, so with block z-splits aligned to the slab grid
    // the chunk set — and every chunk's input — is identical in any
    // ranks x threads decomposition.
    std::vector<ChunkRef> chunks;
    for (const MeshLocalSlab& s : slabs) {
        TPF_ASSERT(s.field != nullptr && s.field->ghost() >= 1,
                   "mesh pipeline slabs need a field with a ghost layer");
        const CellInterval interior{0, 0, 0, s.field->nx() - 1,
                                    s.field->ny() - 1, s.field->nz() - 1};
        for (std::size_t slot = 0; slot < components.size(); ++slot)
            for (const CellInterval& c : core::slabPartition(interior)) {
                ChunkRef r;
                r.field = s.field;
                r.component = components[slot];
                r.slot = static_cast<int>(slot);
                r.origin = s.origin;
                r.lz0 = c.zMin;
                r.lz1 = c.zMax + 1;
                r.gz0 = s.origin.z + c.zMin;
                chunks.push_back(std::move(r));
            }
    }

    // Stage 0: cost proxy. A chunk without a cut cube yields an empty mesh,
    // which adds nothing to the stitch: it is dropped here.
    double t0 = perf::now();
    runOverChunks(chunks, opt.pool, [&](ChunkRef& c) {
        c.cost = countCutCubesWrapXY(*c.field, c.component, opt.iso, c.lz0,
                                     c.lz1);
    });
    chunks.erase(std::remove_if(chunks.begin(), chunks.end(),
                                [](const ChunkRef& c) { return c.cost == 0; }),
                 chunks.end());
    if (timings != nullptr) timings->extractSec += perf::now() - t0;

    // Stage 1: balance the chunks over the ranks (owner -> executor).
    t0 = perf::now();
    const bool multi = comm != nullptr && comm->size() > 1;
    std::vector<std::vector<std::byte>> received;
    if (multi) chunks = balance(std::move(chunks), *comm, received, timings);
    if (timings != nullptr) timings->gatherSec += perf::now() - t0;

    // Stage 2: per-chunk extraction (lateral self-wrap + z ghosts, welded).
    t0 = perf::now();
    runOverChunks(chunks, opt.pool,
                  [&](ChunkRef& c) { c.mesh = extractChunk(c, opt.iso); });
    std::vector<std::vector<std::byte>>().swap(received); // planes consumed
    if (timings != nullptr) timings->extractSec += perf::now() - t0;

    // Stage 3: in-situ data reduction. The chunk's open-boundary vertices —
    // chunk interfaces and domain borders — are locked, so the interfaces
    // survive bit-exactly for the stitching weld (the paper's high-weight
    // boundary preservation).
    t0 = perf::now();
    if (opt.reduceTarget < 1.0) {
        runOverChunks(chunks, opt.pool, [&](ChunkRef& c) {
            if (c.mesh.empty()) return;
            const std::vector<char> locked = c.mesh.openBoundaryVertices();
            SimplifyOptions so;
            so.targetTriangles = static_cast<std::size_t>(std::ceil(
                std::max(0.0, opt.reduceTarget) *
                static_cast<double>(c.mesh.numTriangles())));
            so.maxError = opt.maxError;
            so.lockedFlags = &locked;
            simplifyMesh(c.mesh, so);
        });
    }
    if (timings != nullptr) timings->simplifySec += perf::now() - t0;

    // Stage 4: serialize, rank-ordered gather, canonical stitch on root.
    t0 = perf::now();
    std::vector<std::byte> blob;
    for (const ChunkRef& c : chunks) {
        const std::vector<std::byte> payload = serializeMesh(c.mesh);
        appendPod(blob, ChunkHeader{c.gz0, c.slot, payload.size()});
        blob.insert(blob.end(), payload.begin(), payload.end());
    }
    chunks.clear();

    std::vector<TriMesh> stitched(components.size());
    std::vector<std::vector<std::byte>> perRank;
    if (multi) {
        perRank = comm->gatherAllBytes(blob);
        if (!comm->isRoot()) {
            if (timings != nullptr) timings->gatherSec += perf::now() - t0;
            return stitched;
        }
    } else {
        perRank.push_back(std::move(blob));
    }

    // Parse every rank's records and append each component's chunks in
    // ascending global-z order. Chunk z keys are unique per component
    // (z-only decomposition), so the sort makes the triangle stream
    // independent of which rank executed which chunk.
    std::vector<std::vector<std::pair<std::int64_t, TriMesh>>> parts(
        components.size());
    for (const std::vector<std::byte>& rankBlob : perRank) {
        std::size_t at = 0;
        while (at < rankBlob.size()) {
            TPF_ASSERT(at + sizeof(ChunkHeader) <= rankBlob.size(),
                       "truncated mesh chunk header");
            const auto h = readPod<ChunkHeader>(rankBlob.data() + at);
            at += sizeof h;
            TPF_ASSERT(at + h.bytes <= rankBlob.size() && h.slot >= 0 &&
                           h.slot < static_cast<std::int64_t>(parts.size()),
                       "corrupt mesh chunk record");
            std::vector<std::byte> payload(
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at),
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at + h.bytes));
            at += h.bytes;
            parts[static_cast<std::size_t>(h.slot)].emplace_back(
                h.gz0, deserializeMesh(payload));
        }
    }
    for (std::size_t slot = 0; slot < parts.size(); ++slot) {
        std::stable_sort(parts[slot].begin(), parts[slot].end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        for (auto& [gz0, part] : parts[slot]) stitched[slot].append(part);
        stitched[slot].weldVertices(opt.weldTol); // the final boundary weld
    }
    if (timings != nullptr) timings->gatherSec += perf::now() - t0;
    return stitched;
}

std::vector<TriMesh> extractGlobalPhaseSurfaces(
    const std::vector<std::unique_ptr<core::SimBlock>>& blocks,
    const BlockForest& bf, vmpi::Comm* comm, const std::vector<int>& phases,
    const MeshPipelineOptions& opt, MeshPipelineTimings* timings) {
    TPF_ASSERT(bf.blockGrid().x == 1 && bf.blockGrid().y == 1,
               "the in-situ mesh pipeline needs the z-slab decomposition "
               "(blocks spanning the full periodic x/y extent)");
    std::vector<MeshLocalSlab> slabs;
    slabs.reserve(blocks.size());
    for (const auto& b : blocks)
        slabs.push_back(MeshLocalSlab{&b->phiSrc, b->origin});
    return stitchIsoSurfaces(slabs, phases, comm, opt, timings);
}

} // namespace tpf::io
