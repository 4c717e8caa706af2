#pragma once
/// \file mesh_pipeline.h
/// In-situ, rank-parallel iso-surface extraction: the paper's I/O-reduction
/// pipeline (§3.2: per-block extraction → boundary-locked simplification →
/// stitching on one rank) executed *during* the run on the live phi fields
/// instead of offline on a dumped volume.
///
/// Determinism contract (enforced by ctest `mesh_rank_invariance`, argued in
/// docs/MESH.md): the stitched mesh is bitwise identical across
/// ranks x threads x transport decompositions. The unit of work is a *chunk*
/// — a kSlabHeight z-slab of the global cube lattice — extracted, welded and
/// simplified independently of every other chunk:
///  - a cube belongs to the block holding its lower corner; its +1 corners
///    read the z ghost plane (exchanged) and wrap laterally (the z-slab
///    decomposition spans the periodic x/y extent), so every global cube is
///    marched exactly once with identical inputs in any decomposition;
///  - per-chunk simplification locks the chunk's open-boundary vertices
///    (the paper's high-weight boundary trick), so chunk interfaces survive
///    bit-exactly for the final weld;
///  - root appends the gathered chunks in ascending global-z order — the
///    explicit sort makes the order independent of which rank produced a
///    chunk — and runs one final boundary weld.
///
/// Owner vs executor: the rank whose block holds a chunk *owns* it; any rank
/// may *execute* it, because the chunk mesh is a pure function of the
/// chunk's input. Each call counts the cut cubes of every owned (chunk,
/// component) item (the cost proxy; items without one yield nothing and are
/// dropped), agrees the costs on every rank, and assigns the items by
/// deterministic LPT (cost descending, then global z, then component, onto
/// the least-loaded rank, ties to the lowest rank). An owner ships one
/// component of planes lz0..lz1 to a different executor, which rebuilds it
/// as a one-component field with the origin shifted by lz0. Corner positions are origin.z + z + o + 0.5 —
/// sums of integers and halves, exact in double — so the shifted origin
/// reproduces every vertex bitwise. A front-localized run (all solid in one
/// rank's block) thereby spreads its frame over every rank.
///
/// Thread parallelism fans the executed chunks over the rank's sweep pool;
/// the per-chunk results land in preallocated slots, so the thread count
/// never changes the output. Bitwise invariance across *rank counts*
/// additionally needs the block z-splits aligned to the kSlabHeight grid
/// (true for every production z-slab split with nz % 8 == 0 per rank).

#include <memory>
#include <vector>

#include "core/sim_block.h"
#include "grid/block_forest.h"
#include "io/mesh.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

namespace tpf::io {

struct MeshPipelineOptions {
    double iso = 0.5;
    /// Per-chunk in-situ data reduction: simplify each chunk down to
    /// ceil(reduceTarget * chunk triangles) with its open boundary locked.
    /// 1.0 (or anything >= 1) disables simplification.
    double reduceTarget = 0.25;
    /// Quadric-error bound forwarded to simplifyMesh.
    double maxError = 1e300;
    /// Weld tolerance for the per-chunk and final stitching welds.
    double weldTol = 1e-7;
    /// Chunk fan-out pool (nullptr: serial). Never changes the result.
    util::ThreadPool* pool = nullptr;
};

/// Wall-clock seconds per pipeline stage, accumulated over extractions.
/// extract covers the cost proxy and the chunks this rank executes, simplify
/// their decimation; gather covers the cost agreement, chunk shipping, the
/// gather (including waiting for the busiest rank) and the root-side stitch.
struct MeshPipelineTimings {
    double extractSec = 0.0;
    double simplifySec = 0.0;
    double gatherSec = 0.0;
    /// Chunks executed by a rank other than their owner, summed over all
    /// ranks (every rank computes the same plan, so every rank counts it).
    long long chunksOffOwner = 0;
};

/// One rank-local z-slab of the global field (cell-centered, ghost >= 1,
/// lateral extent == the global extent).
struct MeshLocalSlab {
    const Field<double>* field = nullptr;
    Int3 origin; ///< global cell coordinates of the slab's first interior cell
};

/// Collective: extract the global iso-surface of each of \p components from
/// the rank-local slabs, simplify each chunk in situ, gather rank-ordered
/// and stitch on root. Returns one stitched mesh per component on root
/// (empty meshes elsewhere). Every rank must pass its own slabs and the same
/// components and options. All components share one cost plan, so the
/// (chunk, component) items of a frame balance over the ranks together.
std::vector<TriMesh> stitchIsoSurfaces(const std::vector<MeshLocalSlab>& slabs,
                                       const std::vector<int>& components,
                                       vmpi::Comm* comm,
                                       const MeshPipelineOptions& opt,
                                       MeshPipelineTimings* timings = nullptr);

/// Convenience wrapper over a solver's local blocks: the phase surfaces
/// (phi_phase == opt.iso) of \p phases on the z-slab-decomposed forest.
/// Asserts the decomposition is z-only (blockGrid x = y = 1).
std::vector<TriMesh> extractGlobalPhaseSurfaces(
    const std::vector<std::unique_ptr<core::SimBlock>>& blocks,
    const BlockForest& bf, vmpi::Comm* comm, const std::vector<int>& phases,
    const MeshPipelineOptions& opt, MeshPipelineTimings* timings = nullptr);

} // namespace tpf::io
