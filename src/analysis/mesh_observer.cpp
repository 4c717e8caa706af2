#include "analysis/mesh_observer.h"

#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/solver.h"
#include "io/writers.h"
#include "util/assert.h"

namespace tpf::analysis {

MeshObserver::MeshObserver(Options opt) : opt_(std::move(opt)) {
    TPF_ASSERT(!opt_.dir.empty(), "mesh observer needs an output directory");
    TPF_ASSERT(opt_.every > 0, "mesh cadence must be positive");
    TPF_ASSERT(!opt_.phases.empty(), "mesh observer needs at least one phase");
    for (const int p : opt_.phases)
        TPF_ASSERT(p >= 0 && p < core::N, "mesh phase index out of range");
    indexPath_ = opt_.dir + "/mesh_index.csv";
}

std::vector<std::string> MeshObserver::columns() const {
    std::vector<std::string> cols{"time"};
    for (const int p : opt_.phases) {
        const std::string k = std::to_string(p);
        cols.push_back("tri_s" + k);
        cols.push_back("verts_s" + k);
        cols.push_back("area_s" + k);
        cols.push_back("euler_s" + k);
    }
    return cols;
}

void MeshObserver::create(bool isRoot) {
    if (!isRoot) return;
    std::filesystem::create_directories(opt_.dir);
    csv_.create(indexPath_, kMeshCsvTag, kMeshCsvVersion, columns());
}

void MeshObserver::resume(bool isRoot, long long lastStep) {
    if (!isRoot) return;
    std::filesystem::create_directories(opt_.dir);
    csv_.resume(indexPath_, kMeshCsvTag, kMeshCsvVersion, columns(), lastStep);
}

std::string MeshObserver::objName(int phase, long long step) {
    char name[64];
    std::snprintf(name, sizeof name, "phase%d_step%06lld.obj", phase, step);
    return name;
}

void MeshObserver::sample(core::Solver& solver, long long step) {
    vmpi::Comm* comm = solver.comm();
    const bool isRoot = comm == nullptr || comm->isRoot();

    io::MeshPipelineOptions po;
    po.iso = opt_.iso;
    po.reduceTarget = opt_.reduceTarget;
    po.pool = solver.pool();
    const std::vector<io::TriMesh> meshes = io::extractGlobalPhaseSurfaces(
        solver.localBlocks(), solver.forest(), comm, opt_.phases, po,
        &timings_);
    if (!isRoot) return;
    std::vector<double> row{solver.time()};
    for (std::size_t k = 0; k < meshes.size(); ++k) {
        const io::TriMesh& mesh = meshes[k];
        io::writeObj(opt_.dir + "/" + objName(opt_.phases[k], step), mesh);
        row.push_back(static_cast<double>(mesh.numTriangles()));
        row.push_back(static_cast<double>(mesh.numVertices()));
        row.push_back(mesh.totalArea());
        row.push_back(static_cast<double>(mesh.eulerCharacteristic()));
    }
    if (csv_.isOpen()) csv_.writeRow(step, row);
}

void MeshObserver::attach(core::Solver& solver) {
    solver.addPostStepHook("mesh", [this, &solver](long long step) {
        if (step % opt_.every == 0) sample(solver, step);
    });
}

} // namespace tpf::analysis
