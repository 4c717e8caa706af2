/// Reproduces **Figure 7**: "Intranode Scaling of mu-kernel without shortcut
/// optimization on one SuperMUC node" — aggregate MLUP/s of the mu-kernel
/// with one worker per core, block sizes 40^3 vs 20^3.
///
/// Expected shape (paper): near-linear scaling (the kernel is compute
/// bound, not bandwidth bound); the smaller block is at most slightly
/// slower. The paper scales 1..16 cores; here up to the machine's cores.
///
/// Part two sweeps the same kernel through the *hybrid* execution modes the
/// paper's one-rank-per-core runs bracket: R vmpi ranks x T slab-threads per
/// rank (core/slab_sweep.h), so flat-rank, flat-thread and mixed layouts of
/// the same core count can be compared directly — this separates rank-count
/// effects from memory-bandwidth saturation on the intranode figure.

#include <atomic>
#include <cstdio>
#include <thread>

#include "bench_common.h"
#include "core/slab_sweep.h"
#include "core/solver.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

using namespace tpf;
using namespace tpf::bench;
using core::MuKernelKind;
using core::Scenario;

namespace {

/// Aggregate MLUP/s of `threads` workers each sweeping its own block.
double intranodeMlups(int threads, Int3 blockSize, int iterations) {
    std::vector<std::unique_ptr<KernelBench>> benches;
    for (int t = 0; t < threads; ++t) {
        benches.push_back(
            std::make_unique<KernelBench>(Scenario::Interface, blockSize));
        // Prepare phiDst once so the anti-trapping path is active.
        auto c = benches.back()->ctx();
        core::runPhiKernel(core::SolverConfig{}.phiKernel,
                           *benches.back()->blk, c);
    }

    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    double t0 = 0.0, t1 = 0.0;

    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            auto ctx = benches[static_cast<std::size_t>(t)]->ctx();
            auto& blk = *benches[static_cast<std::size_t>(t)]->blk;
            ready.fetch_add(1);
            while (!go.load(std::memory_order_acquire)) {}
            for (int i = 0; i < iterations; ++i)
                core::runMuKernel(MuKernelKind::SimdTzStag, blk, ctx);
        });
    }
    while (ready.load() != threads) {}
    t0 = perf::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers) w.join();
    t1 = perf::now();

    const double cells = static_cast<double>(blockSize.x) * blockSize.y *
                         blockSize.z * threads;
    return cells * iterations / (t1 - t0) / 1e6;
}

/// Aggregate MLUP/s of `ranks` vmpi ranks, each slab-sweeping its own block
/// with a pool of `threads` — the production hybrid path of the Solver.
double hybridMlups(int ranks, int threads, Int3 blockSize, int iterations) {
    double wall = 0.0;
    vmpi::runParallel(ranks, [&](vmpi::Comm& comm) {
        KernelBench kb(Scenario::Interface, blockSize);
        auto ctx = kb.ctx();
        core::runPhiKernel(core::SolverConfig{}.phiKernel, *kb.blk, ctx);
        util::ThreadPool pool(threads);
        const CellInterval whole{0,
                                 0,
                                 0,
                                 blockSize.x - 1,
                                 blockSize.y - 1,
                                 blockSize.z - 1};
        comm.barrier();
        const double t0 = perf::now();
        for (int i = 0; i < iterations; ++i)
            core::parallelForSlabs(
                &pool, whole, [&](const CellInterval& slab) {
                    core::runMuKernel(MuKernelKind::SimdTzStag, *kb.blk,
                                      ctx.forSlab(slab));
                });
        comm.barrier();
        if (comm.isRoot()) wall = perf::now() - t0;
    });
    const double cells = static_cast<double>(blockSize.x) * blockSize.y *
                         blockSize.z * ranks;
    return cells * iterations / wall / 1e6;
}

} // namespace

int main() {
    const int maxCores = util::ThreadPool::hardwareThreads();
    std::printf("== Figure 7: intranode scaling of the mu-kernel "
                "(no shortcut optimization, one worker per core) ==\n\n");

    Table t({"cores", "40^3 [MLUP/s]", "20^3 [MLUP/s]", "40^3 per-core",
             "20^3 per-core"});
    for (int cores = 1; cores <= maxCores; cores *= 2) {
        const int iters40 = 6;
        const int iters20 = 40;
        const double m40 = intranodeMlups(cores, {40, 40, 40}, iters40);
        const double m20 = intranodeMlups(cores, {20, 20, 20}, iters20);
        t.addRow({std::to_string(cores), Table::num(m40, 2),
                  Table::num(m20, 2), Table::num(m40 / cores, 2),
                  Table::num(m20 / cores, 2)});
    }
    t.print();

    std::printf("\nPaper's observation to verify: scaling is close to linear "
                "(the kernel is bound by in-core execution); the 20^3 block "
                "performs comparably to 40^3.\n");

    std::printf("\n== Hybrid ranks x threads sweep (mu-kernel, 40^3 block "
                "per rank, slab-parallel) ==\n\n");
    Table h({"ranks", "threads", "cores", "MLUP/s", "per-core"});
    for (int ranks = 1; ranks <= maxCores; ranks *= 2) {
        for (int threads = 1; ranks * threads <= maxCores; threads *= 2) {
            const double m = hybridMlups(ranks, threads, {40, 40, 40}, 6);
            const int cores = ranks * threads;
            h.addRow({std::to_string(ranks), std::to_string(threads),
                      std::to_string(cores), Table::num(m, 2),
                      Table::num(m / cores, 2)});
        }
    }
    h.print();

    std::printf("\nReading the hybrid table: a flat-rank layout (threads=1) "
                "reproduces the paper's one-rank-per-core setup; a flat-thread "
                "layout (ranks=1) isolates slab-parallel sweep scaling; equal "
                "per-core rates across layouts of the same core count confirm "
                "the kernel is compute bound rather than limited by the rank "
                "count.\n");
    return 0;
}
