/// Reproduces **Figure 9**: weak scaling of the full solver (MLUP/s per
/// core) for the three block compositions interface / liquid / solid.
///
/// The paper runs SuperMUC (up to 32,768 cores), Hornet and JUQUEEN (up to
/// 262,144 cores); this reproduction substitutes single-node vmpi ranks
/// (DESIGN.md §2) — the *shape* to verify is a flat MLUP/s-per-core curve
/// with the interface scenario slowest ("the runtime is dominated by the
/// interface blocks").
///
/// Flags:
///   --transport <thread|shm|mpi>  vmpi backend (default: $TPF_TRANSPORT or
///                                 thread). `shm` forks real processes, so
///                                 the scaling curve includes genuine
///                                 inter-process communication.
///   --ranks <a,b,...>             rank counts (default 1,2,4 — independent
///                                 of hardware_concurrency so the bench
///                                 also runs on single-core CI boxes).
///   --steps <n>                   timed steps per measurement (default 5).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "comm/exchange.h"
#include "core/kernels.h"
#include "core/regions.h"
#include "perf/perf.h"
#include "thermo/agalcu.h"
#include "util/table.h"
#include "vmpi/comm.h"

using namespace tpf;
using core::Scenario;

namespace {

/// One weak-scaling measurement: every rank owns one `bs`^3 block filled
/// with the scenario; ranks run the full Algorithm-1 step loop (sweeps +
/// ghost exchanges). Returns aggregate MLUP/s (reduced on rank 0).
double weakScaling(vmpi::TransportKind kind, int ranks, Scenario sc, int bs,
                   int steps) {
    double result = 0.0;
    // Under shm, rank 0 is the parent process, so the isRoot() write below
    // survives the fork (docs/TRANSPORT.md).
    vmpi::runParallel(kind, ranks, [&](vmpi::Comm& comm) {
        const auto sys = thermo::makeAgAlCu();
        auto prm = core::ModelParams::defaults();
        core::FrozenTemperature temp(prm.temp);

        auto bf = BlockForest::createUniform({bs, bs, bs * ranks}, {bs, bs, bs},
                                             {true, true, true}, ranks);
        const int blockIdx = bf.localBlocks(comm.rank()).front();
        core::SimBlock blk(bf, blockIdx);
        core::fillScenario(blk, sc, sys, prm.eps);

        GhostExchange phiEx(bf, &comm, StencilKind::D3C19, 0);
        GhostExchange muEx(bf, &comm, StencilKind::D3C7, 1);
        phiEx.registerField(blockIdx, &blk.phiDst);
        muEx.registerField(blockIdx, &blk.muDst);

        // Initial source-field sync.
        GhostExchange phiSrcEx(bf, &comm, StencilKind::D3C19, 2);
        GhostExchange muSrcEx(bf, &comm, StencilKind::D3C7, 3);
        phiSrcEx.registerField(blockIdx, &blk.phiSrc);
        muSrcEx.registerField(blockIdx, &blk.muSrc);
        phiSrcEx.communicate();
        muSrcEx.communicate();

        core::StepContext ctx;
        ctx.mc = core::ModelConsts::build(prm, sys);
        core::TzCache tz;
        ctx.temp = &temp;

        auto step = [&] {
            tz.build(ctx.mc, temp, blk.origin.z, blk.size.z, 0.0, 0.0);
            ctx.tz = &tz;
            core::runPhiKernel(core::PhiKernelKind::SimdTzStagCut, blk, ctx);
            phiEx.communicate();
            core::runMuKernel(core::MuKernelKind::SimdTzStagCut, blk, ctx);
            muEx.communicate();
            blk.swapSrcDst();
        };

        step(); // warmup
        comm.barrier();
        const double t0 = perf::now();
        for (int i = 0; i < steps; ++i) step();
        comm.barrier();
        const double wall = perf::now() - t0;

        const double local =
            static_cast<double>(blk.numCells()) * steps / wall / 1e6;
        const double total = comm.allreduceSum(local) / ranks *
                             ranks; // aggregate of per-rank rates
        if (comm.isRoot()) result = total;
    });
    return result;
}

} // namespace

int main(int argc, char** argv) {
    std::vector<int> rankList{1, 2, 4};
    int steps = 5;
    vmpi::TransportKind kind = vmpi::defaultTransport();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
            rankList = bench::parseRankList(argv[++i]);
        } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
            steps = bench::parsePositiveInt(argv[++i]);
        } else if (std::strcmp(argv[i], "--transport") == 0 && i + 1 < argc) {
            if (!vmpi::parseTransportName(argv[++i], kind)) {
                std::fprintf(stderr, "unknown transport '%s'\n", argv[i]);
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--transport <thread|shm|mpi>] "
                         "[--ranks <a,b,...>] [--steps <n>]\n",
                         argv[0]);
            return 2;
        }
    }
    if (rankList.empty() || steps < 1) {
        std::fprintf(stderr, "bad --ranks/--steps\n");
        return 2;
    }
    const char* tname = vmpi::transportName(kind);
    const int bs = 40;

    std::printf("== Figure 9: weak scaling (one %d^3 block per rank, full "
                "phi+mu step incl. communication, %s transport) ==\n\n",
                bs, tname);

    Table t({"ranks", "interface [MLUP/s per core]", "liquid [MLUP/s per core]",
             "solid [MLUP/s per core]"});
    for (const int ranks : rankList) {
        std::vector<std::string> row{std::to_string(ranks)};
        for (Scenario sc :
             {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
            const double total = weakScaling(kind, ranks, sc, bs, steps);
            row.push_back(Table::num(total / ranks, 2));
        }
        t.addRow(std::move(row));
    }
    t.print();

    std::printf("\nPaper's observations to verify: per-core throughput stays "
                "roughly flat under weak scaling; the interface scenario is "
                "the slowest (it does the most work per cell), liquid and "
                "solid benefit from the shortcuts.\n");
    return 0;
}
