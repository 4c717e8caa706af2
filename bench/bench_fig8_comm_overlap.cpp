/// Reproduces **Figure 8**: "Time spent in communication, SuperMUC,
/// blocksize 60^3" — the per-timestep time inside the phi and mu
/// communication routines, for all four combinations of communication
/// hiding, as a function of the rank count.
///
/// Expected shape (paper): hiding reduces the *measured* communication time
/// for both fields (what remains is packing/unpacking); hiding the phi
/// communication additionally requires the split mu-sweep whose overhead
/// exceeds the gain — so "the version with only mu communication hiding
/// yields the best overall performance".
///
/// Flags:
///   --transport <thread|shm|mpi>  vmpi backend for the ranks (default:
///                                 $TPF_TRANSPORT or thread). `shm` forks
///                                 real processes, so the overlap numbers
///                                 are measured against genuine multi-
///                                 process communication (docs/TRANSPORT.md).
///   --ranks <a,b,...>             rank counts to measure (default 2,4 —
///                                 deliberately independent of
///                                 hardware_concurrency so the bench also
///                                 runs on single-core CI boxes).
///   --steps <n>                   timed steps per measurement (default 6).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/solver.h"
#include "perf/perf.h"
#include "util/table.h"

using namespace tpf;
using core::Scenario;
using core::SolverConfig;

namespace {

struct CommTimes {
    double phiMs = 0.0;
    double muMs = 0.0;
    double stepMs = 0.0;
};

constexpr int kBlock = 40;

/// Run `steps` solver steps on `ranks` ranks (one 40^3 block per rank,
/// stacked in z) and report the mean per-step communication time.
CommTimes measure(vmpi::TransportKind kind, int ranks, bool overlapPhi,
                  bool overlapMu, int steps) {
    CommTimes result;
    // Under the shm transport rank 0 runs in the parent process
    // (docs/TRANSPORT.md), so the isRoot() writes below survive the fork.
    vmpi::runParallel(kind, ranks, [&](vmpi::Comm& comm) {
        SolverConfig cfg;
        const int bs = kBlock;
        cfg.globalCells = {bs, bs, bs * ranks};
        cfg.blockSize = {bs, bs, bs};
        cfg.overlapPhi = overlapPhi;
        cfg.overlapMu = overlapMu;
        cfg.model.temp.gradient = 0.5;
        cfg.model.temp.zEut0 = 0.45 * bs * ranks;
        cfg.init.fillHeight = static_cast<int>(0.4 * bs * ranks);

        core::Solver s(cfg, &comm);
        s.initialize();
        s.run(2); // warmup
        s.phiExchange().resetTimers();
        s.muExchange().resetTimers();
        const double t0 = perf::now();
        s.run(steps);
        const double wall = perf::now() - t0;

        const double phiSec =
            s.phiExchange().startSeconds() + s.phiExchange().waitSeconds();
        const double muSec =
            s.muExchange().startSeconds() + s.muExchange().waitSeconds();
        // Use the maximum over ranks (the critical path).
        const double phiMax = comm.allreduceMax(phiSec);
        const double muMax = comm.allreduceMax(muSec);
        if (comm.isRoot()) {
            result.phiMs = phiMax / steps * 1000.0;
            result.muMs = muMax / steps * 1000.0;
            result.stepMs = wall / steps * 1000.0;
        }
    });
    return result;
}

} // namespace

int main(int argc, char** argv) {
    std::vector<int> rankList{2, 4};
    int steps = 6;
    vmpi::TransportKind kind = vmpi::defaultTransport();
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--ranks") == 0 && i + 1 < argc) {
            rankList = bench::parseRankList(argv[++i]);
        } else if (std::strcmp(argv[i], "--steps") == 0 && i + 1 < argc) {
            steps = std::atoi(argv[++i]);
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

    std::printf("== Figure 8: time spent in communication per time step "
                "(40^3 block per rank, %s transport) ==\n\n",
                tname);

    Table t({"ranks", "phi no-overlap [ms]", "phi overlap [ms]",
             "mu no-overlap [ms]", "mu overlap [ms]", "best config"});

    for (const int ranks : rankList) {
        const CommTimes plain = measure(kind, ranks, false, false, steps);
        const CommTimes muOnly = measure(kind, ranks, false, true, steps);
        const CommTimes phiOnly = measure(kind, ranks, true, false, steps);
        const CommTimes both = measure(kind, ranks, true, true, steps);

        const struct {
            const char* name;
            double stepMs;
        } configs[] = {{"no overlap", plain.stepMs},
                       {"mu only", muOnly.stepMs},
                       {"phi only", phiOnly.stepMs},
                       {"both", both.stepMs}};
        const char* best = configs[0].name;
        double bestMs = configs[0].stepMs;
        for (const auto& c : configs)
            if (c.stepMs < bestMs) {
                bestMs = c.stepMs;
                best = c.name;
            }

        t.addRow({std::to_string(ranks), Table::num(plain.phiMs, 3),
                  Table::num(both.phiMs, 3), Table::num(plain.muMs, 3),
                  Table::num(both.muMs, 3), best});

        std::printf("  [%s r%d] step: blocked %.2f ms, mu-overlap %.2f ms, "
                    "both %.2f ms -> overlap ratio %.3f\n",
                    tname, ranks, plain.stepMs, muOnly.stepMs, both.stepMs,
                    plain.stepMs / both.stepMs);
    }
    std::printf("\n");
    t.print();

    std::printf("\nPaper's observations to verify: effective communication "
                "times decrease with hiding enabled; phi communication is the "
                "heavier one; mu-only overlap gives the best full-step time "
                "(the split mu-sweep overhead exceeds the phi-hiding gain).\n");
    return 0;
}
