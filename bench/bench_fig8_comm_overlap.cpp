/// Reproduces **Figure 8**: "Time spent in communication, SuperMUC,
/// blocksize 60^3" — the per-timestep time inside the phi and mu
/// communication routines, without hiding and with mu communication hiding,
/// as a function of the rank count.
///
/// Expected shape (paper): hiding reduces the *measured* mu communication
/// time (what remains is packing/unpacking), and "the version with only mu
/// communication hiding yields the best overall performance".
///
/// The paper's phi-hiding series is not reproduced: the solver has no phi
/// hiding. Hiding the phi exchange needs a split mu-sweep whose overhead
/// exceeds the gain — the paper's own conclusion, and the measurement that
/// retired it here (4-core Xeon, --steps 60 --ranks 2,4, 5 runs each on the
/// thread and shm transports): phi+mu hiding was slower per step than
/// mu-only hiding in 17 of 20 runs, with median step times of 10.9 vs
/// 8.9 ms (thread, 2 ranks) and 11.3 vs 9.9 ms (shm, 4 ranks).
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
CommTimes measure(vmpi::TransportKind kind, int ranks, bool overlapMu,
                  int steps) {
    CommTimes result;
    // Under the shm transport rank 0 runs in the parent process
    // (docs/TRANSPORT.md), so the isRoot() writes below survive the fork.
    vmpi::runParallel(kind, ranks, [&](vmpi::Comm& comm) {
        SolverConfig cfg;
        const int bs = kBlock;
        cfg.globalCells = {bs, bs, bs * ranks};
        cfg.blockSize = {bs, bs, bs};
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

    std::printf("== Figure 8: time spent in communication per time step "
                "(40^3 block per rank, %s transport) ==\n\n",
                tname);

    Table t({"ranks", "phi [ms]", "mu no-overlap [ms]", "mu overlap [ms]",
             "step no-overlap [ms]", "step mu-overlap [ms]", "overlap ratio"});

    for (const int ranks : rankList) {
        const CommTimes plain = measure(kind, ranks, false, steps);
        const CommTimes muOnly = measure(kind, ranks, true, steps);
        t.addRow({std::to_string(ranks), Table::num(plain.phiMs, 3),
                  Table::num(plain.muMs, 3), Table::num(muOnly.muMs, 3),
                  Table::num(plain.stepMs, 2), Table::num(muOnly.stepMs, 2),
                  Table::num(plain.stepMs / muOnly.stepMs, 3)});
    }
    t.print();

    std::printf("\nPaper's observations to verify: the mu communication time "
                "decreases with hiding enabled; phi communication is the "
                "heavier one; mu overlap gives the better full-step time "
                "(overlap ratio = blocked / mu-overlap step time > 1).\n");
    return 0;
}
