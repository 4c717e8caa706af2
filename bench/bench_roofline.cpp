/// Reproduces the paper's **§5.1.1 single-core performance analysis**
/// (in-text numbers): STREAM bandwidth, roofline classification of the
/// mu-kernel (the paper: 80 GiB/s, <= 680 B/cell, 1384 flops/cell,
/// bandwidth bound 126.3 MLUP/s, measured 4.2 MLUP/s per core => clearly
/// compute bound at ~27% of scalar peak) and the phi-kernel (~21% peak).
///
/// Expected shape: measured MLUP/s far below the bandwidth-bound ceiling
/// (=> compute bound), a double-digit percentage of the attainable FMA peak.

#include <cstdio>

#include "bench_common.h"
#include "perf/flops.h"
#include "perf/roofline.h"
#include "perf/streambench.h"

using namespace tpf;
using namespace tpf::bench;

int main() {
    std::printf("== Roofline analysis (paper §5.1.1), one core ==\n\n");

    const auto stream = perf::runStream(/*megabytes=*/192, /*threads=*/1);
    const double peak = perf::measurePeakGflopsPerCore();
    std::printf("STREAM copy:  %7.2f GiB/s\n", stream.copyGiBs);
    std::printf("STREAM triad: %7.2f GiB/s   (paper: ~80 GiB/s per node)\n",
                stream.triadGiBs);
    std::printf("attainable FMA peak: %.2f GFLOP/s per core\n\n", peak);

    // Kernel measurements without shortcuts ("we focus on the singlenode
    // performance of our optimized code, without the shortcut optimizations,
    // since in this case the total number of executed floating point
    // operations per cell can be determined exactly").
    KernelBench kb(core::Scenario::Interface, {40, 40, 40});
    const double muMlups = kb.muMlups(core::MuKernelKind::SimdTzStag);
    const double phiMlups = kb.phiMlups(core::PhiKernelKind::SimdTzStag);

    Table t({"kernel", "flops/cell", "bytes/cell", "intensity [F/B]",
             "BW-bound [MLUP/s]", "peak-bound [MLUP/s]", "measured [MLUP/s]",
             "% of peak", "bound"});

    auto analyze = [&](const char* name, double flops, double bytes,
                       double measured) {
        perf::RooflineInput in{peak, stream.triadGiBs, flops, bytes};
        const auto r = perf::evaluateRoofline(in);
        const double gflops = measured * 1e6 * flops / 1e9;
        t.addRow({name, Table::num(flops, 0), Table::num(bytes, 0),
                  Table::num(r.arithmeticIntensity, 2),
                  Table::num(r.bandwidthBoundMlups, 1),
                  Table::num(r.computeBoundMlups, 1), Table::num(measured, 2),
                  Table::num(100.0 * gflops / peak, 1),
                  r.computeBound ? "compute" : "bandwidth"});
        return r;
    };

    const auto muR = analyze("mu (four-cell, Tz+stag)", perf::kMuFlopsPerCell,
                             perf::kMuBytesPerCell, muMlups);
    analyze("phi (cellwise, Tz+stag)", perf::kPhiFlopsPerCell,
            perf::kPhiBytesPerCell, phiMlups);
    t.print();

    std::printf("\nPaper comparison: mu-kernel measured %.2f MLUP/s vs "
                "bandwidth ceiling %.1f MLUP/s -> %s bound (paper: measured "
                "4.2 vs ceiling 126.3 on one SuperMUC core -> compute "
                "bound).\n",
                muMlups, muR.bandwidthBoundMlups,
                muMlups < 0.5 * muR.bandwidthBoundMlups ? "compute"
                                                        : "bandwidth");
    return 0;
}
