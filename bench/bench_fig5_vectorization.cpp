/// Reproduces **Figure 5**: "Comparison of different vectorization strategies
/// on one SuperMUC core, block size chosen as 60^3" — phi-kernel MLUP/s for
///   (a) cellwise vectorization (one SIMD vector = the 4 phases of a cell),
///   (b) cellwise with shortcuts (per-cell bulk branch),
///   (c) multi-cell vectorization (one vector = the target's width of
///       consecutive cells), with T(z) cache, staggered buffers and per-lane
///       shortcuts like (b) — the production phi-sweep, bitwise equal to (b),
/// each measured on interface / liquid / solid blocks.
///
/// The paper found cellwise-with-shortcuts fastest in all three scenarios on
/// 4-wide AVX, where four cells fill one vector and could only shortcut
/// together. The bench prints the measured winner per scenario instead of
/// assuming that outcome.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "core/kernel_dispatch.h"

using namespace tpf;
using namespace tpf::bench;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    const core::KernelTarget* target = core::activeKernelTarget();
    std::printf("== Figure 5: phi-kernel vectorization strategies "
                "(60^3 block, one core) ==\n");
    std::printf("kernel target: %s (%d-wide multi-cell sweeps)\n\n",
                target->name, target->width);

    const std::string multi = std::to_string(target->width) + " cells";
    const char* names[3] = {"cellwise", "cellwise+shortcuts", multi.c_str()};
    Table t({"scenario", "cellwise [MLUP/s]", "cellwise+shortcuts [MLUP/s]",
             "four cells [MLUP/s]", "fastest"});

    for (Scenario sc :
         {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
        KernelBench kb(sc);
        const double mlups[3] = {kb.phiMlups(PhiKernelKind::SimdTzStag),
                                 kb.phiMlups(PhiKernelKind::SimdTzStagCut),
                                 kb.phiMlups(PhiKernelKind::SimdFourCell)};
        int best = 0;
        for (int i = 1; i < 3; ++i)
            if (mlups[i] > mlups[best]) best = i;
        t.addRow({scenarioLabel(sc), Table::num(mlups[0], 2),
                  Table::num(mlups[1], 2), Table::num(mlups[2], 2),
                  names[best]});
    }
    t.print();

    std::printf("\nThe paper's cellwise+shortcuts win was measured on 4-wide "
                "AVX.\nThe \"four cells\" column runs %d cells per vector "
                "here and, like its cellwise+shortcuts\nneighbour, carries the "
                "T(z) cache, staggered buffers and (per-lane) shortcuts: it is\n"
                "the production phi-sweep.\n",
                target->width);
    return 0;
}
