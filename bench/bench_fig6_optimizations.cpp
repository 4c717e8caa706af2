/// Reproduces **Figure 6**: the single-core optimization progression for the
/// phi-kernel (left) and mu-kernel (right), run in interface/liquid/solid
/// blocks of size 60^3:
///   general purpose C code -> basic waLBerla implementation
///   -> explicit SIMD (cellwise for phi, four-cell for mu)
///   -> T(z) optimization -> staggered buffer -> shortcuts.
///
/// Expected shape (paper): monotone improvement; the staggered buffer nearly
/// doubles the mu-kernel; total speedup vs the general code is an order of
/// magnitude or more (paper: up to 80x vs original across architectures).
/// Shortcuts help both kernels most in liquid: phi bulk cells copy through,
/// and mu pure-liquid faces and cells take the bulk-liquid path on top of
/// the anti-trapping skip, which is all that solid gets. One run on a 4-core
/// avx512 Xeon printed shortcut factors (with shortcuts / staggered buffer)
/// of 6.1x liquid, 3.2x interface, 2.2x solid for phi and 4.6x, 2.6x, 1.7x
/// for mu; the "shortcut factor" lines print them on every host.

#include <cstdio>

#include "bench_common.h"
#include "core/kernel_dispatch.h"

using namespace tpf;
using namespace tpf::bench;
using core::MuKernelKind;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    std::printf("== Figure 6: kernel optimization progression (60^3 block) ==\n");
    std::printf("kernel target: %s (%d-wide multi-cell sweeps)\n\n",
                core::activeKernelTarget()->name,
                core::activeKernelTarget()->width);

    const Scenario scenarios[] = {Scenario::Interface, Scenario::Liquid,
                                  Scenario::Solid};

    {
        std::printf("-- phi-kernel [MLUP/s] --\n");
        const std::pair<const char*, PhiKernelKind> stages[] = {
            {"general purpose C code", PhiKernelKind::General},
            {"basic waLBerla implementation", PhiKernelKind::Basic},
            {"with SIMD intrinsics (single cell)", PhiKernelKind::Simd},
            {"with T(z) optimization", PhiKernelKind::SimdTz},
            {"with staggered buffer", PhiKernelKind::SimdTzStag},
            {"with shortcuts", PhiKernelKind::SimdTzStagCut},
        };
        Table t({"stage", "interface", "liquid", "solid"});
        double base[3] = {0, 0, 0};
        double last[3] = {0, 0, 0};
        double stag[3] = {0, 0, 0};
        for (const auto& [label, kind] : stages) {
            std::vector<std::string> row{label};
            for (int s = 0; s < 3; ++s) {
                KernelBench kb(scenarios[s]);
                const double v = kb.phiMlups(kind);
                if (kind == PhiKernelKind::General) base[s] = v;
                if (kind == PhiKernelKind::SimdTzStag) stag[s] = v;
                last[s] = v;
                row.push_back(Table::num(v, 2));
            }
            t.addRow(std::move(row));
        }
        t.print();
        std::printf("speedup vs general code: interface %.1fx, liquid %.1fx, "
                    "solid %.1fx\n",
                    last[0] / base[0], last[1] / base[1], last[2] / base[2]);
        std::printf("shortcut factor: interface %.2fx, liquid %.2fx, solid "
                    "%.2fx\n\n",
                    last[0] / stag[0], last[1] / stag[1], last[2] / stag[2]);
    }

    {
        std::printf("-- mu-kernel [MLUP/s] --\n");
        const std::pair<const char*, MuKernelKind> stages[] = {
            {"general purpose C code", MuKernelKind::General},
            {"basic waLBerla implementation", MuKernelKind::Basic},
            {"with SIMD intrinsics (four cells)", MuKernelKind::Simd},
            {"with T(z) optimization", MuKernelKind::SimdTz},
            {"with staggered buffer", MuKernelKind::SimdTzStag},
            {"with shortcuts", MuKernelKind::SimdTzStagCut},
        };
        Table t({"stage", "interface", "liquid", "solid"});
        double base[3] = {0, 0, 0};
        double last[3] = {0, 0, 0};
        double stag[3] = {0, 0, 0};
        double preStag[3] = {0, 0, 0};
        for (const auto& [label, kind] : stages) {
            std::vector<std::string> row{label};
            for (int s = 0; s < 3; ++s) {
                KernelBench kb(scenarios[s]);
                const double v = kb.muMlups(kind);
                if (kind == MuKernelKind::General) base[s] = v;
                if (kind == MuKernelKind::SimdTz) preStag[s] = v;
                if (kind == MuKernelKind::SimdTzStag) stag[s] = v;
                last[s] = v;
                row.push_back(Table::num(v, 2));
            }
            t.addRow(std::move(row));
        }
        t.print();
        std::printf("speedup vs general code: interface %.1fx, liquid %.1fx, "
                    "solid %.1fx\n",
                    last[0] / base[0], last[1] / base[1], last[2] / base[2]);
        std::printf("staggered-buffer factor (paper: \"almost a factor of "
                    "two\"): %.2fx / %.2fx / %.2fx\n",
                    stag[0] / preStag[0], stag[1] / preStag[1],
                    stag[2] / preStag[2]);
        std::printf("shortcut factor: interface %.2fx, liquid %.2fx, solid "
                    "%.2fx\n",
                    last[0] / stag[0], last[1] / stag[1], last[2] / stag[2]);
    }
    return 0;
}
