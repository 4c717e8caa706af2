#pragma once
/// \file bench_common.h
/// Shared setup for the benchmark binaries: scenario-filled blocks, kernel
/// timing, MLUP/s reporting, command-line parsing.

#include <charconv>
#include <memory>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/regions.h"
#include "perf/perf.h"
#include "thermo/agalcu.h"
#include "util/table.h"

namespace tpf::bench {

struct KernelBench {
    thermo::TernarySystem sys = thermo::makeAgAlCu();
    core::ModelParams prm = core::ModelParams::defaults();
    core::FrozenTemperature temp{prm.temp};
    core::TzCache tz;
    std::unique_ptr<core::SimBlock> blk;

    explicit KernelBench(core::Scenario sc, Int3 size = {60, 60, 60},
                         Layout phiLayout = Layout::fzyx) {
        blk = std::make_unique<core::SimBlock>(size, phiLayout, Layout::fzyx);
        core::fillScenario(*blk, sc, sys, prm.eps);
    }

    core::StepContext ctx() {
        core::StepContext c;
        c.mc = core::ModelConsts::build(prm, sys);
        tz.build(c.mc, temp, blk->origin.z, blk->size.z, 0.0, 0.0);
        c.tz = &tz;
        c.temp = &temp;
        return c;
    }

    /// MLUP/s of one phi kernel variant on this block.
    double phiMlups(core::PhiKernelKind k, double minSeconds = 0.4) {
        auto c = ctx();
        const double sec = perf::timeIt(
            [&] { core::runPhiKernel(k, *blk, c); }, minSeconds);
        return static_cast<double>(blk->numCells()) / sec / 1e6;
    }

    /// MLUP/s of one mu kernel variant (phiDst prepared by one Basic sweep so
    /// the anti-trapping terms are exercised like in production).
    double muMlups(core::MuKernelKind k, double minSeconds = 0.4) {
        auto c = ctx();
        core::runPhiKernel(core::PhiKernelKind::SimdTzStagCut, *blk, c);
        const double sec =
            perf::timeIt([&] { core::runMuKernel(k, *blk, c); }, minSeconds);
        return static_cast<double>(blk->numCells()) / sec / 1e6;
    }
};

inline const char* scenarioLabel(core::Scenario s) {
    return core::scenarioName(s);
}

/// Parses a `--ranks` list such as "1,2,4". Every token must be a whole
/// decimal number >= 1; an empty token ("4,"), trailing garbage ("2x") or a
/// non-positive value yields an empty list, which callers reject.
inline std::vector<int> parseRankList(const std::string& text) {
    std::vector<int> out;
    const char* p = text.data();
    const char* const end = p + text.size();
    for (;;) {
        int r = 0;
        const auto [next, ec] = std::from_chars(p, end, r);
        if (ec != std::errc() || r < 1) return {};
        out.push_back(r);
        if (next == end) return out;
        if (*next != ',') return {};
        p = next + 1;
    }
}

} // namespace tpf::bench
