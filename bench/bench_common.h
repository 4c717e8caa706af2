#pragma once
/// \file bench_common.h
/// Shared setup for the benchmark binaries: scenario-filled blocks, kernel
/// timing, MLUP/s reporting, command-line parsing.

#include <charconv>
#include <memory>
#include <string_view>
#include <vector>

#include "core/kernels.h"
#include "core/regions.h"
#include "core/solver.h"
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

    /// MLUP/s of one mu kernel variant (phiDst prepared by one production
    /// phi sweep so the anti-trapping terms are exercised like in
    /// production).
    double muMlups(core::MuKernelKind k, double minSeconds = 0.4) {
        auto c = ctx();
        core::runPhiKernel(core::SolverConfig{}.phiKernel, *blk, c);
        const double sec =
            perf::timeIt([&] { core::runMuKernel(k, *blk, c); }, minSeconds);
        return static_cast<double>(blk->numCells()) / sec / 1e6;
    }
};

inline const char* scenarioLabel(core::Scenario s) {
    return core::scenarioName(s);
}

/// Parses a whole decimal number >= 1. Trailing garbage ("6x"), an empty
/// string, a sign, a non-positive or an out-of-range value yield 0, which
/// callers reject.
inline int parsePositiveInt(std::string_view text) {
    const char* const end = text.data() + text.size();
    int v = 0;
    const auto [next, ec] = std::from_chars(text.data(), end, v);
    return ec == std::errc() && next == end && v >= 1 ? v : 0;
}

/// Parses a `--ranks` list such as "1,2,4": every comma-separated token must
/// pass parsePositiveInt, so "4," or "2x" yields an empty list, which callers
/// reject.
inline std::vector<int> parseRankList(std::string_view text) {
    std::vector<int> out;
    for (;;) {
        const std::size_t comma = text.find(',');
        const int r = parsePositiveInt(text.substr(0, comma));
        if (r == 0) return {};
        out.push_back(r);
        if (comma == std::string_view::npos) return out;
        text.remove_prefix(comma + 1);
    }
}

} // namespace tpf::bench
