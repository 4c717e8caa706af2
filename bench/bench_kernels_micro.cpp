/// Google-benchmark microbenchmarks of the low-level building blocks: SIMD
/// abstraction ops, simplex projection, fast inverse sqrt, face-flux kernels
/// and ghost-layer pack/unpack. Complements the figure-level benches with
/// statistically robust per-operation timings.

#include <benchmark/benchmark.h>

#include <cmath>

#include "comm/exchange.h"
#include "core/kernels.h"
#include "core/model_common.h"
#include "core/regions.h"
#include "core/solver.h"
#include "simd/simd.h"
#include "simd/simplex4.h"
#include "thermo/agalcu.h"
#include "util/random.h"
#include "util/simplex.h"

namespace {

using namespace tpf;
using V = simd::Vec4d;

void BM_FastInvSqrt(benchmark::State& state) {
    double x = 3.7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(x = 2.0 + fastInvSqrt(x));
    }
}
BENCHMARK(BM_FastInvSqrt);

void BM_HardwareRsqrt(benchmark::State& state) {
    double x = 3.7;
    for (auto _ : state) {
        benchmark::DoNotOptimize(x = 2.0 + 1.0 / std::sqrt(x));
    }
}
BENCHMARK(BM_HardwareRsqrt);

void BM_SimplexProjectionScalar(benchmark::State& state) {
    Random rng(1);
    double a = rng.uniform(), b = rng.uniform(), c = rng.uniform(),
           d = rng.uniform();
    for (auto _ : state) {
        double x0 = a - 0.3, x1 = b, x2 = c + 0.2, x3 = d;
        projectToSimplex4(x0, x1, x2, x3);
        benchmark::DoNotOptimize(x0 + x1 + x2 + x3);
    }
}
BENCHMARK(BM_SimplexProjectionScalar);

void BM_SimplexProjectionSimd4Lanes(benchmark::State& state) {
    V x0 = V::set(0.7, -0.1, 1.3, 0.2);
    V x1 = V::set(0.1, 0.4, -0.2, 0.3);
    V x2 = V::set(0.3, 0.5, 0.1, 0.1);
    V x3 = V::set(-0.1, 0.2, 0.2, 0.4);
    for (auto _ : state) {
        V a = x0, b = x1, c = x2, d = x3;
        simd::projectToSimplex4Lanes(a, b, c, d);
        benchmark::DoNotOptimize(a.hsum() + b.hsum() + c.hsum() + d.hsum());
    }
}
BENCHMARK(BM_SimplexProjectionSimd4Lanes);

void BM_PhiFaceFluxScalar(benchmark::State& state) {
    const auto sys = thermo::makeAgAlCu();
    const auto mc =
        core::ModelConsts::build(core::ModelParams::defaults(), sys);
    const double pL[4] = {0.3, 0.3, 0.2, 0.2};
    const double pR[4] = {0.25, 0.25, 0.25, 0.25};
    double flux[4];
    for (auto _ : state) {
        core::phiFaceFlux(mc, pL, pR, flux);
        benchmark::DoNotOptimize(flux[0] + flux[3]);
    }
}
BENCHMARK(BM_PhiFaceFluxScalar);

void BM_PhiSweepPerCell(benchmark::State& state) {
    const auto kind = static_cast<core::PhiKernelKind>(state.range(0));
    const auto sys = thermo::makeAgAlCu();
    auto prm = core::ModelParams::defaults();
    core::FrozenTemperature temp(prm.temp);
    core::SimBlock blk({40, 40, 40});
    core::fillScenario(blk, core::Scenario::Interface, sys, prm.eps);
    core::StepContext ctx;
    ctx.mc = core::ModelConsts::build(prm, sys);
    core::TzCache tz;
    tz.build(ctx.mc, temp, 0, 40, 0.0, 0.0);
    ctx.tz = &tz;
    ctx.temp = &temp;
    for (auto _ : state) {
        core::runPhiKernel(kind, blk, ctx);
    }
    state.SetItemsProcessed(state.iterations() * blk.numCells());
}
BENCHMARK(BM_PhiSweepPerCell)
    ->Arg(static_cast<int>(core::PhiKernelKind::Basic))
    ->Arg(static_cast<int>(core::PhiKernelKind::SimdTzStagCut))
    ->Arg(static_cast<int>(core::SolverConfig{}.phiKernel)); // production

void BM_MuSweepPerCell(benchmark::State& state) {
    const auto kind = static_cast<core::MuKernelKind>(state.range(0));
    const auto sys = thermo::makeAgAlCu();
    auto prm = core::ModelParams::defaults();
    core::FrozenTemperature temp(prm.temp);
    core::SimBlock blk({40, 40, 40});
    core::fillScenario(blk, core::Scenario::Interface, sys, prm.eps);
    core::StepContext ctx;
    ctx.mc = core::ModelConsts::build(prm, sys);
    core::TzCache tz;
    tz.build(ctx.mc, temp, 0, 40, 0.0, 0.0);
    ctx.tz = &tz;
    ctx.temp = &temp;
    core::runPhiKernel(core::SolverConfig{}.phiKernel, blk, ctx);
    for (auto _ : state) {
        core::runMuKernel(kind, blk, ctx);
    }
    state.SetItemsProcessed(state.iterations() * blk.numCells());
}
BENCHMARK(BM_MuSweepPerCell)
    ->Arg(static_cast<int>(core::MuKernelKind::Basic))
    ->Arg(static_cast<int>(core::MuKernelKind::SimdTzStagCut));

void BM_GhostExchangeSerial(benchmark::State& state) {
    auto bf = BlockForest::createUniform({80, 40, 40}, {40, 40, 40},
                                         {true, true, true}, 1);
    Field<double> f0(40, 40, 40, 4, 1, Layout::fzyx);
    Field<double> f1(40, 40, 40, 4, 1, Layout::fzyx);
    GhostExchange ex(bf, nullptr, StencilKind::D3C19, 0);
    ex.registerField(0, &f0);
    ex.registerField(1, &f1);
    for (auto _ : state) {
        ex.communicate();
    }
}
BENCHMARK(BM_GhostExchangeSerial);

} // namespace

BENCHMARK_MAIN();
