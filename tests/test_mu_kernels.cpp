/// Kernel equivalence + invariant tests for the mu-sweep, including the
/// local/neighbor split used for communication hiding and the exact
/// conservation property of the grand-potential formulation.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>

#include "comm/exchange.h"
#include "core/kernel_dispatch.h"
#include "core/kernels.h"
#include "core/regions.h"
#include "thermo/agalcu.h"
#include "util/random.h"

namespace tpf::core {
namespace {

/// gtest parameter names must be alphanumeric: strip the +/- decorations of
/// the kernel display names.
std::string testSafe(std::string s) {
    std::string out;
    for (char c : s)
        if (std::isalnum(static_cast<unsigned char>(c))) out += c;
    return out;
}

struct MuFixture {
    thermo::TernarySystem sys = thermo::makeAgAlCu();
    ModelParams prm = ModelParams::defaults();
    FrozenTemperature temp{prm.temp};
    TzCache tz;

    /// Interface block with perturbed mu and an evolved phiDst (one Basic
    /// phi-sweep) so dphi/dt and the anti-trapping current are nonzero.
    std::unique_ptr<SimBlock> makeBlock(Scenario sc, std::uint64_t seed = 123,
                                        Int3 size = {16, 16, 16}) {
        auto b = std::make_unique<SimBlock>(size);
        fillScenario(*b, sc, sys, prm.eps);
        if (seed != 0) {
            Random rng(seed);
            forEachCell(b->muSrc.withGhosts(), [&](int x, int y, int z) {
                b->muSrc(x, y, z, 0) += rng.uniform(-0.02, 0.02);
                b->muSrc(x, y, z, 1) += rng.uniform(-0.02, 0.02);
            });
        }
        auto c = ctx(*b);
        runPhiKernel(PhiKernelKind::Basic, *b, c);
        // Make phiDst ghosts consistent (periodic self-wrap not needed for
        // the kernel comparison: all variants read the same ghost values).
        return b;
    }

    StepContext ctx(const SimBlock& b) {
        StepContext c;
        c.mc = ModelConsts::build(prm, sys);
        tz.build(c.mc, temp, b.origin.z, b.size.z, 0.0, 0.0);
        c.tz = &tz;
        c.temp = &temp;
        return c;
    }
};

class MuKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<MuKernelKind, Scenario>> {};

TEST_P(MuKernelEquivalence, MatchesBasicReference) {
    const auto [kind, scenario] = GetParam();
    MuFixture fx;

    auto ref = fx.makeBlock(scenario);
    auto tst = fx.makeBlock(scenario);
    ASSERT_EQ(ref->phiDst.maxAbsDiff(tst->phiDst), 0.0);

    auto cr = fx.ctx(*ref);
    runMuKernel(MuKernelKind::Basic, *ref, cr);
    auto ct = fx.ctx(*tst);
    runMuKernel(kind, *tst, ct);

    const double d = ref->muDst.maxAbsDiff(tst->muDst);
    const bool bitwiseClass =
        kind == MuKernelKind::General || kind == MuKernelKind::Basic ||
        kind == MuKernelKind::ScalarTzStag || kind == MuKernelKind::ScalarTzStagCut;
    if (bitwiseClass)
        EXPECT_EQ(d, 0.0) << kernelName(kind) << " must be bitwise equal";
    else
        EXPECT_LT(d, 1e-11) << kernelName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllScenarios, MuKernelEquivalence,
    ::testing::Combine(::testing::ValuesIn(allMuKernels()),
                       ::testing::Values(Scenario::Interface, Scenario::Liquid,
                                         Scenario::Solid)),
    [](const auto& pinfo) {
        return testSafe(kernelName(std::get<0>(pinfo.param))) + "_" +
               scenarioName(std::get<1>(pinfo.param));
    });

TEST(MuKernel, AntiTrappingChangesInterfaceResult) {
    // Sanity: J_at must actually contribute at a moving front.
    MuFixture fx;
    auto on = fx.makeBlock(Scenario::Interface);
    auto off = fx.makeBlock(Scenario::Interface);

    auto c1 = fx.ctx(*on);
    runMuKernel(MuKernelKind::Basic, *on, c1);

    fx.prm.antitrapping = false;
    auto c2 = fx.ctx(*off);
    runMuKernel(MuKernelKind::Basic, *off, c2);

    EXPECT_GT(on->muDst.maxAbsDiff(off->muDst), 0.0);
}

TEST(MuKernel, AntiTrappingVanishesWhenPhiIsStatic) {
    // dphi/dt = 0 -> J_at = 0 -> results identical with and without it.
    MuFixture fx;
    auto on = std::make_unique<SimBlock>(Int3{16, 16, 16});
    fillScenario(*on, Scenario::Interface, fx.sys, fx.prm.eps);
    on->phiDst.copyFrom(on->phiSrc); // static phi
    auto off = std::make_unique<SimBlock>(Int3{16, 16, 16});
    fillScenario(*off, Scenario::Interface, fx.sys, fx.prm.eps);
    off->phiDst.copyFrom(off->phiSrc);

    auto c1 = fx.ctx(*on);
    runMuKernel(MuKernelKind::Basic, *on, c1);
    fx.prm.antitrapping = false;
    auto c2 = fx.ctx(*off);
    runMuKernel(MuKernelKind::Basic, *off, c2);

    EXPECT_EQ(on->muDst.maxAbsDiff(off->muDst), 0.0);
}

/// Total concentration over the interior, c(phi, mu) summed per cell.
Vec2 totalConcentration(const SimBlock& b, const thermo::TernarySystem& sys,
                        const FrozenTemperature& temp, bool useDst) {
    Vec2 total{0.0, 0.0};
    const Field<double>& phi = useDst ? b.phiDst : b.phiSrc;
    const Field<double>& mu = useDst ? b.muDst : b.muSrc;
    forEachCell(phi.interior(), [&](int x, int y, int z) {
        double h[N];
        double p[N];
        for (int a = 0; a < N; ++a) p[a] = phi(x, y, z, a);
        double s2 = 0.0;
        for (int a = 0; a < N; ++a) s2 += p[a] * p[a];
        for (int a = 0; a < N; ++a) h[a] = p[a] * p[a] / s2;
        const double T = temp.atCell(b.origin.z + z, 0.0, 0.0);
        total += sys.mixtureConcentration(h, {mu(x, y, z, 0), mu(x, y, z, 1)}, T);
    });
    return total;
}

TEST(MuKernel, FullStepConservesTotalConcentrationPeriodically) {
    // Periodic in all directions (self-wrap ghosts), no temperature drive:
    // sum_cells c(phi, mu) must be invariant over a full phi+mu step. This is
    // the defining conservation property of the grand-potential formulation
    // and holds to rounding because chi is evaluated at phi_dst.
    // The temperature must also be *uniform*: a z-gradient in a z-periodic
    // domain is physically inconsistent (the wrap faces would see different
    // xi(T) values and the anti-trapping flux would not telescope).
    MuFixture fx;
    fx.prm.temp.velocity = 0.0; // dT/dt = 0
    fx.prm.temp.gradient = 0.0; // uniform T
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = std::make_unique<SimBlock>(Int3{16, 16, 16});
    fillScenario(*b, Scenario::Interface, fx.sys, fx.prm.eps);
    Random rng(9);
    forEachCell(b->muSrc.interior(), [&](int x, int y, int z) {
        b->muSrc(x, y, z, 0) += rng.uniform(-0.05, 0.05);
        b->muSrc(x, y, z, 1) += rng.uniform(-0.05, 0.05);
    });

    // Periodic ghost self-wrap for a single block.
    auto bf = BlockForest::createUniform({16, 16, 16}, {16, 16, 16},
                                         {true, true, true}, 1);
    auto sync = [&](Field<double>& f, StencilKind st) {
        GhostExchange ex(bf, nullptr, st, 0);
        ex.registerField(0, &f);
        ex.communicate();
    };
    sync(b->phiSrc, StencilKind::D3C19);
    sync(b->muSrc, StencilKind::D3C7);

    const Vec2 before = totalConcentration(*b, fx.sys, fx.temp, false);

    auto c = fx.ctx(*b);
    runPhiKernel(PhiKernelKind::Basic, *b, c);
    sync(b->phiDst, StencilKind::D3C19);
    runMuKernel(MuKernelKind::Basic, *b, c);

    const Vec2 after = totalConcentration(*b, fx.sys, fx.temp, true);
    const double cells = 16.0 * 16.0 * 16.0;
    EXPECT_NEAR(after.x / cells, before.x / cells, 1e-12);
    EXPECT_NEAR(after.y / cells, before.y / cells, 1e-12);
}

TEST(MuKernel, PureDiffusionRelaxesPerturbation) {
    // Static phi, perturbed mu in the liquid: diffusion must shrink the
    // deviation from the mean monotonically.
    MuFixture fx;
    fx.prm.temp.velocity = 0.0;
    // dt = 0.1 stays below the diffusive stability bound dx^2/(6 Deff) and
    // reaches a diffusion time D k^2 t ~ 1.5 within 100 steps for the
    // k = 2 pi / 16 perturbation below (expected damping ~0.2).
    fx.prm.dt = 0.1;
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = std::make_unique<SimBlock>(Int3{16, 16, 16});
    fillScenario(*b, Scenario::Liquid, fx.sys, fx.prm.eps);
    b->phiDst.copyFrom(b->phiSrc);
    // Smooth sinusoidal perturbation.
    forEachCell(b->muSrc.withGhosts(), [&](int x, int y, int z) {
        (void)z;
        b->muSrc(x, y, z, 0) += 0.05 * std::sin(2.0 * M_PI * x / 16.0);
        b->muSrc(x, y, z, 1) += 0.05 * std::cos(2.0 * M_PI * y / 16.0);
    });

    auto bf = BlockForest::createUniform({16, 16, 16}, {16, 16, 16},
                                         {true, true, true}, 1);
    GhostExchange ex(bf, nullptr, StencilKind::D3C7, 0);
    ex.registerField(0, &b->muSrc);

    auto dev = [&] {
        double m = 0.0;
        forEachCell(b->muSrc.interior(), [&](int x, int y, int z) {
            m = std::max(m, std::abs(b->muSrc(x, y, z, 0)));
            m = std::max(m, std::abs(b->muSrc(x, y, z, 1)));
        });
        return m;
    };

    const double d0 = dev();
    auto c = fx.ctx(*b);
    for (int s = 0; s < 100; ++s) {
        ex.communicate();
        runMuKernel(MuKernelKind::Basic, *b, c);
        b->muSrc.swapData(b->muDst);
    }
    const double d1 = dev();
    EXPECT_LT(d1, 0.5 * d0) << "diffusion must damp the perturbation";
}

// --- four-cell vectorization guards -----------------------------------------
// Every vectorized sweep runs on a runtime dispatch target, so each guard is
// checked on every target this CPU supports. A block narrower than a
// target's multi-cell width (nx = 4 under avx512) runs on the widest target
// that fits, and must still match scalar exactly.

/// Restores the startup dispatch choice no matter how a test exits.
struct TargetGuard {
    ~TargetGuard() { setKernelTarget("auto"); }
};

TEST(MuKernelSimdGuards, MinimalVectorWidthBlockMatchesBasic) {
    // nx = 4 is the narrowest block the four-cell kernel accepts.
    TargetGuard guard;
    MuFixture fx;
    auto ref = fx.makeBlock(Scenario::Interface, 77, {4, 8, 8});
    auto cr = fx.ctx(*ref);
    runMuKernel(MuKernelKind::Basic, *ref, cr);

    std::unique_ptr<SimBlock> scalar;
    for (const KernelTarget* t : availableKernelTargets()) {
        SCOPED_TRACE(std::string("target=") + t->name);
        ASSERT_TRUE(setKernelTarget(t->name));
        auto tst = fx.makeBlock(Scenario::Interface, 77, {4, 8, 8});
        ASSERT_EQ(ref->phiDst.maxAbsDiff(tst->phiDst), 0.0);
        auto ct = fx.ctx(*tst);
        runMuKernel(MuKernelKind::SimdTzStagCut, *tst, ct);

        EXPECT_LT(ref->muDst.maxAbsDiff(tst->muDst), 1e-11);
        if (scalar == nullptr) {
            scalar = std::move(tst); // availableKernelTargets() starts there
        } else {
            EXPECT_EQ(scalar->muDst.maxAbsDiff(tst->muDst), 0.0);
        }
    }
}

TEST(MuKernelSimdGuardsDeathTest, RejectsNxNotDivisibleByFour) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TargetGuard guard;
    MuFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, 77, {6, 8, 8});
    auto c = fx.ctx(*b);
    for (const KernelTarget* t : availableKernelTargets()) {
        SCOPED_TRACE(std::string("target=") + t->name);
        ASSERT_TRUE(setKernelTarget(t->name));
        EXPECT_DEATH(runMuKernel(MuKernelKind::SimdTzStagCut, *b, c),
                     "divisible by 4");
    }
}

} // namespace
} // namespace tpf::core
