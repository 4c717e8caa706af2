/// Kernel equivalence + invariant tests for the mu-sweep: every variant
/// against the Basic reference, the production shortcuts against the
/// shortcut-free sweep byte for byte (MuShortcutLockdown), and the exact
/// conservation property of the grand-potential formulation, over one step
/// and over many production steps.

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>

#include "comm/exchange.h"
#include "core/kernel_dispatch.h"
#include "core/kernels.h"
#include "core/regions.h"
#include "thermo/agalcu.h"
#include "kernel_support.h"
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
    /// \p speckled applies test::speckle to phiSrc before that sweep.
    std::unique_ptr<SimBlock> makeBlock(Scenario sc, std::uint64_t seed = 123,
                                        Int3 size = {16, 16, 16},
                                        bool speckled = false) {
        auto b = std::make_unique<SimBlock>(size);
        fillScenario(*b, sc, sys, prm.eps);
        if (speckled) test::speckle(*b);
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

/// Total concentration over the interior, c(phi, mu) summed per cell. The
/// sum runs in long double, so its own rounding stays far below the drift
/// bounds of the conservation tests.
Vec2 totalConcentration(const SimBlock& b, const thermo::TernarySystem& sys,
                        const FrozenTemperature& temp, bool useDst) {
    long double tx = 0.0L, ty = 0.0L;
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
        const Vec2 c =
            sys.mixtureConcentration(h, {mu(x, y, z, 0), mu(x, y, z, 1)}, T);
        tx += c.x;
        ty += c.y;
    });
    return {static_cast<double>(tx), static_cast<double>(ty)};
}

/// True if (x, y, z) is pure liquid in both phiSrc and phiDst.
bool pureLiquidCell(const SimBlock& b, int x, int y, int z) {
    for (const Field<double>* f : {&b.phiSrc, &b.phiDst})
        for (int a = 0; a < N; ++a)
            if ((*f)(x, y, z, a) != (a == LIQ ? 1.0 : 0.0)) return false;
    return true;
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

TEST(MuKernel, ProductionKernelsConserveSoluteOverManySteps) {
    // The production pair (multi-cell phi SimdFourCell + mu SimdTzStagCut,
    // with every shortcut) in a closed box: periodic self-wrap in all
    // directions, uniform T, no drive. The front region and the bulk liquid
    // above it both take part, so the bulk-liquid path carries the
    // diffusion of the mu perturbation for most of the block.
    MuFixture fx;
    fx.prm.temp.velocity = 0.0;
    fx.prm.temp.gradient = 0.0;
    fx.temp = FrozenTemperature(fx.prm.temp);

    const Int3 size{16, 16, 32};
    auto b = std::make_unique<SimBlock>(size);
    fillScenario(*b, Scenario::Interface, fx.sys, fx.prm.eps);
    Random rng(9);
    forEachCell(b->muSrc.interior(), [&](int x, int y, int z) {
        b->muSrc(x, y, z, 0) += rng.uniform(-0.05, 0.05);
        b->muSrc(x, y, z, 1) += rng.uniform(-0.05, 0.05);
    });

    auto bf = BlockForest::createUniform(size, size, {true, true, true}, 1);
    auto sync = [&](Field<double>& f, StencilKind st) {
        GhostExchange ex(bf, nullptr, st, 0);
        ex.registerField(0, &f);
        ex.communicate();
    };

    const Vec2 before = totalConcentration(*b, fx.sys, fx.temp, false);
    SimBlock start(size);
    fillScenario(start, Scenario::Interface, fx.sys, fx.prm.eps);
    const StepContext c = fx.ctx(*b);
    constexpr int kSteps = 60;
    int liquidCells = 0;
    for (int s = 0; s < kSteps; ++s) {
        sync(b->phiSrc, StencilKind::D3C19);
        sync(b->muSrc, StencilKind::D3C7);
        runPhiKernel(PhiKernelKind::SimdFourCell, *b, c);
        sync(b->phiDst, StencilKind::D3C19);
        runMuKernel(MuKernelKind::SimdTzStagCut, *b, c);
        if (s == kSteps - 1)
            forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
                liquidCells += pureLiquidCell(*b, x, y, z) ? 1 : 0;
            });
        b->phiSrc.swapData(b->phiDst);
        b->muSrc.swapData(b->muDst);
    }
    const Vec2 after = totalConcentration(*b, fx.sys, fx.temp, false);

    const double cells = static_cast<double>(size.x) * size.y * size.z;
    EXPECT_GT(liquidCells, static_cast<int>(cells) / 4)
        << "the block must keep a bulk-liquid region";
    EXPECT_GT(b->phiSrc.maxAbsDiff(start.phiSrc), 1e-3)
        << "the front must move";

    // Drift bound from rounding. In exact arithmetic the update telescopes
    // (see muCellFinish): the stored face fluxes cancel pairwise over the
    // periodic box and the sources are exact differences of c, so the total
    // is invariant. Each step rounds every cell's update through at most
    // ~30 double operations (sources, solve, Euler step), each off by at
    // most half an ulp of a term no larger than max |c| (< 1 here). That
    // bounds the drift of the cell mean by kSteps * 30 * eps * 1 ~ 4e-13
    // (the long double sums add ~1e-16).
    const double eps = std::numeric_limits<double>::epsilon();
    const double bound = kSteps * 30 * eps;
    EXPECT_NEAR(after.x / cells, before.x / cells, bound);
    EXPECT_NEAR(after.y / cells, before.y / cells, bound);
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

TEST(MuKernelSimdGuards, MinimalVectorWidthBlockMatchesBasic) {
    // nx = 4 is the narrowest block the four-cell kernel accepts.
    test::TargetGuard guard;
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
    test::TargetGuard guard;
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

// --- production mu shortcuts == no shortcuts, bitwise ----------------------
// SimdTzStagCut is SimdTzStag plus the exact shortcuts: the face-level
// anti-trapping skip and the bulk-liquid path, whose faces take a per-sweep
// mobility and whose cells take per-sweep sources and susceptibility. The
// two must agree byte for byte, zero signs included, on every target.
// nx = 12 and 20 leave a width-8 tail group that overlaps its neighbor;
// nx = 4 runs on the widest target that fits. The slabbed sweeps restart the
// staggered z-buffers at zBegin > 0, as the threaded solver does.

/// Counts the x-groups of \p w cells (aligned at 0) whose cells are all,
/// or only some, pure liquid in both phase fields.
void countLiquidGroups(const SimBlock& b, int w, int& pure, int& mixed) {
    const CellInterval in = b.phiSrc.interior();
    for (int z = in.zMin; z <= in.zMax; ++z)
        for (int y = in.yMin; y <= in.yMax; ++y)
            for (int x0 = 0; x0 + w <= in.xMax + 1; x0 += w) {
                int liquid = 0;
                for (int x = x0; x < x0 + w; ++x)
                    liquid += pureLiquidCell(b, x, y, z) ? 1 : 0;
                if (liquid == w) ++pure;
                if (liquid > 0 && liquid < w) ++mixed;
            }
}

TEST(MuShortcutLockdown, BitwiseEqualToStagOnEveryTarget) {
    test::TargetGuard guard;
    MuFixture fx;
    struct Case {
        const char* name;
        Scenario scenario;
        bool speckled;
        bool smallMu;
    };
    // "small-mu-liquid" puts mu within 1e-9 of zero: the update then
    // outweighs both mu and the flux divergence, so one ulp in any of the
    // bulk-liquid constants reaches muDst.
    const Case cases[] = {{"interface", Scenario::Interface, false, false},
                          {"liquid", Scenario::Liquid, false, false},
                          {"solid", Scenario::Solid, false, false},
                          {"speckled-liquid", Scenario::Liquid, true, false},
                          {"small-mu-liquid", Scenario::Liquid, false, true}};
    // Slab partitions of nz = 16: the full sweep and three restarts.
    const std::vector<std::vector<int>> partitions = {{0, 16},
                                                      {0, 5, 11, 16}};

    auto sweep = [&](MuKernelKind kind, const Case& c, Int3 size,
                     const std::vector<int>& cuts) {
        auto b = fx.makeBlock(c.scenario, 123, size, c.speckled);
        if (c.smallMu) {
            Random rng(5);
            forEachCell(b->muSrc.withGhosts(), [&](int x, int y, int z) {
                b->muSrc(x, y, z, 0) = rng.uniform(-1e-9, 1e-9);
                b->muSrc(x, y, z, 1) = rng.uniform(-1e-9, 1e-9);
            });
        }
        const StepContext ctx = fx.ctx(*b);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            CellInterval slab = b->muSrc.interior();
            slab.zMin = cuts[i];
            slab.zMax = cuts[i + 1] - 1;
            runMuKernel(kind, *b, ctx.forSlab(slab));
        }
        return b;
    };

    int pure = 0, mixed = 0;
    for (const KernelTarget* t : availableKernelTargets()) {
        ASSERT_TRUE(setKernelTarget(t->name));
        for (const Case& c : cases) {
            for (int nx : {4, 12, 16, 20}) {
                for (const auto& cuts : partitions) {
                    SCOPED_TRACE(std::string("target=") + t->name +
                                 " case=" + c.name +
                                 " nx=" + std::to_string(nx) +
                                 " slabs=" + std::to_string(cuts.size() - 1));
                    const Int3 size{nx, 12, 16};
                    auto stag = sweep(MuKernelKind::SimdTzStag, c, size, cuts);
                    auto cut = sweep(MuKernelKind::SimdTzStagCut, c, size,
                                     cuts);
                    EXPECT_TRUE(test::sameBytes(stag->muDst, cut->muDst))
                        << "max |diff| = "
                        << stag->muDst.maxAbsDiff(cut->muDst);
                    countLiquidGroups(*cut, 8, pure, mixed);
                }
            }
        }
    }
    EXPECT_GT(pure, 0) << "some groups must take the bulk-liquid path";
    EXPECT_GT(mixed, 0) << "some groups must mix pure-liquid and other lanes";
}

} // namespace
} // namespace tpf::core
