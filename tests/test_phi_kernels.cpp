/// Kernel equivalence + invariant tests for the phi-sweep — the executable
/// version of the paper's "regularly running test suite [that] checks all
/// kernel versions for equivalence".
///
/// Equivalence classes:
///  - General / Basic / ScalarTzStag / ScalarTzStagCut: bitwise identical
///    (same expressions; the Tz cache and the staggered buffers reproduce the
///    per-cell arithmetic exactly, and the bulk shortcut is exact because
///    projection pins bulk cells at simplex vertices).
///  - SIMD variants: equal to the scalar reference within a tight tolerance
///    (different association of the phase sums).
///  - SimdFourCell (the production phi-sweep): bitwise equal to the cellwise
///    SimdTzStagCut on every dispatch target, zero signs included
///    (PhiMultiCellLockdown below).

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/kernels.h"
#include "core/regions.h"
#include "kernel_support.h"
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

struct KernelFixture {
    thermo::TernarySystem sys = thermo::makeAgAlCu();
    ModelParams prm = ModelParams::defaults();
    FrozenTemperature temp{prm.temp};
    TzCache tz;

    std::unique_ptr<SimBlock> makeBlock(Scenario sc, Int3 size = {16, 16, 16},
                                        std::uint64_t perturbSeed = 0) {
        auto b = std::make_unique<SimBlock>(size);
        fillScenario(*b, sc, sys, prm.eps);
        if (perturbSeed != 0) {
            // Perturb mu so the driving force and anti-trapping terms are
            // exercised away from the symmetric equilibrium.
            Random rng(perturbSeed);
            forEachCell(b->muSrc.withGhosts(), [&](int x, int y, int z) {
                b->muSrc(x, y, z, 0) += rng.uniform(-0.02, 0.02);
                b->muSrc(x, y, z, 1) += rng.uniform(-0.02, 0.02);
            });
        }
        return b;
    }

    StepContext ctx(const SimBlock& b) {
        StepContext c;
        c.mc = ModelConsts::build(prm, sys);
        tz.build(c.mc, temp, b.origin.z, b.size.z, /*t=*/0.0, /*woff=*/0.0);
        c.tz = &tz;
        c.temp = &temp;
        return c;
    }
};

double maxDiff(const Field<double>& a, const Field<double>& b) {
    return a.maxAbsDiff(b);
}

class PhiKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<PhiKernelKind, Scenario>> {};

TEST_P(PhiKernelEquivalence, MatchesBasicReference) {
    const auto [kind, scenario] = GetParam();
    KernelFixture fx;

    auto ref = fx.makeBlock(scenario, {16, 16, 16}, 77);
    auto tst = fx.makeBlock(scenario, {16, 16, 16}, 77);
    ASSERT_EQ(maxDiff(ref->phiSrc, tst->phiSrc), 0.0);

    auto ctxRef = fx.ctx(*ref);
    runPhiKernel(PhiKernelKind::Basic, *ref, ctxRef);
    auto ctxTst = fx.ctx(*tst);
    runPhiKernel(kind, *tst, ctxTst);

    const double d = maxDiff(ref->phiDst, tst->phiDst);
    const bool bitwiseClass = kind == PhiKernelKind::General ||
                              kind == PhiKernelKind::Basic ||
                              kind == PhiKernelKind::ScalarTzStag ||
                              kind == PhiKernelKind::ScalarTzStagCut;
    if (bitwiseClass)
        EXPECT_EQ(d, 0.0) << kernelName(kind) << " must be bitwise equal";
    else
        EXPECT_LT(d, 1e-11) << kernelName(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKernelsAllScenarios, PhiKernelEquivalence,
    ::testing::Combine(::testing::ValuesIn(allPhiKernels()),
                       ::testing::Values(Scenario::Interface, Scenario::Liquid,
                                         Scenario::Solid)),
    [](const auto& pinfo) {
        return testSafe(kernelName(std::get<0>(pinfo.param))) + "_" +
               scenarioName(std::get<1>(pinfo.param));
    });

class PhiKernelInvariants : public ::testing::TestWithParam<PhiKernelKind> {};

TEST_P(PhiKernelInvariants, ResultStaysOnSimplex) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, {16, 16, 16}, 31);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    forEachCell(b->phiDst.interior(), [&](int x, int y, int z) {
        double s = 0.0;
        for (int a = 0; a < N; ++a) {
            const double v = b->phiDst(x, y, z, a);
            ASSERT_GE(v, 0.0);
            ASSERT_LE(v, 1.0);
            s += v;
        }
        ASSERT_NEAR(s, 1.0, 1e-12);
    });
}

TEST_P(PhiKernelInvariants, BulkCellsAreExactNoOps) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, {16, 16, 16}, 31);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    // Every cell whose whole D3C7 neighborhood is one exact vertex must be
    // unchanged bitwise — regardless of whether the kernel shortcuts.
    long long bulkCells = 0;
    forEachCell(b->phiDst.interior(), [&](int x, int y, int z) {
        int phase = -1;
        for (int a = 0; a < N; ++a)
            if (b->phiSrc(x, y, z, a) == 1.0) phase = a;
        if (phase < 0) return;
        const bool bulk7 = b->phiSrc(x - 1, y, z, phase) == 1.0 &&
                           b->phiSrc(x + 1, y, z, phase) == 1.0 &&
                           b->phiSrc(x, y - 1, z, phase) == 1.0 &&
                           b->phiSrc(x, y + 1, z, phase) == 1.0 &&
                           b->phiSrc(x, y, z - 1, phase) == 1.0 &&
                           b->phiSrc(x, y, z + 1, phase) == 1.0;
        if (!bulk7) return;
        ++bulkCells;
        for (int a = 0; a < N; ++a)
            ASSERT_EQ(b->phiDst(x, y, z, a), b->phiSrc(x, y, z, a))
                << "bulk cell changed at " << x << "," << y << "," << z;
    });
    EXPECT_GT(bulkCells, 100) << "scenario should contain bulk cells";
}

TEST_P(PhiKernelInvariants, PureLiquidBlockIsCompletelyStatic) {
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Liquid);
    auto ctx = fx.ctx(*b);
    runPhiKernel(GetParam(), *b, ctx);
    EXPECT_EQ(maxDiff(b->phiDst, b->phiSrc), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PhiKernelInvariants,
                         ::testing::ValuesIn(allPhiKernels()),
                         [](const auto& pinfo) { return testSafe(kernelName(pinfo.param)); });

TEST(PhiKernel, UndercoolingGrowsSolidAtTheFront) {
    // With the eutectic isotherm far above the front, the front region is
    // strongly undercooled -> liquid fraction must decrease.
    KernelFixture fx;
    fx.prm.temp.gradient = 1.0;
    fx.prm.temp.zEut0 = 40.0; // front at z = 8 is 31.5 K undercooled
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = fx.makeBlock(Scenario::Interface);
    double liq0 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq0 += b->phiSrc(x, y, z, LIQ);
    });

    auto ctx = fx.ctx(*b);
    // A few steps: sweep, swap phi (mu held fixed — pure driving-force test).
    for (int step = 0; step < 5; ++step) {
        runPhiKernel(PhiKernelKind::Basic, *b, ctx);
        b->phiSrc.copyFrom(b->phiDst);
    }
    double liq1 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq1 += b->phiSrc(x, y, z, LIQ);
    });
    EXPECT_LT(liq1, liq0) << "undercooled front must solidify";
}

TEST(PhiKernel, SuperheatingMeltsSolidAtTheFront) {
    KernelFixture fx;
    fx.prm.temp.gradient = 1.0;
    fx.prm.temp.zEut0 = -30.0; // whole block above T_E -> melting
    fx.temp = FrozenTemperature(fx.prm.temp);

    auto b = fx.makeBlock(Scenario::Interface);
    double liq0 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq0 += b->phiSrc(x, y, z, LIQ);
    });
    auto ctx = fx.ctx(*b);
    for (int step = 0; step < 5; ++step) {
        runPhiKernel(PhiKernelKind::Basic, *b, ctx);
        b->phiSrc.copyFrom(b->phiDst);
    }
    double liq1 = 0.0;
    forEachCell(b->phiSrc.interior(), [&](int x, int y, int z) {
        liq1 += b->phiSrc(x, y, z, LIQ);
    });
    EXPECT_GT(liq1, liq0) << "superheated front must melt";
}

TEST(PhiKernel, ZyxfLayoutGivesSameResultAsFzyx) {
    KernelFixture fx;
    auto a = std::make_unique<SimBlock>(Int3{12, 12, 12}, Layout::fzyx,
                                        Layout::fzyx);
    auto b = std::make_unique<SimBlock>(Int3{12, 12, 12}, Layout::zyxf,
                                        Layout::zyxf);
    fillScenario(*a, Scenario::Interface, fx.sys, fx.prm.eps);
    fillScenario(*b, Scenario::Interface, fx.sys, fx.prm.eps);

    auto ca = fx.ctx(*a);
    runPhiKernel(PhiKernelKind::Basic, *a, ca);
    auto cb = fx.ctx(*b);
    runPhiKernel(PhiKernelKind::Basic, *b, cb);

    forEachCell(a->phiDst.interior(), [&](int x, int y, int z) {
        for (int f = 0; f < N; ++f)
            ASSERT_EQ(a->phiDst(x, y, z, f), b->phiDst(x, y, z, f));
    });
}

TEST(PhiKernel, RegionClassificationOfScenarios) {
    KernelFixture fx;
    auto liq = fx.makeBlock(Scenario::Liquid);
    auto sol = fx.makeBlock(Scenario::Solid);
    auto inter = fx.makeBlock(Scenario::Interface);

    const auto sLiq = classifyBlock(liq->phiSrc);
    EXPECT_EQ(sLiq.bulkLiquid, sLiq.total());

    const auto sSol = classifyBlock(sol->phiSrc);
    EXPECT_EQ(sSol.bulkLiquid, 0);
    EXPECT_GT(sSol.bulkSolid, 0);
    EXPECT_GT(sSol.interface, 0); // solid-solid lamella boundaries

    const auto sInt = classifyBlock(inter->phiSrc);
    EXPECT_GT(sInt.bulkLiquid, 0);
    EXPECT_GT(sInt.bulkSolid, 0);
    EXPECT_GT(sInt.front, 0);
}

// --- four-cell vectorization guards -----------------------------------------
// Every vectorized sweep runs on a runtime dispatch target, so each guard is
// checked on every target this CPU supports. A block narrower than a
// target's multi-cell width (nx = 4 under avx512) runs on the widest target
// that fits, and must still match scalar exactly.

TEST(PhiKernelSimdGuards, MinimalVectorWidthBlockMatchesBasic) {
    // nx = 4 is the narrowest block the four-cell kernel accepts.
    test::TargetGuard guard;
    KernelFixture fx;
    auto ref = fx.makeBlock(Scenario::Interface, {4, 8, 8}, 77);
    auto ctxRef = fx.ctx(*ref);
    runPhiKernel(PhiKernelKind::Basic, *ref, ctxRef);

    std::unique_ptr<SimBlock> scalar;
    for (const KernelTarget* t : availableKernelTargets()) {
        SCOPED_TRACE(std::string("target=") + t->name);
        ASSERT_TRUE(setKernelTarget(t->name));
        auto tst = fx.makeBlock(Scenario::Interface, {4, 8, 8}, 77);
        auto ctxTst = fx.ctx(*tst);
        runPhiKernel(PhiKernelKind::SimdFourCell, *tst, ctxTst);

        EXPECT_LT(maxDiff(ref->phiDst, tst->phiDst), 1e-11);
        if (scalar == nullptr) {
            scalar = std::move(tst); // availableKernelTargets() starts there
        } else {
            EXPECT_EQ(maxDiff(scalar->phiDst, tst->phiDst), 0.0);
        }
    }
}

TEST(PhiKernelSimdGuardsDeathTest, RejectsNxNotDivisibleByFour) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    test::TargetGuard guard;
    KernelFixture fx;
    auto b = fx.makeBlock(Scenario::Interface, {6, 8, 8}, 77);
    auto ctx = fx.ctx(*b);
    for (const KernelTarget* t : availableKernelTargets()) {
        SCOPED_TRACE(std::string("target=") + t->name);
        ASSERT_TRUE(setKernelTarget(t->name));
        EXPECT_DEATH(runPhiKernel(PhiKernelKind::SimdFourCell, *b, ctx),
                     "divisible by 4");
    }
}

// --- production multi-cell phi == cellwise SimdTzStagCut, bitwise ----------
// memcmp, not ==, so a -0.0 where the cellwise kernel stores +0.0 fails.
// nx = 12 and 20 leave a width-8 tail group that overlaps its neighbor;
// nx = 4 runs on the widest target that fits. The slabbed sweeps restart the
// staggered z-buffers at zBegin > 0, as the threaded solver does.

/// Groups of \p w consecutive x-cells (aligned at 0) that mix bulk and
/// non-bulk cells.
int mixedGroups(const Field<double>& phi, int w) {
    const CellInterval in = phi.interior();
    int mixed = 0;
    for (int z = in.zMin; z <= in.zMax; ++z)
        for (int y = in.yMin; y <= in.yMax; ++y)
            for (int x0 = 0; x0 + w <= in.xMax + 1; x0 += w) {
                int bulk = 0;
                for (int x = x0; x < x0 + w; ++x) {
                    bool cellBulk = false;
                    for (int a = 0; a < N; ++a)
                        cellBulk = cellBulk || (phi(x, y, z, a) == 1.0 &&
                                                phi(x - 1, y, z, a) == 1.0 &&
                                                phi(x + 1, y, z, a) == 1.0 &&
                                                phi(x, y - 1, z, a) == 1.0 &&
                                                phi(x, y + 1, z, a) == 1.0 &&
                                                phi(x, y, z - 1, a) == 1.0 &&
                                                phi(x, y, z + 1, a) == 1.0);
                    bulk += cellBulk ? 1 : 0;
                }
                if (bulk > 0 && bulk < w) ++mixed;
            }
    return mixed;
}

TEST(PhiMultiCellLockdown, BitwiseEqualToCellwiseOnEveryTarget) {
    test::TargetGuard guard;
    KernelFixture fx;
    struct Case {
        const char* name;
        Scenario scenario;
        bool speckled;
    };
    const Case cases[] = {{"interface", Scenario::Interface, false},
                          {"liquid", Scenario::Liquid, false},
                          {"solid", Scenario::Solid, false},
                          {"speckled-liquid", Scenario::Liquid, true}};
    // Slab partitions of nz = 16: the full sweep and three restarts.
    const std::vector<std::vector<int>> partitions = {{0, 16},
                                                      {0, 5, 11, 16}};

    auto sweep = [&](PhiKernelKind kind, const Case& c, Int3 size,
                     const std::vector<int>& cuts) {
        auto b = fx.makeBlock(c.scenario, size, 77);
        if (c.speckled) test::speckle(*b);
        const StepContext ctx = fx.ctx(*b);
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
            CellInterval slab = b->phiSrc.interior();
            slab.zMin = cuts[i];
            slab.zMax = cuts[i + 1] - 1;
            runPhiKernel(kind, *b, ctx.forSlab(slab));
        }
        return b;
    };

    int mixed = 0;
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
                    auto cell = sweep(PhiKernelKind::SimdTzStagCut, c, size,
                                      cuts);
                    auto multi = sweep(PhiKernelKind::SimdFourCell, c, size,
                                       cuts);
                    EXPECT_TRUE(test::sameBytes(cell->phiDst, multi->phiDst))
                        << "max |diff| = " << maxDiff(cell->phiDst, multi->phiDst);
                    if (c.speckled) mixed += mixedGroups(cell->phiSrc, 8);
                }
            }
        }
    }
    EXPECT_GT(mixed, 0) << "speckled block must mix bulk and non-bulk lanes";
}

} // namespace
} // namespace tpf::core
