#include "core/kernels.h"

#include "core/kernel_dispatch.h"

namespace tpf::core {

namespace {

/// Vectorized sweeps go through the runtime-selected instruction-set target
/// (core/kernel_dispatch.h). The cellwise phi body is always 4-wide; the
/// multi-cell bodies need nx >= target width. A narrower block runs on the
/// widest available target that fits, else on the narrowest (scalar) —
/// bitwise identical, since the targets only differ in instruction
/// encoding, never in arithmetic.
const KernelTarget* multiCellTarget(int nx) {
    const KernelTarget* t = activeKernelTarget();
    if (t->width <= nx) return t;
    const auto all = availableKernelTargets(); // narrowest first
    for (auto it = all.rbegin(); it != all.rend(); ++it)
        if ((*it)->width <= nx) return *it;
    return all.front();
}

void dispatchPhiCellwise(SimBlock& b, const StepContext& ctx, bool useTz,
                         bool useStag, bool shortcuts) {
    activeKernelTarget()->phiCellwise(b, ctx, useTz, useStag, shortcuts);
}

void dispatchPhiMultiCell(SimBlock& b, const StepContext& ctx) {
    multiCellTarget(b.size.x)->phiMultiCell(b, ctx);
}

void dispatchMuMultiCell(SimBlock& b, const StepContext& ctx, bool useTz,
                         bool useStag, bool shortcuts) {
    multiCellTarget(b.size.x)->muMultiCell(b, ctx, useTz, useStag, shortcuts);
}

} // namespace

void runPhiKernel(PhiKernelKind k, SimBlock& b, const StepContext& ctx) {
    switch (k) {
        case PhiKernelKind::General: phiSweepGeneral(b, ctx); return;
        case PhiKernelKind::Basic: phiSweepBasic(b, ctx); return;
        case PhiKernelKind::ScalarTzStag:
            phiSweepScalarOpt(b, ctx, /*shortcuts=*/false);
            return;
        case PhiKernelKind::ScalarTzStagCut:
            phiSweepScalarOpt(b, ctx, /*shortcuts=*/true);
            return;
        case PhiKernelKind::Simd:
            dispatchPhiCellwise(b, ctx, false, false, false);
            return;
        case PhiKernelKind::SimdTz:
            dispatchPhiCellwise(b, ctx, true, false, false);
            return;
        case PhiKernelKind::SimdTzStag:
            dispatchPhiCellwise(b, ctx, true, true, false);
            return;
        case PhiKernelKind::SimdTzStagCut:
            dispatchPhiCellwise(b, ctx, true, true, true);
            return;
        case PhiKernelKind::SimdFourCell: dispatchPhiMultiCell(b, ctx); return;
    }
    TPF_ASSERT(false, "unknown phi kernel kind");
}

void runMuKernel(MuKernelKind k, SimBlock& b, const StepContext& ctx,
                 MuSweepPart) {
    switch (k) {
        case MuKernelKind::General: muSweepGeneral(b, ctx); return;
        case MuKernelKind::Basic: muSweepBasic(b, ctx); return;
        case MuKernelKind::ScalarTzStag:
            muSweepScalarOpt(b, ctx, /*shortcuts=*/false);
            return;
        case MuKernelKind::ScalarTzStagCut:
            muSweepScalarOpt(b, ctx, /*shortcuts=*/true);
            return;
        case MuKernelKind::Simd:
            dispatchMuMultiCell(b, ctx, false, false, false);
            return;
        case MuKernelKind::SimdTz:
            dispatchMuMultiCell(b, ctx, true, false, false);
            return;
        case MuKernelKind::SimdTzStag:
            dispatchMuMultiCell(b, ctx, true, true, false);
            return;
        case MuKernelKind::SimdTzStagCut:
            dispatchMuMultiCell(b, ctx, true, true, true);
            return;
    }
    TPF_ASSERT(false, "unknown mu kernel kind");
}

std::string kernelName(PhiKernelKind k) {
    switch (k) {
        case PhiKernelKind::General: return "general-C";
        case PhiKernelKind::Basic: return "basic";
        case PhiKernelKind::ScalarTzStag: return "scalar+Tz+stag";
        case PhiKernelKind::ScalarTzStagCut: return "scalar+Tz+stag+cut";
        case PhiKernelKind::Simd: return "simd-cellwise";
        case PhiKernelKind::SimdTz: return "simd+Tz";
        case PhiKernelKind::SimdTzStag: return "simd+Tz+stag";
        case PhiKernelKind::SimdTzStagCut: return "simd+Tz+stag+cut";
        case PhiKernelKind::SimdFourCell: return "simd-fourcell";
    }
    return "?";
}

std::string kernelName(MuKernelKind k) {
    switch (k) {
        case MuKernelKind::General: return "general-C";
        case MuKernelKind::Basic: return "basic";
        case MuKernelKind::ScalarTzStag: return "scalar+Tz+stag";
        case MuKernelKind::ScalarTzStagCut: return "scalar+Tz+stag+cut";
        case MuKernelKind::Simd: return "simd-fourcell";
        case MuKernelKind::SimdTz: return "simd+Tz";
        case MuKernelKind::SimdTzStag: return "simd+Tz+stag";
        case MuKernelKind::SimdTzStagCut: return "simd+Tz+stag+cut";
    }
    return "?";
}

const std::vector<PhiKernelKind>& allPhiKernels() {
    static const std::vector<PhiKernelKind> v{
        PhiKernelKind::General,       PhiKernelKind::Basic,
        PhiKernelKind::ScalarTzStag,  PhiKernelKind::ScalarTzStagCut,
        PhiKernelKind::Simd,          PhiKernelKind::SimdTz,
        PhiKernelKind::SimdTzStag,    PhiKernelKind::SimdTzStagCut,
        PhiKernelKind::SimdFourCell,
    };
    return v;
}

const std::vector<MuKernelKind>& allMuKernels() {
    static const std::vector<MuKernelKind> v{
        MuKernelKind::General,      MuKernelKind::Basic,
        MuKernelKind::ScalarTzStag, MuKernelKind::ScalarTzStagCut,
        MuKernelKind::Simd,         MuKernelKind::SimdTz,
        MuKernelKind::SimdTzStag,   MuKernelKind::SimdTzStagCut,
    };
    return v;
}

bool needsTzCache(PhiKernelKind k) {
    switch (k) {
        case PhiKernelKind::General:
        case PhiKernelKind::Basic:
        case PhiKernelKind::Simd: return false;
        default: return true;
    }
}

bool needsTzCache(MuKernelKind k) {
    switch (k) {
        case MuKernelKind::General:
        case MuKernelKind::Basic:
        case MuKernelKind::Simd: return false;
        default: return true;
    }
}

} // namespace tpf::core
