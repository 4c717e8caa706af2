#pragma once
/// \file correlation.h
/// Two-point correlation of the phase indicator functions and its principal
/// component analysis — the quantitative microstructure comparison the paper
/// announces ("a quantitative comparison using Principal Component Analysis
/// on two-point correlation is in preparation").
///
/// Like lamellae.h, the module has a plane-based core operating on raw
/// indicator planes (what the in-situ observer pipeline assembles from rank
/// tiles — hit counting is integer, the single normalizing division is the
/// only floating-point operation, so the results are decomposition-
/// independent) and field-based convenience wrappers.
///
/// Counting is modulo-free: each plane row is extended periodically once
/// per row (one wrap per row, not one per cell and lag), so every lag is a
/// contiguous row sum that vectorizes. The counts are integers, so the
/// results are bitwise those of the per-cell modulo loops they replaced
/// (test_analysis `Correlation.PlaneKernelsMatchModuloReference`).

#include <vector>

#include "core/sim_block.h"
#include "util/smallmat.h"

namespace tpf::analysis {

/// 1D two-point (auto)correlation S2(r) of an indicator plane (nx*ny bytes,
/// row-major) along \p axis (0 = x, 1 = y) with periodic wrapping, for
/// r in [0, maxShift]. S2(0) equals the phase fraction; S2(r) -> fraction^2
/// for uncorrelated distances; oscillations reveal the lamellar spacing.
std::vector<double> twoPointCorrelationPlane(const unsigned char* ind, int nx,
                                             int ny, int axis, int maxShift);

/// S2 of 1[phi_phase > 0.5], averaged over the slab z in [z0, z1].
std::vector<double> twoPointCorrelation(const Field<double>& phi, int phase,
                                        int axis, int maxShift, int z0, int z1);

/// Estimate the dominant lamellar spacing from the first non-trivial local
/// maximum of S2 (descend to the first local minimum, then ascend to the
/// next maximum; the maximum's position approximates the repeat distance).
///
/// Returns 0 when S2 carries no spacing signal: a monotone profile (no
/// interior minimum or no maximum after it), a constant profile, or fewer
/// than three samples. Callers must treat 0 as "no estimate", not as a
/// zero-width spacing.
double lamellarSpacingEstimate(const std::vector<double>& s2);

/// Full 2D autocorrelation map C(dx, dy) of an indicator plane for lags
/// |dx|,|dy| <= maxShift (periodic). Returned row-major with side
/// (2 maxShift + 1).
std::vector<double> correlationMap2DPlane(const unsigned char* ind, int nx,
                                          int ny, int maxShift);

/// Correlation map of 1[phi_phase > 0.5] in slice \p z.
std::vector<double> correlationMap2D(const Field<double>& phi, int phase,
                                     int z, int maxShift);

/// Principal component analysis of a correlation map: the second-moment
/// matrix of the (background-subtracted) correlation weights over the lag
/// vectors. Eigenvalues/axes describe the orientation and anisotropy of the
/// microstructure (lamellae give a strongly anisotropic ellipse).
struct CorrelationPca {
    double lambdaMinor = 0.0; ///< smaller eigenvalue
    double lambdaMajor = 0.0; ///< larger eigenvalue
    Vec2 axisMajor{};         ///< unit direction of the larger eigenvalue
    double anisotropy() const {
        return lambdaMajor > 0.0 ? lambdaMinor / lambdaMajor : 1.0;
    }
};

CorrelationPca correlationPca(const std::vector<double>& map, int maxShift);

} // namespace tpf::analysis
