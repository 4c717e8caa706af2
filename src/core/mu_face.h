#pragma once
/// \file mu_face.h
/// Staggered-face flux computation of the mu-sweep, shared by the reference
/// and the optimized scalar kernel variants (the SIMD kernels mirror these
/// expressions lane-wise). The flux at a face is (M grad mu - J_at) . n.

#include "core/model_common.h"
#include "grid/field.h"

namespace tpf::core {

inline void loadPhiCell(const Field<double>& f, int x, int y, int z, double* p) {
    for (int a = 0; a < N; ++a) p[a] = f(x, y, z, a);
}

/// Face gradients of all phases at the staggered face between L and R along
/// \p axis: normal component from the face pair, transverse components from
/// averaged central differences of the two adjacent cells (D3C19 accesses).
inline FaceGradients muFaceGradients(const ModelConsts& mc,
                                     const Field<double>& P, int axis, int xL,
                                     int yL, int zL) {
    const int ex[3] = {1, 0, 0};
    const int ey[3] = {0, 1, 0};
    const int ez[3] = {0, 0, 1};
    const int xR = xL + ex[axis], yR = yL + ey[axis], zR = zL + ez[axis];

    FaceGradients fg;
    for (int a = 0; a < N; ++a)
        fg.g[axis][a] = (P(xR, yR, zR, a) - P(xL, yL, zL, a)) * mc.invDx;

    for (int e = 0; e < 3; ++e) {
        if (e == axis) continue;
        const int dx = ex[e], dy = ey[e], dz = ez[e];
        for (int a = 0; a < N; ++a) {
            const double cdL =
                (P(xL + dx, yL + dy, zL + dz, a) - P(xL - dx, yL - dy, zL - dz, a));
            const double cdR =
                (P(xR + dx, yR + dy, zR + dz, a) - P(xR - dx, yR - dy, zR - dz, a));
            fg.g[e][a] = 0.5 * (cdL + cdR) * mc.halfInvDx;
        }
    }
    return fg;
}

/// Flux (M grad mu - J_at) . n at the face between cell L = (xL,yL,zL) and
/// its upper neighbor along \p axis.
/// \param shortcut apply the exact face-level J_at skip: a face whose two
///                 cells are both pure liquid or both liquid-free carries no
///                 anti-trapping flux (this check is what the paper describes
///                 as testing "critical subexpressions for zeros" before
///                 evaluating the expensive J_at).
inline void muFaceFluxAt(const ModelConsts& mc, const Field<double>& P,
                         const Field<double>& Pd, const Field<double>& Mu,
                         const SliceThermo& stL, const SliceThermo& stR,
                         int axis, int xL, int yL, int zL, bool shortcut,
                         double& Fx, double& Fy) {
    const int ex[3] = {1, 0, 0};
    const int ey[3] = {0, 1, 0};
    const int ez[3] = {0, 0, 1};
    const int xR = xL + ex[axis], yR = yL + ey[axis], zR = zL + ez[axis];

    double pL[N], pR[N];
    loadPhiCell(P, xL, yL, zL, pL);
    loadPhiCell(P, xR, yR, zR, pR);

    const double muLx = Mu(xL, yL, zL, 0), muLy = Mu(xL, yL, zL, 1);
    const double muRx = Mu(xR, yR, zR, 0), muRy = Mu(xR, yR, zR, 1);

    muGradFlux(mc, pL, pR, muLx, muLy, muRx, muRy, Fx, Fy);

    if (mc.antitrapping) {
        if (shortcut) {
            const double ll = pL[LIQ], lr = pR[LIQ];
            if ((ll == 0.0 && lr == 0.0) || (ll == 1.0 && lr == 1.0)) return;
        }
        double pdL[N], pdR[N], dtL[N], dtR[N];
        loadPhiCell(Pd, xL, yL, zL, pdL);
        loadPhiCell(Pd, xR, yR, zR, pdR);
        for (int a = 0; a < N; ++a) {
            dtL[a] = (pdL[a] - pL[a]) * mc.invDt;
            dtR[a] = (pdR[a] - pR[a]) * mc.invDt;
        }
        const FaceGradients fg = muFaceGradients(mc, P, axis, xL, yL, zL);
        double Jx, Jy;
        antiTrappingFlux(mc, stL, stR, axis, pL, pR, dtL, dtR, fg,
                         0.5 * (muLx + muRx), 0.5 * (muLy + muRy), Jx, Jy);
        Fx -= Jx;
        Fy -= Jy;
    }
}

/// Cell-local part of the mu update shared by all scalar variants: sources,
/// susceptibility solve, explicit Euler step.
///
/// The susceptibility and the dc/dT source use the *new* interpolation
/// weights h(phi_dst). With c linear in mu this makes the discrete update
/// exactly conservative:
///   c(phi_dst, mu_dst, T_new) - c(phi_src, mu_src, T_old)
///     = chi(phi_dst) dmu + sum_a c_a(mu_src, T_old)(hD_a - hS_a)
///       + sum_a hD_a (xi_a(T_new) - xi_a(T_old))
/// so solving chi(phi_dst) dmu = dt div F - (the two source sums) telescopes
/// the total concentration over any flux-closed domain.
inline void muCellFinish(const ModelConsts& mc, const SliceThermo& stC,
                         const Field<double>& P, const Field<double>& Pd,
                         const Field<double>& Mu, Field<double>& Dst, int x,
                         int y, int z, double divX, double divY) {
    double pD[N], hD[N], pC[N], hS[N];
    loadPhiCell(Pd, x, y, z, pD);
    moelansWeights(pD, hD);
    loadPhiCell(P, x, y, z, pC);
    moelansWeights(pC, hS);

    const double mux = Mu(x, y, z, 0), muy = Mu(x, y, z, 1);
    double src1X = 0.0, src1Y = 0.0, src2X = 0.0, src2Y = 0.0;
    for (int a = 0; a < N; ++a) {
        const double cax = stC.xix[a] + mc.kinvA[a] * mux + mc.kinvB[a] * muy;
        const double cay = stC.xiy[a] + mc.kinvB[a] * mux + mc.kinvD[a] * muy;
        const double dh = (hD[a] - hS[a]) * mc.invDt;
        src1X -= cax * dh;
        src1Y -= cay * dh;
        src2X -= hD[a] * mc.dxidTx[a] * mc.dTdt;
        src2Y -= hD[a] * mc.dxidTy[a] * mc.dTdt;
    }
    const double rhsX = divX + (src1X + src2X);
    const double rhsY = divY + (src1Y + src2Y);

    double chiA, chiB, chiD;
    susceptibilityAt(mc, hD, chiA, chiB, chiD);

    double outX, outY;
    muUpdateCell(mc, chiA, chiB, chiD, rhsX, rhsY, mux, muy, outX, outY);
    Dst(x, y, z, 0) = outX;
    Dst(x, y, z, 1) = outY;
}

} // namespace tpf::core
