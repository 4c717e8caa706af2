/// \file phi_kernel_multicell_body.h
/// Width-generic multi-cell phi-sweep body — the production phi-sweep
/// (Figure 5 "four cells", generalized: one SIMD vector holds the same phase
/// of V::width consecutive x-cells). NO include guard on purpose: included
/// inside an anonymous namespace with a `using V = <vector type>;` alias in
/// scope — see phi_kernel_cellwise_body.h for the linkage rationale and the
/// prerequisite includes.
///
/// Bitwise equal to the cellwise SimdTzStagCut body (T(z) cache + staggered
/// buffers + shortcuts) on every dispatch target, zero signs included:
///  - Arithmetic order: for phase a the pairwise terms visit the partners in
///    the cellwise lane-rotation order (a+1, a+2, a+3) mod 4 and accumulate
///    from +0.0; every phase sum (S, sum phi^2, omega-bar, the mean) is the
///    rotated sum (q_a + q_{a+1}) + (q_{a+2} + q_{a+3}) that the cellwise
///    laneSum forms in lane a.
///  - Staggered face fluxes: each cell computes its three upper faces. The
///    lower x-face comes from the previous lane (V::slideUp, with a carry
///    across groups), the lower y/z-faces from a row and a plane buffer. They
///    are computed explicitly only at x == 0, y == 0 and z == zBegin, so a
///    slab-restricted sweep restarts its z-plane buffer like the cellwise
///    one.
///  - Per-lane shortcut: a bulk lane (one phase is exactly 1 in the cell and
///    its six neighbors) stores its source phases and buffers +0.0 for its
///    upper faces, as the cellwise shortcut does; the next cell then reads
///    +0.0, not the (possibly -0.0) flux. A group of all-bulk lanes skips the
///    arithmetic.
///
/// Remainder handling for nx % V::width != 0 (still requiring nx % 4 == 0 and
/// nx >= V::width): the last x-group starts at nx - width and overlaps the
/// previous group. The sweep is a pure overwrite of phiDst from unmodified
/// inputs and the bulk decision is per lane, so the overlapped lanes store
/// the same bits again. The tail's x-carry is the previous group's lane
/// before the tail; its y/z lower faces are copied at row start, before the
/// earlier groups of the row overwrite them with their upper faces.

static_assert(N == 4, "rotated phase sums assume four phases");

/// The cellwise laneSum seen from phase a, (q_a + q_{a+1}) + (q_{a+2} + q_{a+3}).
/// IEEE addition commutes exactly, so phases a and a + 2 share one value:
/// sum[a & 1] serves phase a.
inline void rotSums(const V q[N], V sum[2]) {
    sum[0] = (q[0] + q[1]) + (q[2] + q[3]);
    sum[1] = (q[1] + q[2]) + (q[3] + q[0]);
}

/// Face flux for V::width consecutive faces along one axis, per phase a:
/// inputs are per-phase vectors over the cell pairs (cellwise faceFluxV).
inline void faceFluxM(const ModelConsts& mc, const V pL[N], const V pR[N],
                      V flux[N]) {
    const V half = V::broadcast(0.5);
    const V invDx = V::broadcast(mc.invDx);
    V pf[N], dp[N];
    for (int a = 0; a < N; ++a) {
        pf[a] = half * (pL[a] + pR[a]);
        dp[a] = (pR[a] - pL[a]) * invDx;
    }
    for (int a = 0; a < N; ++a) {
        V s = V::zero();
        for (int k = 1; k < N; ++k) {
            const int b = (a + k) & 3;
            s += V::broadcast(mc.gamma[a][b]) * pf[b] *
                 (pf[a] * dp[b] - pf[b] * dp[a]);
        }
        flux[a] = V::broadcast(-2.0 * mc.eps) * s;
    }
}

/// One buffered axis (y or z) of a group: the lower faces are read from
/// \p low (phase stride \p lowStride), or computed when \p first; the upper
/// faces go to \p up (phase stride \p upStride), +0.0 in bulk lanes. Returns
/// the flux differences and the centered gradients.
inline void bufferedAxis(const ModelConsts& mc, const V pC[N], const V pL[N],
                         const V pR[N], typename V::Mask bulk, bool first,
                         const double* low, std::size_t lowStride, double* up,
                         std::size_t upStride, V diff[N], V grad[N]) {
    V fp[N], fm[N];
    faceFluxM(mc, pC, pR, fp);
    if (first) {
        faceFluxM(mc, pL, pC, fm);
    } else {
        for (int a = 0; a < N; ++a) fm[a] = V::loadu(low + a * lowStride);
    }
    const V hx = V::broadcast(mc.halfInvDx);
    for (int a = 0; a < N; ++a) {
        V::blend(bulk, V::zero(), fp[a]).storeu(up + a * upStride);
        diff[a] = fp[a] - fm[a];
        grad[a] = (pR[a] - pL[a]) * hx;
    }
}

/// A vector whose top lane is lane \p j of \p v (other lanes: don't care).
inline V laneToTop(V v, int j) {
    alignas(64) double buf[2 * V::width] = {};
    v.store(buf + V::width);
    return V::loadu(buf + j + 1);
}

inline void loadPhaseM(const Field<double>& f, int x, int y, int z, V out[N]) {
    for (int a = 0; a < N; ++a) out[a] = V::loadu(f.ptr(x, y, z, a));
}

void phiSweepMultiCellBody(SimBlock& blk, const StepContext& ctx) {
    constexpr int W = V::width;
    const ModelConsts& mc = ctx.mc;
    TPF_ASSERT(ctx.tz != nullptr, "multi-cell phi kernel requires a TzCache");
    TPF_ASSERT(blk.phiSrc.layout() == Layout::fzyx,
               "multi-cell vectorization requires the fzyx (SoA) layout");
    TPF_ASSERT(blk.size.x % 4 == 0 && blk.size.x >= W,
               "multi-cell vectorization requires nx divisible by 4 and nx >= width");
    const Field<double>& P = blk.phiSrc;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.phiDst;
    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);
    const V zero = V::zero();
    const V one = V::broadcast(1.0);
    const V invDx = V::broadcast(mc.invDx);
    const V hx = V::broadcast(mc.halfInvDx);

    // Staggered y/z buffers, phase-major with cache-line padded rows:
    // y-faces by cell, z-faces by (y, cell). The x-faces stay in registers:
    // carry[a] holds the previous group's buffered upper faces.
    //
    // Per x-group, a flag (1.0 / 0.0) says whether its buffer slots (the row
    // slots, and the plane slots of each y) hold +0.0 only; an all-bulk group
    // then skips their stores. The tail group's slots overlap the previous
    // group's, but an overlapped cell gets the same value from both groups
    // within a row, so each flag stays exact. The flags share the y-row
    // allocation: every slab sweep allocates its buffers anew, and separate
    // flag vectors raised the solver's peak RSS (prodbench cache-t2).
    const std::size_t sp = (static_cast<std::size_t>(nx) + 7) & ~std::size_t{7};
    const int groups = (nx + W - 1) / W;
    const std::size_t nFlags =
        static_cast<std::size_t>(groups) * (static_cast<std::size_t>(ny) + 1);
    std::vector<double, AlignedAllocator<double>> rowY(N * sp + nFlags, 0.0),
        planeZ(N * sp * static_cast<std::size_t>(ny), 0.0);
    double* const rowZero = rowY.data() + N * sp;
    double* const planeZero = rowZero + groups;
    std::fill(rowZero, rowZero + nFlags, 1.0);
    V carry[N] = {zero, zero, zero, zero};
    const int xTail = nx % W != 0 ? nx - W : -1;
    alignas(64) double tailY[N * W] = {}, tailZ[N * W] = {};

    for (int z = z0; z < z1; ++z) {
        const SliceThermo st = ctx.tz->at(z);
        const V Tt = V::broadcast(st.Tt);
        for (int y = 0; y < ny; ++y) {
            double* const fzRow =
                planeZ.data() + static_cast<std::size_t>(y) * N * sp;
            if (xTail >= 0) {
                for (int a = 0; a < N; ++a) {
                    V::loadu(rowY.data() + a * sp + xTail).store(tailY + a * W);
                    V::loadu(fzRow + a * sp + xTail).store(tailZ + a * W);
                }
            }
            for (int x = 0; x < nx; x += W) {
                const int xx = x + W <= nx ? x : xTail;
                const bool tail = xx != x;
                V pC[N], pW[N], pE[N], pS[N], pNn[N], pB[N], pT[N];
                loadPhaseM(P, xx, y, z, pC);
                loadPhaseM(P, xx - 1, y, z, pW);
                loadPhaseM(P, xx + 1, y, z, pE);
                loadPhaseM(P, xx, y - 1, z, pS);
                loadPhaseM(P, xx, y + 1, z, pNn);
                loadPhaseM(P, xx, y, z - 1, pB);
                loadPhaseM(P, xx, y, z + 1, pT);

                // Per-lane bulk test, the cellwise shortcut condition.
                V::Mask bulk = (pC[0] == one) & (pW[0] == one) &
                               (pE[0] == one) & (pS[0] == one) &
                               (pNn[0] == one) & (pB[0] == one) &
                               (pT[0] == one);
                for (int a = 1; a < N; ++a)
                    bulk = bulk | ((pC[a] == one) & (pW[a] == one) &
                                   (pE[a] == one) & (pS[a] == one) &
                                   (pNn[a] == one) & (pB[a] == one) &
                                   (pT[a] == one));

                double& rz = rowZero[x / W];
                double& pz = planeZero[y * groups + x / W];
                if (bulk.all()) {
                    for (int a = 0; a < N; ++a) {
                        pC[a].storeu(Dst.ptr(xx, y, z, a));
                        carry[a] = zero;
                    }
                    if (rz == 0.0) {
                        for (int a = 0; a < N; ++a)
                            zero.storeu(rowY.data() + a * sp + xx);
                        rz = 1.0;
                    }
                    if (pz == 0.0) {
                        for (int a = 0; a < N; ++a)
                            zero.storeu(fzRow + a * sp + xx);
                        pz = 1.0;
                    }
                    continue;
                }
                rz = 0.0;
                pz = 0.0;

                // Face fluxes axis by axis (short live ranges: register
                // pressure, not memory, bounds this loop). div keeps the
                // cellwise association ((dx + dy) + dz) * invDx.
                V div[N], g0[N], g1[N], g2[N], d[N];
                {
                    V fxp[N];
                    faceFluxM(mc, pC, pE, fxp);
                    if (xx == 0) {
                        V fxm[N];
                        faceFluxM(mc, pW, pC, fxm);
                        for (int a = 0; a < N; ++a)
                            carry[a] = laneToTop(fxm[a], 0);
                    } else if (tail) {
                        // The tail's first cell follows lane
                        // xTail - 1 - (x - W) of the previous group.
                        for (int a = 0; a < N; ++a)
                            carry[a] = laneToTop(carry[a], xTail - 1 - (x - W));
                    }
                    for (int a = 0; a < N; ++a) {
                        const V up = V::blend(bulk, zero, fxp[a]);
                        div[a] = fxp[a] - V::slideUp(up, carry[a]);
                        carry[a] = up;
                        g0[a] = (pE[a] - pW[a]) * hx;
                    }
                }
                bufferedAxis(mc, pC, pS, pNn, bulk, y == 0,
                             tail ? tailY : rowY.data() + xx, tail ? W : sp,
                             rowY.data() + xx, sp, d, g1);
                for (int a = 0; a < N; ++a) div[a] = div[a] + d[a];
                bufferedAxis(mc, pC, pB, pT, bulk, z == z0,
                             tail ? tailZ : fzRow + xx, tail ? W : sp,
                             fzRow + xx, sp, d, g2);
                for (int a = 0; a < N; ++a) div[a] = (div[a] + d[a]) * invDx;

                // da/dphi.
                V dad[N];
                for (int a = 0; a < N; ++a) {
                    V s = V::zero();
                    for (int k = 1; k < N; ++k) {
                        const int b = (a + k) & 3;
                        const V dot =
                            (pC[a] * g0[b] - pC[b] * g0[a]) * g0[b] +
                            (pC[a] * g1[b] - pC[b] * g1[a]) * g1[b] +
                            (pC[a] * g2[b] - pC[b] * g2[a]) * g2[b];
                        s += V::broadcast(mc.gamma[a][b]) * dot;
                    }
                    dad[a] = s * V::broadcast(2.0 * mc.eps);
                }

                // Obstacle: w16 sum gamma phi + gamma3 (P - phi (S - phi)),
                // P = (S^2 - sum phi^2) / 2.
                V p2[N], S[2], s2[2];
                for (int a = 0; a < N; ++a) p2[a] = pC[a] * pC[a];
                rotSums(pC, S);
                rotSums(p2, s2);
                V invS2[2];
                invS2[0] = one / s2[0];
                // s2 >= +0, so equal lanes mean equal bits: one division
                // when the two association orders agree everywhere.
                invS2[1] = (s2[1] == s2[0]).all() ? invS2[0] : one / s2[1];
                V dom[N];
                for (int a = 0; a < N; ++a) {
                    const int b1 = (a + 1) & 3, b2 = (a + 2) & 3,
                              b3 = (a + 3) & 3;
                    const V sumGP = V::broadcast(mc.gamma[a][b1]) * pC[b1] +
                                    V::broadcast(mc.gamma[a][b2]) * pC[b2] +
                                    V::broadcast(mc.gamma[a][b3]) * pC[b3];
                    const V& Sa = S[a & 1];
                    const V Pp = V::broadcast(0.5) * (Sa * Sa - s2[a & 1]);
                    dom[a] = V::broadcast(mc.w16) * sumGP +
                             V::broadcast(mc.gamma3) *
                                 (Pp - pC[a] * (Sa - pC[a]));
                }

                // Driving force.
                const V mux = V::loadu(Mu.ptr(xx, y, z, 0));
                const V muy = V::loadu(Mu.ptr(xx, y, z, 1));
                V om[N], omh[N];
                for (int a = 0; a < N; ++a) {
                    const V quad =
                        V::broadcast(0.5) *
                        (V::broadcast(mc.kinvA[a]) * mux * mux +
                         V::broadcast(2.0 * mc.kinvB[a]) * mux * muy +
                         V::broadcast(mc.kinvD[a]) * muy * muy);
                    om[a] = -quad -
                            (mux * V::broadcast(st.xix[a]) +
                             muy * V::broadcast(st.xiy[a])) +
                            V::broadcast(st.om[a]);
                    omh[a] = om[a] * (p2[a] * invS2[a & 1]);
                }
                V omBar[2];
                rotSums(omh, omBar);

                V rhs[N];
                for (int a = 0; a < N; ++a) {
                    const V dpsi = V::broadcast(2.0) * pC[a] * invS2[a & 1] *
                                   (om[a] - omBar[a & 1]);
                    rhs[a] = Tt * (div[a] - dad[a]) -
                             Tt * V::broadcast(mc.invEps) * dom[a] - dpsi;
                }
                V rhsSum[2];
                rotSums(rhs, rhsSum);
                V prop[N];
                for (int a = 0; a < N; ++a)
                    prop[a] = pC[a] + V::broadcast(mc.dt) *
                                          V::broadcast(mc.invTauEps[a]) *
                                          (rhs[a] - V::broadcast(0.25) *
                                                        rhsSum[a & 1]);

                simd::projectToSimplex4Lanes(prop[0], prop[1], prop[2],
                                             prop[3]);
                for (int a = 0; a < N; ++a)
                    V::blend(bulk, pC[a], prop[a]).storeu(Dst.ptr(xx, y, z, a));
            }
        }
    }
}
