/// \file phi_kernel_cellwise_body.h
/// Width-4 cellwise phi-sweep body (one SIMD vector = the four phases of one
/// cell). NO include guard on purpose: this file is included — possibly
/// several times per program, once per instruction-set target — inside an
/// anonymous namespace, with a `using V = <4-wide vector type>;` alias in
/// scope. Every function below therefore gets internal linkage in each
/// including translation unit, so targets compiled with different ISA flags
/// can never collapse into one symbol (the ODR hazard that rules out vague
/// template linkage here; see docs/KERNELS.md "Runtime dispatch").
///
/// The includer provides (at file scope, before the anonymous namespace):
///   core/kernels.h, core/model_common.h, util/alignment.h, <vector>,
///   and the vector-type header selected for V.
///
/// Cellwise strategy (the paper's fastest choice on 4-wide AVX, Figure 5):
/// pairwise phase terms use lane rotations; branching stays possible per
/// cell, which is what makes the bulk shortcut effective. Variant flags
/// (Figure 6 progression): +T(z) slice cache, +staggered face-flux buffers,
/// +shortcuts. With all three it is the bitwise reference of the production
/// multi-cell body (phi_kernel_multicell_body.h).

static_assert(V::width == 4, "cellwise body packs the 4 phases of one cell");

/// Per-sweep constants in vector form.
struct PhiSimdConsts {
    V gammaRot[3]; ///< gammaRot[k-1] lane a = gamma[a][(a+k)%4]
    V invTauEps;
    V kinvA, kinvB, kinvD;
    double eps, invEps, w16, gamma3, invDx, halfInvDx, dt;

    static PhiSimdConsts build(const ModelConsts& mc) {
        PhiSimdConsts c;
        for (int k = 1; k <= 3; ++k)
            c.gammaRot[k - 1] =
                V::set(mc.gamma[0][(0 + k) % 4], mc.gamma[1][(1 + k) % 4],
                       mc.gamma[2][(2 + k) % 4], mc.gamma[3][(3 + k) % 4]);
        c.invTauEps = V::set(mc.invTauEps[0], mc.invTauEps[1], mc.invTauEps[2],
                             mc.invTauEps[3]);
        c.kinvA = V::set(mc.kinvA[0], mc.kinvA[1], mc.kinvA[2], mc.kinvA[3]);
        c.kinvB = V::set(mc.kinvB[0], mc.kinvB[1], mc.kinvB[2], mc.kinvB[3]);
        c.kinvD = V::set(mc.kinvD[0], mc.kinvD[1], mc.kinvD[2], mc.kinvD[3]);
        c.eps = mc.eps;
        c.invEps = mc.invEps;
        c.w16 = mc.w16;
        c.gamma3 = mc.gamma3;
        c.invDx = mc.invDx;
        c.halfInvDx = mc.halfInvDx;
        c.dt = mc.dt;
        return c;
    }
};

/// Slice thermo values in vector form.
struct SliceVec {
    V xix, xiy, om;
    double Tt;

    static SliceVec from(const SliceThermo& st) {
        SliceVec s;
        s.xix = V::set(st.xix[0], st.xix[1], st.xix[2], st.xix[3]);
        s.xiy = V::set(st.xiy[0], st.xiy[1], st.xiy[2], st.xiy[3]);
        s.om = V::set(st.om[0], st.om[1], st.om[2], st.om[3]);
        s.Tt = st.Tt;
        return s;
    }
};

/// Load the four phases of one cell as a vector (gather for fzyx, contiguous
/// load for zyxf).
template <bool kFzyx>
inline V loadCellPhases(const Field<double>& f, int x, int y, int z) {
    if constexpr (kFzyx) {
        const double* p = f.ptr(x, y, z, 0);
        const std::ptrdiff_t sf = f.fStride();
        return V::set(p[0], p[sf], p[2 * sf], p[3 * sf]);
    } else {
        return V::loadu(f.ptr(x, y, z, 0));
    }
}

template <bool kFzyx>
inline void storeCellPhases(Field<double>& f, int x, int y, int z, V v) {
    if constexpr (kFzyx) {
        double* p = f.ptr(x, y, z, 0);
        alignas(32) double tmp[4];
        v.store(tmp);
        const std::ptrdiff_t sf = f.fStride();
        p[0] = tmp[0];
        p[sf] = tmp[1];
        p[2 * sf] = tmp[2];
        p[3 * sf] = tmp[3];
    } else {
        v.storeu(f.ptr(x, y, z, 0));
    }
}

/// Staggered-face flux of da/dgrad(phi) (normal component), vector over the
/// four phases:
///   flux_a = -2 eps sum_k gammaRot_k[a] pf_{a+k} (pf_a dp_{a+k} - pf_{a+k} dp_a)
inline V faceFluxV(const PhiSimdConsts& sc, V pL, V pR) {
    const V half = V::broadcast(0.5);
    const V invDx = V::broadcast(sc.invDx);
    const V pf = half * (pL + pR);
    const V dp = (pR - pL) * invDx;

    V acc = V::zero();
    {
        const V pfk = pf.rotateLeft1(), dpk = dp.rotateLeft1();
        acc += sc.gammaRot[0] * pfk * (pf * dpk - pfk * dp);
    }
    {
        const V pfk = pf.rotateLeft2(), dpk = dp.rotateLeft2();
        acc += sc.gammaRot[1] * pfk * (pf * dpk - pfk * dp);
    }
    {
        const V pfk = pf.rotateLeft3(), dpk = dp.rotateLeft3();
        acc += sc.gammaRot[2] * pfk * (pf * dpk - pfk * dp);
    }
    return V::broadcast(-2.0 * sc.eps) * acc;
}

/// Sum of all lanes replicated into every lane (per-lane rotation sums).
inline V laneSum(V v) {
    return ((v + v.rotateLeft1()) + (v.rotateLeft2() + v.rotateLeft3()));
}

/// One full cellwise phi update for the cell vectors (pC plus 6 neighbors)
/// and face fluxes; returns the projected phi(t+dt).
inline V cellUpdate(const PhiSimdConsts& sc, const SliceVec& sv, V pC, V pW,
                    V pE, V pS, V pN_, V pB, V pT, V fxm, V fxp, V fym, V fyp,
                    V fzm, V fzp, double mux, double muy) {
    const V invDx = V::broadcast(sc.invDx);
    const V div = (((fxp - fxm) + (fyp - fym)) + (fzp - fzm)) * invDx;

    // Cell-centered gradients.
    const V hx = V::broadcast(sc.halfInvDx);
    const V g0 = (pE - pW) * hx;
    const V g1 = (pN_ - pS) * hx;
    const V g2 = (pT - pB) * hx;

    // da/dphi: 2 eps sum_k gammaRot_k (q . grad_{a+k}).
    V dad = V::zero();
    {
        const V pk = pC.rotateLeft1();
        const V gk0 = g0.rotateLeft1(), gk1 = g1.rotateLeft1(),
                gk2 = g2.rotateLeft1();
        const V dot = (pC * gk0 - pk * g0) * gk0 + (pC * gk1 - pk * g1) * gk1 +
                      (pC * gk2 - pk * g2) * gk2;
        dad += sc.gammaRot[0] * dot;
    }
    {
        const V pk = pC.rotateLeft2();
        const V gk0 = g0.rotateLeft2(), gk1 = g1.rotateLeft2(),
                gk2 = g2.rotateLeft2();
        const V dot = (pC * gk0 - pk * g0) * gk0 + (pC * gk1 - pk * g1) * gk1 +
                      (pC * gk2 - pk * g2) * gk2;
        dad += sc.gammaRot[1] * dot;
    }
    {
        const V pk = pC.rotateLeft3();
        const V gk0 = g0.rotateLeft3(), gk1 = g1.rotateLeft3(),
                gk2 = g2.rotateLeft3();
        const V dot = (pC * gk0 - pk * g0) * gk0 + (pC * gk1 - pk * g1) * gk1 +
                      (pC * gk2 - pk * g2) * gk2;
        dad += sc.gammaRot[2] * dot;
    }
    dad *= V::broadcast(2.0 * sc.eps);

    // Obstacle derivative: w16 sum gamma phi + gamma3 (P - phi (S - phi)).
    const V S = laneSum(pC);
    const V sumGP = sc.gammaRot[0] * pC.rotateLeft1() +
                    sc.gammaRot[1] * pC.rotateLeft2() +
                    sc.gammaRot[2] * pC.rotateLeft3();
    const V p2 = pC * pC;
    const V P = V::broadcast(0.5) * (S * S - laneSum(p2));
    const V dom = V::broadcast(sc.w16) * sumGP +
                  V::broadcast(sc.gamma3) * (P - pC * (S - pC));

    // Driving force from the grand potentials.
    const V s2 = laneSum(p2);
    const V invS2 = V::broadcast(1.0) / s2;
    const V h = p2 * invS2;
    const V vmux = V::broadcast(mux), vmuy = V::broadcast(muy);
    const V quad = V::broadcast(0.5) *
                   (sc.kinvA * vmux * vmux +
                    V::broadcast(2.0) * sc.kinvB * vmux * vmuy +
                    sc.kinvD * vmuy * vmuy);
    const V om = -quad - (vmux * sv.xix + vmuy * sv.xiy) + sv.om;
    const V omBar = laneSum(om * h);
    const V dpsi = V::broadcast(2.0) * pC * invS2 * (om - omBar);

    // Assemble, anti-symmetrize, advance, project.
    const V Tt = V::broadcast(sv.Tt);
    const V rhs = Tt * (div - dad) - Tt * V::broadcast(sc.invEps) * dom - dpsi;
    const V mean = V::broadcast(0.25) * laneSum(rhs);
    V prop = pC + V::broadcast(sc.dt) * sc.invTauEps * (rhs - mean);

    // Scalar projection (bitwise-identical to the scalar kernels; the paper
    // notes this routine branches per cell anyway).
    alignas(32) double tmp[4];
    prop.store(tmp);
    projectToSimplex4(tmp[0], tmp[1], tmp[2], tmp[3]);
    return V::load(tmp);
}

template <bool kFzyx>
void phiSweepCellwiseImpl(SimBlock& blk, const StepContext& ctx, bool useTz,
                          bool useStag, bool shortcuts) {
    const ModelConsts& mc = ctx.mc;
    const PhiSimdConsts sc = PhiSimdConsts::build(mc);
    const Field<double>& P = blk.phiSrc;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.phiDst;
    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);
    const V one = V::broadcast(1.0);

    // Staggered buffers (vector slots, 32-byte strided on a 64-byte base).
    // The z-plane buffer restarts at the slab bottom (z == z0) with the same
    // faceFluxV expression the full sweep would have buffered there.
    std::vector<double, AlignedAllocator<double>> rowY, planeZ;
    if (useStag) {
        rowY.assign(static_cast<std::size_t>(nx) * 4, 0.0);
        planeZ.assign(static_cast<std::size_t>(nx) * ny * 4, 0.0);
    }

    for (int z = z0; z < z1; ++z) {
        SliceThermo st;
        SliceVec sv;
        if (useTz) {
            // T(z) optimization: temperature-dependent values once per slice.
            TPF_ASSERT(ctx.tz != nullptr, "Tz variant requires a cache");
            st = ctx.tz->at(z);
            sv = SliceVec::from(st);
        }
        for (int y = 0; y < ny; ++y) {
            V carryX = V::zero();
            for (int x = 0; x < nx; ++x) {
                if (!useTz) {
                    // "basic" temperature handling: recompute per cell.
                    const double T = ctx.temp->atCell(blk.origin.z + z,
                                                      ctx.time,
                                                      ctx.windowOffset);
                    st = computeSliceThermo(mc, T);
                    sv = SliceVec::from(st);
                }

                const V pC = loadCellPhases<kFzyx>(P, x, y, z);
                const V pW = loadCellPhases<kFzyx>(P, x - 1, y, z);
                const V pE = loadCellPhases<kFzyx>(P, x + 1, y, z);
                const V pS = loadCellPhases<kFzyx>(P, x, y - 1, z);
                const V pN_ = loadCellPhases<kFzyx>(P, x, y + 1, z);
                const V pB = loadCellPhases<kFzyx>(P, x, y, z - 1);
                const V pT = loadCellPhases<kFzyx>(P, x, y, z + 1);

                if (shortcuts) {
                    // Bulk test: some lane equals 1 in the cell and all six
                    // neighbors (exact; cellwise vectorization allows this
                    // per-cell branch).
                    const auto bulk = (pC == one) & (pW == one) & (pE == one) &
                                      (pS == one) & (pN_ == one) &
                                      (pB == one) & (pT == one);
                    if (bulk.any()) {
                        storeCellPhases<kFzyx>(Dst, x, y, z, pC);
                        if (useStag) {
                            carryX = V::zero();
                            V::zero().store(rowY.data() +
                                            static_cast<std::size_t>(x) * 4);
                            V::zero().store(planeZ.data() +
                                            (static_cast<std::size_t>(y) * nx +
                                             x) *
                                                4);
                        }
                        continue;
                    }
                }

                V fxm, fxp, fym, fyp, fzm, fzp;
                if (useStag) {
                    fxm = (x == 0) ? faceFluxV(sc, pW, pC) : carryX;
                    fxp = faceFluxV(sc, pC, pE);
                    carryX = fxp;

                    double* ry = rowY.data() + static_cast<std::size_t>(x) * 4;
                    fym = (y == 0) ? faceFluxV(sc, pS, pC) : V::load(ry);
                    fyp = faceFluxV(sc, pC, pN_);
                    fyp.store(ry);

                    double* pz =
                        planeZ.data() +
                        (static_cast<std::size_t>(y) * nx + x) * 4;
                    fzm = (z == z0) ? faceFluxV(sc, pB, pC) : V::load(pz);
                    fzp = faceFluxV(sc, pC, pT);
                    fzp.store(pz);
                } else {
                    fxm = faceFluxV(sc, pW, pC);
                    fxp = faceFluxV(sc, pC, pE);
                    fym = faceFluxV(sc, pS, pC);
                    fyp = faceFluxV(sc, pC, pN_);
                    fzm = faceFluxV(sc, pB, pC);
                    fzp = faceFluxV(sc, pC, pT);
                }

                const V out = cellUpdate(sc, sv, pC, pW, pE, pS, pN_, pB, pT,
                                         fxm, fxp, fym, fyp, fzm, fzp,
                                         Mu(x, y, z, 0), Mu(x, y, z, 1));
                storeCellPhases<kFzyx>(Dst, x, y, z, out);
            }
        }
    }
}

inline void phiSweepCellwiseBody(SimBlock& b, const StepContext& ctx,
                                 bool useTz, bool useStag, bool shortcuts) {
    if (b.phiSrc.layout() == Layout::fzyx)
        phiSweepCellwiseImpl<true>(b, ctx, useTz, useStag, shortcuts);
    else
        phiSweepCellwiseImpl<false>(b, ctx, useTz, useStag, shortcuts);
}
