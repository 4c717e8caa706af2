#pragma once
/// \file vec8d_avx512.h
/// AVX-512 backend of the 8-wide double SIMD abstraction. Same API surface as
/// Vec8dScalar; every member is expected to inline to one or two instructions.
/// Masks use the dedicated __mmask8 opmask registers rather than all-ones
/// double patterns — blend maps to the masked-move form.

#if defined(__AVX512F__)

#include <immintrin.h>

namespace tpf::simd {

struct Vec8dAvx512 {
    static constexpr int width = 8;
    static constexpr __mmask8 kAll = 0xFF;

    __m512d v;

    struct Mask {
        __mmask8 m; // one bit per lane

        int bits() const { return static_cast<int>(m); }
        bool any() const { return bits() != 0; }
        bool all() const { return bits() == 0xFF; }
        bool none() const { return bits() == 0; }
        bool lane(int i) const { return (bits() >> i) & 1; }

        Mask operator&(Mask o) const {
            return {static_cast<__mmask8>(m & o.m)};
        }
        Mask operator|(Mask o) const {
            return {static_cast<__mmask8>(m | o.m)};
        }
        Mask operator!() const { return {static_cast<__mmask8>(~m)}; }
    };

    static Vec8dAvx512 zero() { return {_mm512_setzero_pd()}; }
    static Vec8dAvx512 broadcast(double a) { return {_mm512_set1_pd(a)}; }
    static Vec8dAvx512 set(double a, double b, double c, double d, double e,
                           double f, double g, double h) {
        return {_mm512_setr_pd(a, b, c, d, e, f, g, h)};
    }
    static Vec8dAvx512 load(const double* p) { return {_mm512_load_pd(p)}; }
    static Vec8dAvx512 loadu(const double* p) { return {_mm512_loadu_pd(p)}; }

    void store(double* p) const { _mm512_store_pd(p, v); }
    void storeu(double* p) const { _mm512_storeu_pd(p, v); }

    double lane(int i) const {
        alignas(64) double tmp[8];
        _mm512_store_pd(tmp, v);
        return tmp[i];
    }

    Vec8dAvx512 operator+(Vec8dAvx512 o) const { return {_mm512_add_pd(v, o.v)}; }
    Vec8dAvx512 operator-(Vec8dAvx512 o) const { return {_mm512_sub_pd(v, o.v)}; }
    Vec8dAvx512 operator*(Vec8dAvx512 o) const { return {_mm512_mul_pd(v, o.v)}; }
    Vec8dAvx512 operator/(Vec8dAvx512 o) const { return {_mm512_div_pd(v, o.v)}; }
    Vec8dAvx512 operator-() const {
        // Sign-bit flip through the integer domain: _mm512_xor_pd needs
        // AVX512DQ, which this target deliberately does not enable (see
        // src/core/kernel_targets/kernels_avx512.cpp); the si512 xor is plain
        // AVX512F and produces the identical bit pattern.
        const __m512i sign =
            _mm512_set1_epi64(static_cast<long long>(0x8000000000000000ULL));
        return {_mm512_castsi512_pd(
            _mm512_xor_si512(_mm512_castpd_si512(v), sign))};
    }

    Vec8dAvx512& operator+=(Vec8dAvx512 o) { return *this = *this + o; }
    Vec8dAvx512& operator-=(Vec8dAvx512 o) { return *this = *this - o; }
    Vec8dAvx512& operator*=(Vec8dAvx512 o) { return *this = *this * o; }

    Mask operator<(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_LT_OQ)};
    }
    Mask operator<=(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_LE_OQ)};
    }
    Mask operator>(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_GT_OQ)};
    }
    Mask operator>=(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_GE_OQ)};
    }
    Mask operator==(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_EQ_OQ)};
    }
    Mask operator!=(Vec8dAvx512 o) const {
        return {_mm512_cmp_pd_mask(v, o.v, _CMP_NEQ_UQ)};
    }

    static Vec8dAvx512 fmadd(Vec8dAvx512 a, Vec8dAvx512 b, Vec8dAvx512 c) {
        return {_mm512_fmadd_pd(a.v, b.v, c.v)};
    }
    static Vec8dAvx512 fmsub(Vec8dAvx512 a, Vec8dAvx512 b, Vec8dAvx512 c) {
        return {_mm512_fmsub_pd(a.v, b.v, c.v)};
    }

    // min/max/alignr use the all-lanes maskz forms: GCC builds the plain
    // intrinsics on _mm512_undefined_* and, once inlined, can trip
    // -Wuninitialized (GCC PR105593, as in rsqrtFast below); the results are
    // identical.
    static Vec8dAvx512 min(Vec8dAvx512 a, Vec8dAvx512 b) {
        return {_mm512_maskz_min_pd(kAll, a.v, b.v)};
    }
    static Vec8dAvx512 max(Vec8dAvx512 a, Vec8dAvx512 b) {
        return {_mm512_maskz_max_pd(kAll, a.v, b.v)};
    }
    static Vec8dAvx512 abs(Vec8dAvx512 a) { return {_mm512_abs_pd(a.v)}; }
    static Vec8dAvx512 sqrt(Vec8dAvx512 a) { return {_mm512_sqrt_pd(a.v)}; }

    /// Fast approximate 1/sqrt — Lomont integer seed on all eight lanes plus
    /// three Newton steps, matching the scalar backend's arithmetic exactly.
    static Vec8dAvx512 rsqrtFast(Vec8dAvx512 a) {
        const __m512i magic = _mm512_set1_epi64(0x5fe6eb50c7b537a9LL);
        __m512i bits = _mm512_castpd_si512(a.v);
        // maskz_srli (merge source = zero) over plain srli: GCC's srli is
        // built on _mm512_undefined_epi32 and trips -Wmaybe-uninitialized
        // when inlined (GCC PR105593); the all-ones mask makes them equal.
        bits = _mm512_sub_epi64(
            magic, _mm512_maskz_srli_epi64(kAll, bits, 1));
        __m512d y = _mm512_castsi512_pd(bits);
        const __m512d xh = _mm512_mul_pd(_mm512_set1_pd(0.5), a.v);
        const __m512d c15 = _mm512_set1_pd(1.5);
        for (int k = 0; k < 3; ++k) {
            // t = 1.5 - xh*y*y with a single rounding (fnmadd), matching the
            // std::fma form of tpf::fastInvSqrt bitwise.
            const __m512d yy = _mm512_mul_pd(y, y);
            const __m512d t = _mm512_fnmadd_pd(xh, yy, c15);
            y = _mm512_mul_pd(y, t);
        }
        return {y};
    }

    /// Lanes slide up by one and the top lane of \p carry enters lane 0:
    /// (carry[W-1], cur[0], ..., cur[W-2]).
    static Vec8dAvx512 slideUp(Vec8dAvx512 cur, Vec8dAvx512 carry) {
        return {_mm512_castsi512_pd(_mm512_maskz_alignr_epi64(
            kAll, _mm512_castpd_si512(cur.v), _mm512_castpd_si512(carry.v), 7))};
    }

    static Vec8dAvx512 blend(Mask m, Vec8dAvx512 a, Vec8dAvx512 b) {
        return {_mm512_mask_blend_pd(m.m, b.v, a.v)};
    }

    /// Horizontal sum of all lanes, pairwise with the same association as the
    /// scalar backend: ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
    double hsum() const {
        alignas(64) double tmp[8];
        _mm512_store_pd(tmp, v);
        const double a = (tmp[0] + tmp[1]) + (tmp[2] + tmp[3]);
        const double b = (tmp[4] + tmp[5]) + (tmp[6] + tmp[7]);
        return a + b;
    }

    /// Horizontal max / min.
    double hmax() const { return _mm512_reduce_max_pd(v); }
    double hmin() const { return _mm512_reduce_min_pd(v); }
};

} // namespace tpf::simd

#endif // __AVX512F__
