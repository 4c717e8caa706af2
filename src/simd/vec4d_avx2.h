#pragma once
/// \file vec4d_avx2.h
/// AVX2 backend of the 4-wide double SIMD abstraction. Thin wrappers over
/// intrinsics; every member is expected to inline to one or two instructions
/// (the paper verified the same property for its abstraction layer by manual
/// assembler inspection — here the SIMD unit tests plus benchmark MLUP/s serve
/// that purpose).

#if defined(__AVX2__)

#include <immintrin.h>

namespace tpf::simd {

struct Vec4dAvx2 {
    static constexpr int width = 4;

    __m256d v;

    struct Mask {
        __m256d m; // all-ones (as double bit pattern) where true

        int bits() const { return _mm256_movemask_pd(m); }
        bool any() const { return bits() != 0; }
        bool all() const { return bits() == 0xF; }
        bool none() const { return bits() == 0; }
        bool lane(int i) const { return (bits() >> i) & 1; }

        Mask operator&(Mask o) const { return {_mm256_and_pd(m, o.m)}; }
        Mask operator|(Mask o) const { return {_mm256_or_pd(m, o.m)}; }
        Mask operator!() const {
            return {_mm256_xor_pd(m, _mm256_castsi256_pd(_mm256_set1_epi64x(-1)))};
        }
    };

    static Vec4dAvx2 zero() { return {_mm256_setzero_pd()}; }
    static Vec4dAvx2 broadcast(double a) { return {_mm256_set1_pd(a)}; }
    static Vec4dAvx2 set(double a, double b, double c, double d) {
        return {_mm256_setr_pd(a, b, c, d)};
    }
    static Vec4dAvx2 load(const double* p) { return {_mm256_load_pd(p)}; }
    static Vec4dAvx2 loadu(const double* p) { return {_mm256_loadu_pd(p)}; }

    void store(double* p) const { _mm256_store_pd(p, v); }
    void storeu(double* p) const { _mm256_storeu_pd(p, v); }

    double lane(int i) const {
        alignas(32) double tmp[4];
        _mm256_store_pd(tmp, v);
        return tmp[i];
    }

    Vec4dAvx2 operator+(Vec4dAvx2 o) const { return {_mm256_add_pd(v, o.v)}; }
    Vec4dAvx2 operator-(Vec4dAvx2 o) const { return {_mm256_sub_pd(v, o.v)}; }
    Vec4dAvx2 operator*(Vec4dAvx2 o) const { return {_mm256_mul_pd(v, o.v)}; }
    Vec4dAvx2 operator/(Vec4dAvx2 o) const { return {_mm256_div_pd(v, o.v)}; }
    Vec4dAvx2 operator-() const {
        return {_mm256_xor_pd(v, _mm256_set1_pd(-0.0))};
    }

    Vec4dAvx2& operator+=(Vec4dAvx2 o) { return *this = *this + o; }
    Vec4dAvx2& operator-=(Vec4dAvx2 o) { return *this = *this - o; }
    Vec4dAvx2& operator*=(Vec4dAvx2 o) { return *this = *this * o; }

    Mask operator<(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_LT_OQ)};
    }
    Mask operator<=(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_LE_OQ)};
    }
    Mask operator>(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_GT_OQ)};
    }
    Mask operator>=(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_GE_OQ)};
    }
    Mask operator==(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_EQ_OQ)};
    }
    Mask operator!=(Vec4dAvx2 o) const {
        return {_mm256_cmp_pd(v, o.v, _CMP_NEQ_UQ)};
    }

    static Vec4dAvx2 fmadd(Vec4dAvx2 a, Vec4dAvx2 b, Vec4dAvx2 c) {
        return {_mm256_fmadd_pd(a.v, b.v, c.v)};
    }
    static Vec4dAvx2 fmsub(Vec4dAvx2 a, Vec4dAvx2 b, Vec4dAvx2 c) {
        return {_mm256_fmsub_pd(a.v, b.v, c.v)};
    }

    static Vec4dAvx2 min(Vec4dAvx2 a, Vec4dAvx2 b) {
        return {_mm256_min_pd(a.v, b.v)};
    }
    static Vec4dAvx2 max(Vec4dAvx2 a, Vec4dAvx2 b) {
        return {_mm256_max_pd(a.v, b.v)};
    }
    static Vec4dAvx2 abs(Vec4dAvx2 a) {
        return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
    }
    static Vec4dAvx2 sqrt(Vec4dAvx2 a) { return {_mm256_sqrt_pd(a.v)}; }

    /// Fast approximate 1/sqrt — Lomont integer seed on all four lanes plus
    /// three Newton steps, matching the scalar backend's arithmetic exactly.
    static Vec4dAvx2 rsqrtFast(Vec4dAvx2 a) {
        const __m256i magic = _mm256_set1_epi64x(0x5fe6eb50c7b537a9LL);
        __m256i bits = _mm256_castpd_si256(a.v);
        bits = _mm256_sub_epi64(magic, _mm256_srli_epi64(bits, 1));
        __m256d y = _mm256_castsi256_pd(bits);
        const __m256d xh = _mm256_mul_pd(_mm256_set1_pd(0.5), a.v);
        const __m256d c15 = _mm256_set1_pd(1.5);
        for (int k = 0; k < 3; ++k) {
            // t = 1.5 - xh*y*y with a single rounding (fnmadd), matching the
            // std::fma form of tpf::fastInvSqrt bitwise.
            const __m256d yy = _mm256_mul_pd(y, y);
            const __m256d t = _mm256_fnmadd_pd(xh, yy, c15);
            y = _mm256_mul_pd(y, t);
        }
        return {y};
    }

    static Vec4dAvx2 blend(Mask m, Vec4dAvx2 a, Vec4dAvx2 b) {
        return {_mm256_blendv_pd(b.v, a.v, m.m)};
    }

    Vec4dAvx2 rotateLeft1() const {
        return {_mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 3, 2, 1))};
    }
    Vec4dAvx2 rotateLeft2() const {
        return {_mm256_permute4x64_pd(v, _MM_SHUFFLE(1, 0, 3, 2))};
    }
    Vec4dAvx2 rotateLeft3() const {
        return {_mm256_permute4x64_pd(v, _MM_SHUFFLE(2, 1, 0, 3))};
    }

    /// Lanes slide up by one and the top lane of \p carry enters lane 0:
    /// (carry[W-1], cur[0], ..., cur[W-2]).
    static Vec4dAvx2 slideUp(Vec4dAvx2 cur, Vec4dAvx2 carry) {
        // (carry2, carry3, cur0, cur1), then pick (carry3, cur0, cur1, cur2).
        const __m256d mid = _mm256_permute2f128_pd(carry.v, cur.v, 0x21);
        return {_mm256_shuffle_pd(mid, cur.v, 0b0101)};
    }

    Vec4dAvx2 reverse() const {
        return {_mm256_permute4x64_pd(v, _MM_SHUFFLE(0, 1, 2, 3))};
    }

    double hsum() const {
        // (v0+v1, v2+v3) then add the two halves -> same association as scalar.
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        const __m128d l = _mm_hadd_pd(lo, lo);  // v0+v1
        const __m128d h = _mm_hadd_pd(hi, hi);  // v2+v3
        return _mm_cvtsd_f64(_mm_add_sd(l, h));
    }

    double hmax() const {
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        const __m128d m = _mm_max_pd(lo, hi);
        return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
    }
    double hmin() const {
        const __m128d lo = _mm256_castpd256_pd128(v);
        const __m128d hi = _mm256_extractf128_pd(v, 1);
        const __m128d m = _mm_min_pd(lo, hi);
        return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
    }
};

} // namespace tpf::simd

#endif // __AVX2__
