#pragma once
/// \file vec4d_sse2.h
/// SSE2 backend of the 4-wide double abstraction: two __m128d halves per
/// logical vector. This mirrors the paper's portability layer, where "not
/// all functions of this API directly map to a single intrinsic function ...
/// for each instruction set" — permutes and blends that are single AVX2
/// instructions are emulated here with two or more SSE operations, and fmadd
/// falls back to scalar std::fma per lane to keep the rounding semantics of
/// the other backends (SSE2 has no FMA).

#if defined(__SSE2__) || defined(_M_X64)

#include <emmintrin.h>

#include <cmath>
#include <cstdint>
#include <cstring>

namespace tpf::simd {

struct Vec4dSse2 {
    static constexpr int width = 4;

    __m128d lo; ///< lanes 0, 1
    __m128d hi; ///< lanes 2, 3

    struct Mask {
        __m128d lo, hi;

        int bits() const {
            return _mm_movemask_pd(lo) | (_mm_movemask_pd(hi) << 2);
        }
        bool any() const { return bits() != 0; }
        bool all() const { return bits() == 0xF; }
        bool none() const { return bits() == 0; }
        bool lane(int i) const { return (bits() >> i) & 1; }

        Mask operator&(Mask o) const {
            return {_mm_and_pd(lo, o.lo), _mm_and_pd(hi, o.hi)};
        }
        Mask operator|(Mask o) const {
            return {_mm_or_pd(lo, o.lo), _mm_or_pd(hi, o.hi)};
        }
        Mask operator!() const {
            const __m128d ones =
                _mm_castsi128_pd(_mm_set1_epi64x(-1));
            return {_mm_xor_pd(lo, ones), _mm_xor_pd(hi, ones)};
        }
    };

    static Vec4dSse2 zero() {
        return {_mm_setzero_pd(), _mm_setzero_pd()};
    }
    static Vec4dSse2 broadcast(double a) {
        return {_mm_set1_pd(a), _mm_set1_pd(a)};
    }
    static Vec4dSse2 set(double a, double b, double c, double d) {
        return {_mm_setr_pd(a, b), _mm_setr_pd(c, d)};
    }
    static Vec4dSse2 load(const double* p) {
        return {_mm_load_pd(p), _mm_load_pd(p + 2)};
    }
    static Vec4dSse2 loadu(const double* p) {
        return {_mm_loadu_pd(p), _mm_loadu_pd(p + 2)};
    }

    void store(double* p) const {
        _mm_store_pd(p, lo);
        _mm_store_pd(p + 2, hi);
    }
    void storeu(double* p) const {
        _mm_storeu_pd(p, lo);
        _mm_storeu_pd(p + 2, hi);
    }

    double lane(int i) const {
        alignas(16) double tmp[4];
        store(tmp);
        return tmp[i];
    }

    Vec4dSse2 operator+(Vec4dSse2 o) const {
        return {_mm_add_pd(lo, o.lo), _mm_add_pd(hi, o.hi)};
    }
    Vec4dSse2 operator-(Vec4dSse2 o) const {
        return {_mm_sub_pd(lo, o.lo), _mm_sub_pd(hi, o.hi)};
    }
    Vec4dSse2 operator*(Vec4dSse2 o) const {
        return {_mm_mul_pd(lo, o.lo), _mm_mul_pd(hi, o.hi)};
    }
    Vec4dSse2 operator/(Vec4dSse2 o) const {
        return {_mm_div_pd(lo, o.lo), _mm_div_pd(hi, o.hi)};
    }
    Vec4dSse2 operator-() const {
        const __m128d sign = _mm_set1_pd(-0.0);
        return {_mm_xor_pd(lo, sign), _mm_xor_pd(hi, sign)};
    }

    Vec4dSse2& operator+=(Vec4dSse2 o) { return *this = *this + o; }
    Vec4dSse2& operator-=(Vec4dSse2 o) { return *this = *this - o; }
    Vec4dSse2& operator*=(Vec4dSse2 o) { return *this = *this * o; }

    Mask operator<(Vec4dSse2 o) const {
        return {_mm_cmplt_pd(lo, o.lo), _mm_cmplt_pd(hi, o.hi)};
    }
    Mask operator<=(Vec4dSse2 o) const {
        return {_mm_cmple_pd(lo, o.lo), _mm_cmple_pd(hi, o.hi)};
    }
    Mask operator>(Vec4dSse2 o) const {
        return {_mm_cmpgt_pd(lo, o.lo), _mm_cmpgt_pd(hi, o.hi)};
    }
    Mask operator>=(Vec4dSse2 o) const {
        return {_mm_cmpge_pd(lo, o.lo), _mm_cmpge_pd(hi, o.hi)};
    }
    Mask operator==(Vec4dSse2 o) const {
        return {_mm_cmpeq_pd(lo, o.lo), _mm_cmpeq_pd(hi, o.hi)};
    }
    Mask operator!=(Vec4dSse2 o) const {
        return {_mm_cmpneq_pd(lo, o.lo), _mm_cmpneq_pd(hi, o.hi)};
    }

    /// No FMA instruction in SSE2: emulate with scalar std::fma per lane so
    /// all backends round identically (slow path — the production target is
    /// AVX2; this backend exists for portability, like the paper's SSE2).
    static Vec4dSse2 fmadd(Vec4dSse2 a, Vec4dSse2 b, Vec4dSse2 c) {
        alignas(16) double ta[4], tb[4], tc[4];
        a.store(ta);
        b.store(tb);
        c.store(tc);
        for (int i = 0; i < 4; ++i) ta[i] = std::fma(ta[i], tb[i], tc[i]);
        return load(ta);
    }
    static Vec4dSse2 fmsub(Vec4dSse2 a, Vec4dSse2 b, Vec4dSse2 c) {
        return fmadd(a, b, -c);
    }

    static Vec4dSse2 min(Vec4dSse2 a, Vec4dSse2 b) {
        return {_mm_min_pd(a.lo, b.lo), _mm_min_pd(a.hi, b.hi)};
    }
    static Vec4dSse2 max(Vec4dSse2 a, Vec4dSse2 b) {
        return {_mm_max_pd(a.lo, b.lo), _mm_max_pd(a.hi, b.hi)};
    }
    static Vec4dSse2 abs(Vec4dSse2 a) {
        const __m128d sign = _mm_set1_pd(-0.0);
        return {_mm_andnot_pd(sign, a.lo), _mm_andnot_pd(sign, a.hi)};
    }
    static Vec4dSse2 sqrt(Vec4dSse2 a) {
        return {_mm_sqrt_pd(a.lo), _mm_sqrt_pd(a.hi)};
    }

    /// Lomont seed + 3 Newton steps with std::fma lane-wise (matches the
    /// scalar helper and the AVX2 fnmadd form bitwise).
    static Vec4dSse2 rsqrtFast(Vec4dSse2 a) {
        alignas(16) double t[4];
        a.store(t);
        for (int i = 0; i < 4; ++i) {
            std::uint64_t bits;
            std::memcpy(&bits, &t[i], sizeof(double));
            bits = 0x5fe6eb50c7b537a9ULL - (bits >> 1);
            double y;
            std::memcpy(&y, &bits, sizeof(double));
            const double xh = 0.5 * t[i];
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            t[i] = y;
        }
        return load(t);
    }

    static Vec4dSse2 blend(Mask m, Vec4dSse2 a, Vec4dSse2 b) {
        // SSE2 has no blendv: and/andnot/or emulation (2+ instructions per
        // half — the emulation cost the paper's API hides).
        return {_mm_or_pd(_mm_and_pd(m.lo, a.lo), _mm_andnot_pd(m.lo, b.lo)),
                _mm_or_pd(_mm_and_pd(m.hi, a.hi), _mm_andnot_pd(m.hi, b.hi))};
    }

    /// Cross-half rotations need shuffles of both halves in SSE2.
    Vec4dSse2 rotateLeft1() const {
        // (a,b,c,d) -> (b,c,d,a)
        return {_mm_shuffle_pd(lo, hi, 0b01),  // (b, c)
                _mm_shuffle_pd(hi, lo, 0b01)}; // (d, a)
    }
    Vec4dSse2 rotateLeft2() const { return {hi, lo}; }
    Vec4dSse2 rotateLeft3() const {
        // (a,b,c,d) -> (d,a,b,c)
        return {_mm_shuffle_pd(hi, lo, 0b01),  // (d, a)
                _mm_shuffle_pd(lo, hi, 0b01)}; // (b, c)
    }

    /// Lanes slide up by one and the top lane of \p carry enters lane 0:
    /// (carry[W-1], cur[0], ..., cur[W-2]).
    static Vec4dSse2 slideUp(Vec4dSse2 cur, Vec4dSse2 carry) {
        return {_mm_shuffle_pd(carry.hi, cur.lo, 0b01),  // (carry3, cur0)
                _mm_shuffle_pd(cur.lo, cur.hi, 0b01)};   // (cur1, cur2)
    }

    Vec4dSse2 reverse() const {
        return {_mm_shuffle_pd(hi, hi, 0b01), _mm_shuffle_pd(lo, lo, 0b01)};
    }

    double hsum() const {
        // ((v0+v1) + (v2+v3)) — same association as the other backends.
        const __m128d l = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
        const __m128d h = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
        return _mm_cvtsd_f64(_mm_add_sd(l, h));
    }
    double hmax() const {
        const __m128d m = _mm_max_pd(lo, hi);
        return _mm_cvtsd_f64(_mm_max_sd(m, _mm_unpackhi_pd(m, m)));
    }
    double hmin() const {
        const __m128d m = _mm_min_pd(lo, hi);
        return _mm_cvtsd_f64(_mm_min_sd(m, _mm_unpackhi_pd(m, m)));
    }
};

} // namespace tpf::simd

#endif // __SSE2__
