#pragma once
/// \file vec8d_scalar.h
/// Portable scalar backend of the 8-wide double SIMD abstraction. Exactly the
/// same API as the AVX-512 backend; used on architectures without AVX-512 and
/// as the reference implementation in the width-generic SIMD unit tests.
///
/// All arithmetic is per-lane and mirrors vec4d_scalar.h: std::fma where the
/// hardware backend uses a fused instruction, so results agree bitwise with
/// Vec8dAvx512 on every operation (the determinism contract in
/// docs/CORRECTNESS.md extends to width 8 through this file).

#include <cmath>
#include <cstdint>
#include <cstring>

namespace tpf::simd {

struct Vec8dScalar {
    static constexpr int width = 8;

    double v[8];

    /// Boolean lane mask companion type.
    struct Mask {
        bool m[8];

        int bits() const {
            int b = 0;
            for (int i = 0; i < 8; ++i) b |= (m[i] ? 1 : 0) << i;
            return b;
        }
        bool any() const { return bits() != 0; }
        bool all() const { return bits() == 0xFF; }
        bool none() const { return bits() == 0; }
        bool lane(int i) const { return m[i]; }

        Mask operator&(Mask o) const {
            Mask r;
            for (int i = 0; i < 8; ++i) r.m[i] = m[i] && o.m[i];
            return r;
        }
        Mask operator|(Mask o) const {
            Mask r;
            for (int i = 0; i < 8; ++i) r.m[i] = m[i] || o.m[i];
            return r;
        }
        Mask operator!() const {
            Mask r;
            for (int i = 0; i < 8; ++i) r.m[i] = !m[i];
            return r;
        }
    };

    static Vec8dScalar zero() {
        Vec8dScalar r;
        for (double& x : r.v) x = 0.0;
        return r;
    }
    static Vec8dScalar broadcast(double a) {
        Vec8dScalar r;
        for (double& x : r.v) x = a;
        return r;
    }
    static Vec8dScalar set(double a, double b, double c, double d, double e,
                           double f, double g, double h) {
        return {{a, b, c, d, e, f, g, h}};
    }
    static Vec8dScalar load(const double* p) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = p[i];
        return r;
    }
    static Vec8dScalar loadu(const double* p) { return load(p); }

    void store(double* p) const {
        for (int i = 0; i < 8; ++i) p[i] = v[i];
    }
    void storeu(double* p) const { store(p); }

    double lane(int i) const { return v[i]; }

    Vec8dScalar operator+(Vec8dScalar o) const {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = v[i] + o.v[i];
        return r;
    }
    Vec8dScalar operator-(Vec8dScalar o) const {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = v[i] - o.v[i];
        return r;
    }
    Vec8dScalar operator*(Vec8dScalar o) const {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = v[i] * o.v[i];
        return r;
    }
    Vec8dScalar operator/(Vec8dScalar o) const {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = v[i] / o.v[i];
        return r;
    }
    Vec8dScalar operator-() const {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = -v[i];
        return r;
    }

    Vec8dScalar& operator+=(Vec8dScalar o) { return *this = *this + o; }
    Vec8dScalar& operator-=(Vec8dScalar o) { return *this = *this - o; }
    Vec8dScalar& operator*=(Vec8dScalar o) { return *this = *this * o; }

    Mask operator<(Vec8dScalar o) const {
        Mask r;
        for (int i = 0; i < 8; ++i) r.m[i] = v[i] < o.v[i];
        return r;
    }
    Mask operator<=(Vec8dScalar o) const {
        Mask r;
        for (int i = 0; i < 8; ++i) r.m[i] = v[i] <= o.v[i];
        return r;
    }
    Mask operator>(Vec8dScalar o) const { return o < *this; }
    Mask operator>=(Vec8dScalar o) const { return o <= *this; }
    Mask operator==(Vec8dScalar o) const {
        Mask r;
        for (int i = 0; i < 8; ++i) r.m[i] = v[i] == o.v[i];
        return r;
    }
    Mask operator!=(Vec8dScalar o) const { return !(*this == o); }

    /// a*b + c, evaluated with a single rounding where hardware FMA exists.
    /// The scalar backend uses std::fma for lane-wise agreement with AVX-512.
    static Vec8dScalar fmadd(Vec8dScalar a, Vec8dScalar b, Vec8dScalar c) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = std::fma(a.v[i], b.v[i], c.v[i]);
        return r;
    }
    /// a*b - c.
    static Vec8dScalar fmsub(Vec8dScalar a, Vec8dScalar b, Vec8dScalar c) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = std::fma(a.v[i], b.v[i], -c.v[i]);
        return r;
    }

    static Vec8dScalar min(Vec8dScalar a, Vec8dScalar b) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] < b.v[i] ? a.v[i] : b.v[i];
        return r;
    }
    static Vec8dScalar max(Vec8dScalar a, Vec8dScalar b) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = a.v[i] > b.v[i] ? a.v[i] : b.v[i];
        return r;
    }
    static Vec8dScalar abs(Vec8dScalar a) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = std::fabs(a.v[i]);
        return r;
    }
    static Vec8dScalar sqrt(Vec8dScalar a) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = std::sqrt(a.v[i]);
        return r;
    }

    /// Fast approximate 1/sqrt: Lomont seed + 3 Newton steps (same constants
    /// and operation order as the AVX-512 backend and tpf::fastInvSqrt).
    static Vec8dScalar rsqrtFast(Vec8dScalar a) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) {
            std::uint64_t bits;
            std::memcpy(&bits, &a.v[i], sizeof(double));
            bits = 0x5fe6eb50c7b537a9ULL - (bits >> 1);
            double y;
            std::memcpy(&y, &bits, sizeof(double));
            const double xh = 0.5 * a.v[i];
            // fma form matches the AVX-512 backend's fnmadd bitwise.
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            r.v[i] = y;
        }
        return r;
    }

    /// Lanes slide up by one and the top lane of \p carry enters lane 0:
    /// (carry[W-1], cur[0], ..., cur[W-2]).
    static Vec8dScalar slideUp(Vec8dScalar cur, Vec8dScalar carry) {
        Vec8dScalar r;
        r.v[0] = carry.v[7];
        for (int i = 1; i < 8; ++i) r.v[i] = cur.v[i - 1];
        return r;
    }

    /// blend: lane-wise mask ? a : b.
    static Vec8dScalar blend(Mask m, Vec8dScalar a, Vec8dScalar b) {
        Vec8dScalar r;
        for (int i = 0; i < 8; ++i) r.v[i] = m.m[i] ? a.v[i] : b.v[i];
        return r;
    }

    /// Horizontal sum of all lanes, pairwise with the same association as the
    /// AVX-512 backend: ((v0+v1)+(v2+v3)) + ((v4+v5)+(v6+v7)).
    double hsum() const {
        const double a = (v[0] + v[1]) + (v[2] + v[3]);
        const double b = (v[4] + v[5]) + (v[6] + v[7]);
        return a + b;
    }

    /// Horizontal max / min.
    double hmax() const {
        double m = v[0];
        for (int i = 1; i < 8; ++i) m = v[i] > m ? v[i] : m;
        return m;
    }
    double hmin() const {
        double m = v[0];
        for (int i = 1; i < 8; ++i) m = v[i] < m ? v[i] : m;
        return m;
    }
};

} // namespace tpf::simd
