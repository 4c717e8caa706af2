#pragma once
/// \file vec4d_scalar.h
/// Portable scalar backend of the 4-wide double SIMD abstraction. Exactly the
/// same API as the AVX2 backend; used on architectures without AVX2 and as the
/// reference implementation in the SIMD unit tests.

#include <cmath>
#include <cstdint>
#include <cstring>

namespace tpf::simd {

struct Vec4dScalar {
    static constexpr int width = 4;

    double v[4];

    /// Boolean lane mask companion type.
    struct Mask {
        bool m[4];

        bool any() const { return m[0] || m[1] || m[2] || m[3]; }
        bool all() const { return m[0] && m[1] && m[2] && m[3]; }
        bool none() const { return !any(); }
        bool lane(int i) const { return m[i]; }

        Mask operator&(Mask o) const {
            return {{m[0] && o.m[0], m[1] && o.m[1], m[2] && o.m[2], m[3] && o.m[3]}};
        }
        Mask operator|(Mask o) const {
            return {{m[0] || o.m[0], m[1] || o.m[1], m[2] || o.m[2], m[3] || o.m[3]}};
        }
        Mask operator!() const { return {{!m[0], !m[1], !m[2], !m[3]}}; }
    };

    static Vec4dScalar zero() { return {{0.0, 0.0, 0.0, 0.0}}; }
    static Vec4dScalar broadcast(double a) { return {{a, a, a, a}}; }
    static Vec4dScalar set(double a, double b, double c, double d) {
        return {{a, b, c, d}};
    }
    static Vec4dScalar load(const double* p) { return {{p[0], p[1], p[2], p[3]}}; }
    static Vec4dScalar loadu(const double* p) { return load(p); }

    void store(double* p) const {
        p[0] = v[0];
        p[1] = v[1];
        p[2] = v[2];
        p[3] = v[3];
    }
    void storeu(double* p) const { store(p); }

    double lane(int i) const { return v[i]; }

    Vec4dScalar operator+(Vec4dScalar o) const {
        return {{v[0] + o.v[0], v[1] + o.v[1], v[2] + o.v[2], v[3] + o.v[3]}};
    }
    Vec4dScalar operator-(Vec4dScalar o) const {
        return {{v[0] - o.v[0], v[1] - o.v[1], v[2] - o.v[2], v[3] - o.v[3]}};
    }
    Vec4dScalar operator*(Vec4dScalar o) const {
        return {{v[0] * o.v[0], v[1] * o.v[1], v[2] * o.v[2], v[3] * o.v[3]}};
    }
    Vec4dScalar operator/(Vec4dScalar o) const {
        return {{v[0] / o.v[0], v[1] / o.v[1], v[2] / o.v[2], v[3] / o.v[3]}};
    }
    Vec4dScalar operator-() const { return {{-v[0], -v[1], -v[2], -v[3]}}; }

    Vec4dScalar& operator+=(Vec4dScalar o) { return *this = *this + o; }
    Vec4dScalar& operator-=(Vec4dScalar o) { return *this = *this - o; }
    Vec4dScalar& operator*=(Vec4dScalar o) { return *this = *this * o; }

    Mask operator<(Vec4dScalar o) const {
        return {{v[0] < o.v[0], v[1] < o.v[1], v[2] < o.v[2], v[3] < o.v[3]}};
    }
    Mask operator<=(Vec4dScalar o) const {
        return {{v[0] <= o.v[0], v[1] <= o.v[1], v[2] <= o.v[2], v[3] <= o.v[3]}};
    }
    Mask operator>(Vec4dScalar o) const { return o < *this; }
    Mask operator>=(Vec4dScalar o) const { return o <= *this; }
    Mask operator==(Vec4dScalar o) const {
        return {{v[0] == o.v[0], v[1] == o.v[1], v[2] == o.v[2], v[3] == o.v[3]}};
    }
    Mask operator!=(Vec4dScalar o) const { return !(*this == o); }

    /// a*b + c, evaluated with a single rounding where hardware FMA exists.
    /// The scalar backend uses std::fma for lane-wise agreement with AVX2.
    static Vec4dScalar fmadd(Vec4dScalar a, Vec4dScalar b, Vec4dScalar c) {
        return {{std::fma(a.v[0], b.v[0], c.v[0]), std::fma(a.v[1], b.v[1], c.v[1]),
                 std::fma(a.v[2], b.v[2], c.v[2]), std::fma(a.v[3], b.v[3], c.v[3])}};
    }
    /// a*b - c.
    static Vec4dScalar fmsub(Vec4dScalar a, Vec4dScalar b, Vec4dScalar c) {
        return {{std::fma(a.v[0], b.v[0], -c.v[0]), std::fma(a.v[1], b.v[1], -c.v[1]),
                 std::fma(a.v[2], b.v[2], -c.v[2]),
                 std::fma(a.v[3], b.v[3], -c.v[3])}};
    }

    static Vec4dScalar min(Vec4dScalar a, Vec4dScalar b) {
        return {{a.v[0] < b.v[0] ? a.v[0] : b.v[0], a.v[1] < b.v[1] ? a.v[1] : b.v[1],
                 a.v[2] < b.v[2] ? a.v[2] : b.v[2],
                 a.v[3] < b.v[3] ? a.v[3] : b.v[3]}};
    }
    static Vec4dScalar max(Vec4dScalar a, Vec4dScalar b) {
        return {{a.v[0] > b.v[0] ? a.v[0] : b.v[0], a.v[1] > b.v[1] ? a.v[1] : b.v[1],
                 a.v[2] > b.v[2] ? a.v[2] : b.v[2],
                 a.v[3] > b.v[3] ? a.v[3] : b.v[3]}};
    }
    static Vec4dScalar abs(Vec4dScalar a) {
        return {{std::fabs(a.v[0]), std::fabs(a.v[1]), std::fabs(a.v[2]),
                 std::fabs(a.v[3])}};
    }
    static Vec4dScalar sqrt(Vec4dScalar a) {
        return {{std::sqrt(a.v[0]), std::sqrt(a.v[1]), std::sqrt(a.v[2]),
                 std::sqrt(a.v[3])}};
    }

    /// Fast approximate 1/sqrt: Lomont seed + 3 Newton steps (same constants
    /// and operation order as the AVX2 backend and tpf::fastInvSqrt).
    static Vec4dScalar rsqrtFast(Vec4dScalar a) {
        Vec4dScalar r;
        for (int i = 0; i < 4; ++i) {
            std::uint64_t bits;
            std::memcpy(&bits, &a.v[i], sizeof(double));
            bits = 0x5fe6eb50c7b537a9ULL - (bits >> 1);
            double y;
            std::memcpy(&y, &bits, sizeof(double));
            const double xh = 0.5 * a.v[i];
            // fma form matches the AVX2 backend's fnmadd bitwise.
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            y = y * std::fma(-xh, y * y, 1.5);
            r.v[i] = y;
        }
        return r;
    }

    /// blend: lane-wise mask ? a : b.
    static Vec4dScalar blend(Mask m, Vec4dScalar a, Vec4dScalar b) {
        return {{m.m[0] ? a.v[0] : b.v[0], m.m[1] ? a.v[1] : b.v[1],
                 m.m[2] ? a.v[2] : b.v[2], m.m[3] ? a.v[3] : b.v[3]}};
    }

    /// Rotate lanes left by one: (a,b,c,d) -> (b,c,d,a).
    /// Used by the cellwise phi-kernel for terms indexing single phases.
    Vec4dScalar rotateLeft1() const { return {{v[1], v[2], v[3], v[0]}}; }
    Vec4dScalar rotateLeft2() const { return {{v[2], v[3], v[0], v[1]}}; }
    Vec4dScalar rotateLeft3() const { return {{v[3], v[0], v[1], v[2]}}; }

    /// Lanes slide up by one and the top lane of \p carry enters lane 0:
    /// (carry[W-1], cur[0], ..., cur[W-2]).
    static Vec4dScalar slideUp(Vec4dScalar cur, Vec4dScalar carry) {
        return {{carry.v[3], cur.v[0], cur.v[1], cur.v[2]}};
    }

    /// Reverse lanes: (a,b,c,d) -> (d,c,b,a).
    Vec4dScalar reverse() const { return {{v[3], v[2], v[1], v[0]}}; }

    /// Horizontal sum of all lanes.
    double hsum() const { return (v[0] + v[1]) + (v[2] + v[3]); }

    /// Horizontal max / min.
    double hmax() const {
        const double a = v[0] > v[1] ? v[0] : v[1];
        const double b = v[2] > v[3] ? v[2] : v[3];
        return a > b ? a : b;
    }
    double hmin() const {
        const double a = v[0] < v[1] ? v[0] : v[1];
        const double b = v[2] < v[3] ? v[2] : v[3];
        return a < b ? a : b;
    }
};

} // namespace tpf::simd
