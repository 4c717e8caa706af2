#pragma once
/// \file kernel_support.h
/// Shared helpers of the kernel suites: the dispatch-target guard, a
/// byte-level field comparison and the speckled-liquid block.

#include <cstring>

#include "core/kernel_dispatch.h"
#include "core/regions.h"

namespace tpf::test {

/// Restores the startup dispatch choice no matter how a test exits.
struct TargetGuard {
    ~TargetGuard() { core::setKernelTarget("auto"); }
};

/// memcmp, not ==, so a -0.0 where the other field stores +0.0 fails.
inline bool sameBytes(const Field<double>& a, const Field<double>& b) {
    return a.allocSize() == b.allocSize() &&
           std::memcmp(a.data(), b.data(), a.allocSize() * sizeof(double)) == 0;
}

/// Turns isolated interior cells of a liquid block into a liquid/solid mix,
/// so x-groups hold both bulk and non-bulk lanes, and non-bulk lanes read
/// the +0.0 faces their bulk neighbors buffered.
inline void speckle(core::SimBlock& b) {
    using core::LIQ;
    using core::N;
    forEachCell(b.phiSrc.interior(), [&](int x, int y, int z) {
        if ((7 * x + 3 * y + 5 * z) % 11 != 0) return;
        for (int a = 0; a < N; ++a) b.phiSrc(x, y, z, a) = 0.0;
        b.phiSrc(x, y, z, LIQ) = 0.75;
        b.phiSrc(x, y, z, (LIQ + 1) % N) = 0.25;
    });
}

} // namespace tpf::test
