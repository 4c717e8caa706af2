#include "analysis/correlation.h"

#include <algorithm>
#include <cmath>

#include "analysis/lamellae.h" // indicatorPlane: the shared phase threshold
#include "util/assert.h"

namespace tpf::analysis {

namespace {
inline int wrap(int v, int n) { return ((v % n) + n) % n; }

/// \p row extended periodically: ext[j] = row[(j - lo) mod nx] for j in
/// [0, nx + lo + hi), so ext[x + lo + d] = row[(x + d) mod nx] for every
/// x in [0, nx) and lag d in [-lo, hi] — one wrap per row, none per cell.
void extendRow(const unsigned char* row, int nx, int lo, int hi,
               std::vector<unsigned char>& ext) {
    ext.resize(static_cast<std::size_t>(nx + lo + hi));
    int src = wrap(-lo, nx);
    for (unsigned char& e : ext) {
        e = row[src];
        if (++src == nx) src = 0;
    }
}

/// Sum over x < n of f(a[x], b[x]). A row sum is at most 255 * n, so it
/// accumulates in 32 bits, which is what lets the loop vectorize well. Kept
/// out of line: inlined into the loop over lags, GCC vectorizes that outer
/// loop instead (64 lags per vector), the 2 m + 1 lags of a map run on its
/// scalar remainder, and the map measured no faster than the modulo loop
/// this replaces (out of line: about 5x faster).
template <typename Pair>
[[gnu::noinline]] long long rowSum(const unsigned char* a,
                                   const unsigned char* b, int n, Pair f) {
    unsigned sum = 0;
    for (int x = 0; x < n; ++x) sum += f(a[x], b[x]);
    return sum;
}

/// Cells that are both in the phase (nonzero): S2 counts cells, not bits.
inline unsigned bothSet(unsigned char p, unsigned char q) {
    return static_cast<unsigned>(p != 0) & static_cast<unsigned>(q != 0);
}

/// Integer S2 hit counts of one plane, accumulated into \p hits.
void accumulatePlaneHits(const unsigned char* ind, int nx, int ny, int axis,
                         int maxShift, std::vector<long long>& hits) {
    std::vector<unsigned char> ext;
    for (int y = 0; y < ny; ++y) {
        const unsigned char* row = ind + static_cast<std::size_t>(y) * nx;
        if (axis == 0) extendRow(row, nx, 0, maxShift, ext);
        for (int r = 0; r <= maxShift; ++r) {
            const unsigned char* other =
                axis == 0
                    ? ext.data() + r
                    : ind + static_cast<std::size_t>(wrap(y + r, ny)) * nx;
            hits[static_cast<std::size_t>(r)] +=
                rowSum(row, other, nx, bothSet);
        }
    }
}

} // namespace

std::vector<double> twoPointCorrelationPlane(const unsigned char* ind, int nx,
                                             int ny, int axis, int maxShift) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    accumulatePlaneHits(ind, nx, ny, axis, maxShift, hits);

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny);
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

std::vector<double> twoPointCorrelation(const Field<double>& phi, int phase,
                                        int axis, int maxShift, int z0,
                                        int z1) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(z0 >= 0 && z1 < phi.nz() && z0 <= z1, "invalid z slab");
    const int nx = phi.nx(), ny = phi.ny();

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    for (int z = z0; z <= z1; ++z) {
        const auto ind = indicatorPlane(phi, phase, z);
        accumulatePlaneHits(ind.data(), nx, ny, axis, maxShift, hits);
    }

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny * (z1 - z0 + 1));
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

double lamellarSpacingEstimate(const std::vector<double>& s2) {
    // First local minimum then the following local maximum of S2(r): the
    // maximum position approximates the repeat distance of the lamellae.
    // Monotone or constant profiles never complete the descend+ascend
    // pattern and yield 0 = "no estimate" (see the header contract).
    std::size_t i = 1;
    while (i + 1 < s2.size() && s2[i] > s2[i + 1]) ++i; // descend
    std::size_t minPos = i;
    while (i + 1 < s2.size() && s2[i] <= s2[i + 1]) ++i; // ascend
    if (i == minPos || i + 1 >= s2.size()) return 0.0;
    return static_cast<double>(i);
}

std::vector<double> correlationMap2DPlane(const unsigned char* ind, int nx,
                                          int ny, int maxShift) {
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");
    const int side = 2 * maxShift + 1;
    std::vector<double> map(static_cast<std::size_t>(side) * side, 0.0);

    // Modulo-free: the row shift wraps once per (dy, y) and the column
    // shift once per row through the extended row, so every (dx, dy) lag is
    // a contiguous row sum. The counts are integers, so the summation order
    // leaves the map bitwise unchanged.
    const std::size_t lags = static_cast<std::size_t>(side);
    std::vector<long long> hits(lags);
    std::vector<unsigned char> ext;
    const auto bitAnd = [](unsigned char p, unsigned char q) {
        return static_cast<unsigned>(p & q);
    };
    const double cells = static_cast<double>(nx) * ny;
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        std::fill(hits.begin(), hits.end(), 0);
        for (int y = 0; y < ny; ++y) {
            const unsigned char* row = ind + static_cast<std::size_t>(y) * nx;
            extendRow(ind + static_cast<std::size_t>(wrap(y + dy, ny)) * nx,
                      nx, maxShift, maxShift, ext);
            for (std::size_t k = 0; k < lags; ++k)
                hits[k] += rowSum(row, ext.data() + k, nx, bitAnd);
        }
        for (std::size_t k = 0; k < lags; ++k)
            map[static_cast<std::size_t>(dy + maxShift) * lags + k] =
                static_cast<double>(hits[k]) / cells;
    }
    return map;
}

std::vector<double> correlationMap2D(const Field<double>& phi, int phase,
                                     int z, int maxShift) {
    const auto ind = indicatorPlane(phi, phase, z);
    return correlationMap2DPlane(ind.data(), phi.nx(), phi.ny(), maxShift);
}

CorrelationPca correlationPca(const std::vector<double>& map, int maxShift) {
    const int side = 2 * maxShift + 1;
    TPF_ASSERT(static_cast<int>(map.size()) == side * side,
               "correlation map size mismatch");

    // Background-subtract (uncorrelated level = fraction^2 ~ far-field value)
    // and clamp negatives so the weights form a density over lag vectors.
    const double center = map[static_cast<std::size_t>(maxShift) * side +
                              maxShift]; // = phase fraction
    const double background = center * center;

    double w = 0.0;
    Mat2 M;
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        for (int dx = -maxShift; dx <= maxShift; ++dx) {
            const double c =
                map[static_cast<std::size_t>(dy + maxShift) * side +
                    (dx + maxShift)] -
                background;
            if (c <= 0.0) continue;
            w += c;
            M += Mat2{static_cast<double>(dx) * dx, static_cast<double>(dx) * dy,
                      static_cast<double>(dx) * dy, static_cast<double>(dy) * dy} *
                 c;
        }
    }
    CorrelationPca out;
    if (w <= 0.0) return out;
    M = M * (1.0 / w);
    const auto ev = M.symEigenvalues();
    out.lambdaMinor = ev[0];
    out.lambdaMajor = ev[1];
    out.axisMajor = M.symEigenvector(ev[1]);
    return out;
}

} // namespace tpf::analysis
