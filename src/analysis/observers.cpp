#include "analysis/observers.h"

#include <algorithm>

#include "analysis/correlation.h"
#include "analysis/lamellae.h"
#include "core/moving_window.h"
#include "core/solver.h"
#include "util/assert.h"

namespace tpf::analysis {

namespace {

// Column names below spell the solid phases out as s0..s2 and the liquid
// explicitly; keep that mapping in sync with the model's phase indices.
static_assert(core::N == 4 && core::LIQ == 3,
              "observer columns assume 3 solid phases and a trailing liquid");

class FractionsObserver final : public Observer {
public:
    const char* name() const override { return "fractions"; }

    std::vector<std::string> columns() const override {
        return {"frac_s0",  "frac_s1",  "frac_s2",  "frac_liq",
                "sfrac_s0", "sfrac_s1", "sfrac_s2", "front_z"};
    }

    std::vector<double> sample(const SampleContext& ctx) override {
        const auto planeSums =
            gatherPlaneSums(*ctx.blocks, *ctx.forest, ctx.comm);
        if (!ctx.isRoot()) return {};

        // Accumulate planes in ascending z — the canonical order that makes
        // the total independent of the decomposition (see gather.h).
        std::array<double, core::N> total{};
        for (const auto& p : planeSums)
            for (int a = 0; a < core::N; ++a)
                total[static_cast<std::size_t>(a)] +=
                    p[static_cast<std::size_t>(a)];

        const Int3 g = ctx.forest->globalCells();
        const double invCells =
            1.0 / (static_cast<double>(g.x) * g.y * g.z);
        std::array<double, core::N> frac{};
        for (int a = 0; a < core::N; ++a)
            frac[static_cast<std::size_t>(a)] =
                total[static_cast<std::size_t>(a)] * invCells;

        const double solid = frac[0] + frac[1] + frac[2];
        std::array<double, 3> sfrac{};
        if (solid > 0.0)
            for (int a = 0; a < 3; ++a)
                sfrac[static_cast<std::size_t>(a)] =
                    frac[static_cast<std::size_t>(a)] / solid;

        return {frac[0],  frac[1],  frac[2],  frac[3],
                sfrac[0], sfrac[1], sfrac[2],
                static_cast<double>(ctx.frontZ)};
    }
};

class LamellaObserver final : public Observer {
public:
    const char* name() const override { return "lamellae"; }

    std::vector<std::string> columns() const override {
        std::vector<std::string> c;
        for (int a = 0; a < 3; ++a) {
            const std::string s = std::to_string(a);
            c.push_back("lam_count_s" + s);
            c.push_back("lam_splits_s" + s);
            c.push_back("lam_merges_s" + s);
        }
        return c;
    }

    std::vector<double> sample(const SampleContext& ctx) override {
        std::vector<double> out;
        if (ctx.frontZ < 0) {
            // All liquid: nothing to label, and every rank agrees on frontZ
            // (collective max), so skipping the gathers stays collective.
            if (ctx.isRoot()) out.assign(9, 0.0);
            return out;
        }
        const Int3 g = ctx.forest->globalCells();
        const int zMid = ctx.frontZ / 2;
        for (int phase = 0; phase < 3; ++phase) {
            const auto planes = gatherIndicatorPlanes(
                *ctx.blocks, *ctx.forest, ctx.comm, phase, 0, ctx.frontZ);
            if (!ctx.isRoot()) continue;
            const LamellaStats st = analyzeLamellaePlanes(planes, g.x, g.y);
            out.push_back(static_cast<double>(
                st.countPerSlice[static_cast<std::size_t>(zMid)]));
            out.push_back(static_cast<double>(st.splits));
            out.push_back(static_cast<double>(st.merges));
        }
        return out;
    }
};

class CorrelationObserver final : public Observer {
public:
    const char* name() const override { return "correlation"; }

    std::vector<std::string> columns() const override {
        std::vector<std::string> c;
        for (int a = 0; a < 3; ++a) {
            const std::string s = std::to_string(a);
            c.push_back("s2_spacing_x_s" + s);
            c.push_back("s2_spacing_y_s" + s);
            c.push_back("pca_aniso_s" + s);
        }
        return c;
    }

    std::vector<double> sample(const SampleContext& ctx) override {
        std::vector<double> out;
        if (ctx.frontZ < 0) {
            if (ctx.isRoot()) out.assign(9, 0.0);
            return out;
        }
        const Int3 g = ctx.forest->globalCells();
        const int zRef = ctx.frontZ / 2; // mid-solid reference slice
        const int pcaShift = std::max(1, std::min(g.x, g.y) / 4);
        for (int phase = 0; phase < 3; ++phase) {
            const auto planes = gatherIndicatorPlanes(
                *ctx.blocks, *ctx.forest, ctx.comm, phase, zRef, zRef);
            if (!ctx.isRoot()) continue;
            const unsigned char* ind = planes.front().data();
            const auto s2x =
                twoPointCorrelationPlane(ind, g.x, g.y, /*axis=*/0, g.x / 2);
            const auto s2y =
                twoPointCorrelationPlane(ind, g.x, g.y, /*axis=*/1, g.y / 2);
            const auto map = correlationMap2DPlane(ind, g.x, g.y, pcaShift);
            const CorrelationPca pca = correlationPca(map, pcaShift);
            out.push_back(lamellarSpacingEstimate(s2x));
            out.push_back(lamellarSpacingEstimate(s2y));
            out.push_back(pca.anisotropy());
        }
        return out;
    }
};

} // namespace

std::unique_ptr<Observer> makeFractionsObserver() {
    return std::make_unique<FractionsObserver>();
}
std::unique_ptr<Observer> makeLamellaObserver() {
    return std::make_unique<LamellaObserver>();
}
std::unique_ptr<Observer> makeCorrelationObserver() {
    return std::make_unique<CorrelationObserver>();
}

const std::vector<std::string>& observerNames() {
    static const std::vector<std::string> names{"fractions", "lamellae",
                                                "correlation"};
    return names;
}

std::unique_ptr<Observer> makeObserver(const std::string& name) {
    if (name == "fractions") return makeFractionsObserver();
    if (name == "lamellae") return makeLamellaObserver();
    if (name == "correlation") return makeCorrelationObserver();
    return nullptr;
}

void Pipeline::add(std::unique_ptr<Observer> obs) {
    TPF_ASSERT(obs != nullptr, "null observer");
    obs_.push_back(std::move(obs));
}

std::vector<std::string> Pipeline::columns() const {
    std::vector<std::string> cols{"time", "window_offset"};
    for (const auto& o : obs_)
        for (auto& c : o->columns()) cols.push_back(std::move(c));
    return cols;
}

void Pipeline::createCsv(const std::string& path) {
    csv_.create(path, kAnalysisCsvTag, kAnalysisCsvVersion, columns());
}

void Pipeline::resumeCsv(const std::string& path, long long lastStep) {
    csv_.resume(path, kAnalysisCsvTag, kAnalysisCsvVersion, columns(),
                lastStep, kAnalysisCsvFlags);
}

void Pipeline::sample(core::Solver& solver, long long step) {
    SampleContext ctx;
    ctx.blocks = &solver.localBlocks();
    ctx.forest = &solver.forest();
    ctx.comm = solver.comm();
    ctx.step = step;
    ctx.time = solver.time();
    ctx.windowOffset = solver.windowOffsetCells();

    // Shared collective front search (exact: integer max over ranks).
    int front = core::localSolidFrontZ(solver.localBlocks());
    if (ctx.comm != nullptr && ctx.comm->size() > 1)
        front = static_cast<int>(
            ctx.comm->allreduceMax(static_cast<double>(front)));
    ctx.frontZ = front;

    std::vector<double> row{ctx.time, ctx.windowOffset};
    for (auto& o : obs_) {
        std::vector<double> v = o->sample(ctx);
        if (ctx.isRoot()) {
            TPF_ASSERT(v.size() == o->columns().size(),
                       "observer returned the wrong number of values");
            row.insert(row.end(), v.begin(), v.end());
        }
    }
    if (ctx.isRoot() && csv_.isOpen()) csv_.writeRow(step, row);
}

void Pipeline::attach(core::Solver& solver, int every) {
    TPF_ASSERT(every > 0, "analysis cadence must be positive");
    solver.addPostStepHook("analysis", [this, &solver, every](long long step) {
        if (step % every == 0) sample(solver, step);
    });
}

} // namespace tpf::analysis
