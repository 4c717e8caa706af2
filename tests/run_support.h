#pragma once
/// \file run_support.h
/// Shared fixtures of the run-level suites: a per-process temp directory,
/// whole-file reads, the window-heavy solidify configuration they all pin,
/// and a RunSpec for it, so every suite drives app::run exactly as tpf-sim
/// does.

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>

#include "app/run.h"
#include "core/solver.h"

namespace tpf::test {

struct TempDir {
    std::filesystem::path path;
    explicit TempDir(const std::string& tag) {
        path = std::filesystem::temp_directory_path() /
               ("tpf_" + tag + "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(path);
        std::filesystem::create_directories(path);
    }
    ~TempDir() { std::filesystem::remove_all(path); }
};

inline std::string readAll(const std::filesystem::path& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/// Window-heavy solidify configuration: the solid fill starts far above the
/// window trigger, so the capped shift loop (at most NZ/4 cells per check)
/// drains it across several window checks during the run; the production
/// mu-overlap communication hiding is on. Block z-splits (32, 16, 8) align
/// with the mesh pipeline's kSlabHeight chunk grid.
inline core::SolverConfig windowConfig(int ranks, int threads) {
    core::SolverConfig cfg;
    cfg.globalCells = {16, 16, 32};
    if (ranks > 1) cfg.blockSize = {16, 16, 32 / ranks};
    cfg.threads = threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 12.0;
    cfg.init.fillHeight = 26;
    cfg.window.enabled = true;
    cfg.window.triggerFraction = 0.2; // trigger z = 6.4
    cfg.window.checkEvery = 8;
    cfg.overlapMu = true;
    return cfg;
}

/// A solidify run of \p cfg over \p ranks ranks writing into \p outdir.
inline app::RunSpec runSpec(const core::SolverConfig& cfg, int ranks,
                            int steps, const std::filesystem::path& outdir) {
    app::RunSpec spec;
    spec.cfg = cfg;
    spec.ranks = ranks;
    spec.steps = steps;
    spec.outdir = outdir.string();
    return spec;
}

/// The checkpoint a run writes at global step \p step.
inline std::filesystem::path checkpointDir(const app::RunSpec& spec,
                                           long long step) {
    char name[32];
    std::snprintf(name, sizeof name, "checkpoint_step%06lld", step);
    return std::filesystem::path(spec.outdir) / name;
}

} // namespace tpf::test
