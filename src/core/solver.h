#pragma once
/// \file solver.h
/// The directional-solidification solver: owns the block forest, per-block
/// fields, ghost-exchange schemes, boundary conditions, temperature, moving
/// window and time loop, and executes the paper's Algorithm 1 (plain) or
/// Algorithm 2 (communication hiding).
///
/// Boundary setup (paper Figure 2): periodic in x and y, Neumann at the
/// bottom (solid), Dirichlet at the top (fresh melt at the eutectic chemical
/// potential), analytic temperature gradient moving in +z.

#include <array>
#include <memory>
#include <vector>

#include "comm/exchange.h"
#include "core/boundary.h"
#include "core/kernels.h"
#include "core/moving_window.h"
#include "core/regions.h"
#include "core/slab_sweep.h"
#include "core/timeloop.h"
#include "core/voronoi.h"
#include "thermo/agalcu.h"
#include "util/thread_pool.h"
#include "vmpi/comm.h"

namespace tpf::core {

struct SolverConfig {
    Int3 globalCells{48, 48, 96};
    /// Block size; {0,0,0} means a single block spanning the whole domain
    /// (serial runs). Multi-rank runs need at least one block per rank.
    Int3 blockSize{0, 0, 0};
    std::array<bool, 3> periodic{true, true, false};

    Layout phiLayout = Layout::fzyx;
    Layout muLayout = Layout::fzyx;

    ModelParams model = ModelParams::defaults();

    PhiKernelKind phiKernel = PhiKernelKind::SimdTzStagCut;
    MuKernelKind muKernel = MuKernelKind::SimdTzStagCut;

    /// Hide the mu ghost exchange behind the phi-sweep (Algorithm 2); false
    /// runs Algorithm 1. Both schedules are bitwise identical. The phi
    /// exchange is never hidden: the mu-sweep reads phi_dst ghosts, so hiding
    /// it needs a split mu-sweep whose second pass costs more than the
    /// communication it hides. The paper concludes so (Fig. 8: mu-only hiding
    /// is the fastest), and so did bench_fig8_comm_overlap on a 4-core Xeon
    /// (40^3 blocks, 2 and 4 ranks, thread and shm transports, 5 runs each):
    /// phi+mu hiding was slower per step than mu-only hiding in 17 of 20
    /// runs, by 6-23% in the median.
    bool overlapMu = false;

    /// Intra-rank threads for the kernel/boundary/window sweeps (hybrid
    /// ranks x threads mode). 1 = serial rank. Results are bitwise
    /// independent of this value — see core/slab_sweep.h.
    int threads = 1;

    VoronoiConfig init;
    MovingWindowConfig window;
};

class Solver {
public:
    /// \param comm communicator (nullptr: serial, single rank).
    Solver(SolverConfig cfg, vmpi::Comm* comm = nullptr);

    /// Voronoi fill, initial communication and boundary handling.
    void initialize();

    /// One time step (Algorithm 1, or Algorithm 2 with cfg.overlapMu).
    void step();
    void run(int steps);

    // --- diagnostics (collective calls: all ranks must participate) ---

    /// Global mean of each order parameter.
    std::array<double, N> phaseFractions();
    /// Mean of the solid fractions normalized over solids only (excluding
    /// liquid); matches thermo::LeverFractions when solidification finished.
    std::array<double, 3> solidFractions();
    /// Highest global z that contains solid (front position), -1 if none.
    int frontPosition();
    /// Global extrema of |mu - muEut| (diagnostic for stability tests).
    double maxMuDeviation();

    // --- accessors ---
    double time() const { return time_; }
    double windowOffsetCells() const { return windowOffset_; }
    long long stepsDone() const { return loop_.steps(); }
    const BlockForest& forest() const { return bf_; }
    std::vector<std::unique_ptr<SimBlock>>& localBlocks() { return blocks_; }
    const std::vector<std::unique_ptr<SimBlock>>& localBlocks() const {
        return blocks_;
    }
    const SolverConfig& config() const { return cfg_; }
    const thermo::TernarySystem& system() const { return sys_; }
    const FrozenTemperature& temperature() const { return temp_; }
    Timeloop& timeloop() { return loop_; }
    GhostExchange& phiExchange() { return *phiEx_; }
    GhostExchange& muExchange() { return *muEx_; }
    vmpi::Comm* comm() { return comm_; }
    /// Intra-rank sweep pool (nullptr when cfg.threads == 1). Shared with
    /// post-step observers so in-situ work — e.g. the mesh-extraction
    /// pipeline — fans out over the same workers as the kernel sweeps.
    util::ThreadPool* pool() { return pool_.get(); }

    /// Restore state (used by checkpointing): fields are assumed loaded;
    /// re-synchronizes ghosts and sets the clocks *and* the timeloop step
    /// counter (step-keyed cadences like the window check must resume, not
    /// restart, for a restarted run to replay an uninterrupted one exactly).
    void restore(double time, double windowOffset, long long steps = 0);

    /// Check the moving-window trigger and shift if needed (also called
    /// automatically every window.checkEvery steps when enabled).
    void maybeShiftWindow();

    /// Register a named functor that runs at the end of every time step,
    /// after the ping-pong swap — it sees the completed step's phiSrc/muSrc
    /// and the already-advanced time(). \p fn receives the global
    /// completed-step count *including* the step just finished, so cadences
    /// keyed on it resume correctly across a checkpoint restart (the counter
    /// is restored by restore()). In multi-rank runs every rank must
    /// register the same hooks in the same order; a hook performing
    /// collectives (e.g. the in-situ analysis pipeline) relies on that. The
    /// callee must outlive the solver's stepping.
    void addPostStepHook(const std::string& name,
                         std::function<void(long long)> fn);

private:
    void buildTimeloop();
    void communicateAll(); ///< full ghost sync + boundary handling of src fields
    StepContext makeContext(std::size_t blockSlot) const;
    /// Slab-parallel phi/mu sweep of one block (serial when pool_ is null).
    void sweepPhi(std::size_t blockSlot, SimBlock& b);
    void sweepMu(std::size_t blockSlot, SimBlock& b);

    SolverConfig cfg_;
    vmpi::Comm* comm_;
    thermo::TernarySystem sys_;
    BlockForest bf_;
    FrozenTemperature temp_;

    std::vector<std::unique_ptr<SimBlock>> blocks_;
    std::vector<TzCache> tz_;
    std::unique_ptr<util::ThreadPool> pool_; ///< created when cfg.threads > 1

    std::unique_ptr<GhostExchange> phiEx_; ///< on phiDst (D3C19)
    std::unique_ptr<GhostExchange> muEx_;  ///< on muDst/muSrc (D3C7)

    FieldBCs phiBC_, muBC_;
    Timeloop loop_;

    double time_ = 0.0;
    double windowOffset_ = 0.0;
    bool initialized_ = false;
};

} // namespace tpf::core
