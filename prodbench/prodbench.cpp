/// \file prodbench.cpp
/// One repeat of a production-step benchmark workload: builds the production
/// core::Solver for a Voronoi-seeded solidify run (moving window on, mu
/// communication hiding, split schedule, auto kernel dispatch), steps it
/// through the public API and prints one JSON record as the last line of
/// stdout. run.py drives the repeats, checks correctness and turns the
/// records into metrics; README.md maps the numbers to layers.
///
/// Modes:
///   --mode reference  untimed 1 rank x 1 thread run of the same cells, seed
///                     and steps without in-situ hooks; its field digest is
///                     what every timed repeat must reproduce bitwise
///   --mode run        the workload as configured. --trace adds bench-side
///                     per-step snapshots of the public layer timers
///                     (Timeloop::timings, GhostExchange timers) and the
///                     cross-rank layer attribution; --calibrate (with
///                     --trace) then times single layers on the final state:
///                     kernels, slab fan-out, transport, one-shot I/O and
///                     the host (STREAM triad, peak FLOP/s)
///   --mode host       host fingerprint with STREAM triad and peak FLOP/s

#include <cpuid.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "app/cli.h"
#include "core/kernel_dispatch.h"
#include "core/slab_sweep.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "obs/fanout.h"
#include "obs/run_obs.h"
#include "perf/flops.h"
#include "perf/perf.h"
#include "perf/roofline.h"
#include "perf/streambench.h"
#include "vmpi/comm.h"

namespace {

using namespace tpf;
namespace fs = std::filesystem;

constexpr double kMiB = 1024.0 * 1024.0;

struct Spec {
    Int3 cells{64, 64, 128};
    int ranks = 1;
    int threads = 1;
    int steps = 10;
    int analyzeEvery = 0;    ///< in-situ analysis cadence (0: none in the loop)
    int meshEvery = 0;       ///< in-situ mesh cadence (0: none in the loop)
    int checkpointEvery = 0; ///< checkpoint cadence (0: none in the loop)
    std::uint64_t seed = 42;
    std::string out;
    bool trace = false;
    bool calibrate = false;
};

/// Flat JSON object writer; keys and string values are plain ASCII names.
class Json {
public:
    void num(const std::string& key, double v) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        add(key, std::isfinite(v) ? buf : "null");
    }
    void str(const std::string& key, const std::string& v) {
        add(key, "\"" + v + "\"");
    }
    void raw(const std::string& key, const std::string& v) { add(key, v); }
    std::string text() const { return "{" + body_ + "}"; }

private:
    void add(const std::string& key, const std::string& v) {
        if (!body_.empty()) body_ += ", ";
        body_ += "\"" + key + "\": " + v;
    }
    std::string body_;
};

double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median seconds per call of \p fn after one warm-up call: at least
/// \p minCalls calls and \p minSeconds of timed work.
template <typename Fn>
double medianSeconds(Fn&& fn, int minCalls = 3, double minSeconds = 0.3) {
    fn();
    std::vector<double> t;
    const double t0 = perf::now();
    while (static_cast<int>(t.size()) < minCalls ||
           perf::now() - t0 < minSeconds) {
        const double a = perf::now();
        fn();
        t.push_back(perf::now() - a);
    }
    return median(t);
}

core::SolverConfig solverConfig(const Spec& s) {
    core::SolverConfig cfg;
    cfg.globalCells = s.cells;
    cfg.threads = s.threads;
    // tpf-sim's solidify defaults: G = 0.5 K/cell and v = 0.02 cells/time
    // (0.0002 cells/step at dt = 0.01), the isotherm at 3/8 and the Voronoi
    // fill at 3/16 of the height — the window is checked but never shifts.
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = 0.375 * s.cells.z;
    cfg.init.fillHeight = 3 * s.cells.z / 16;
    cfg.init.seed = s.seed;
    cfg.window.enabled = true;
    cfg.overlapMu = true;
    if (s.ranks > 1)
        cfg.blockSize = {s.cells.x, s.cells.y, s.cells.z / s.ranks};
    return cfg;
}

// --- field digest -----------------------------------------------------------

/// Digest of one global z-plane of the interior source fields: every phi and
/// mu value of the plane (y, x, then component), so equal digests mean
/// bitwise equal planes for any rank decomposition.
struct PlaneDigest {
    std::int64_t z = 0;
    std::uint64_t hash = 0;
    std::int64_t nonFinite = 0;
};

std::uint64_t mix(std::uint64_t h, std::uint64_t bits) {
    h ^= bits;
    h *= 0x100000001b3ULL;
    return h ^ (h >> 29);
}

std::uint64_t bitsOf(double v) {
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

std::vector<PlaneDigest> localDigests(const core::Solver& solver) {
    std::vector<PlaneDigest> planes;
    const Int3 global = solver.config().globalCells;
    for (const auto& b : solver.localBlocks()) {
        TPF_ASSERT(b->size.x == global.x && b->size.y == global.y,
                   "the digest needs z-slab blocks spanning x and y");
        for (int z = 0; z < b->size.z; ++z) {
            PlaneDigest d;
            d.z = b->origin.z + z;
            d.hash = 0xcbf29ce484222325ULL;
            for (int y = 0; y < b->size.y; ++y)
                for (int x = 0; x < b->size.x; ++x) {
                    for (int a = 0; a < core::N; ++a) {
                        const double v = b->phiSrc(x, y, z, a);
                        d.hash = mix(d.hash, bitsOf(v));
                        d.nonFinite += std::isfinite(v) ? 0 : 1;
                    }
                    for (int c = 0; c < core::KC; ++c) {
                        const double v = b->muSrc(x, y, z, c);
                        d.hash = mix(d.hash, bitsOf(v));
                        d.nonFinite += std::isfinite(v) ? 0 : 1;
                    }
                }
            planes.push_back(d);
        }
    }
    return planes;
}

struct Digest {
    std::uint64_t hash = 0;
    long long nonFinite = 0;
};

/// Combine plane digests in global z order (valid on \p planes' owner).
Digest combine(std::vector<PlaneDigest> planes) {
    std::sort(planes.begin(), planes.end(),
              [](const PlaneDigest& a, const PlaneDigest& b) { return a.z < b.z; });
    Digest d{0xcbf29ce484222325ULL, 0};
    for (const PlaneDigest& p : planes) {
        d.hash = mix(d.hash, p.hash);
        d.nonFinite += p.nonFinite;
    }
    return d;
}

/// Collective: digest of the global source fields, valid on root.
Digest globalDigest(const core::Solver& solver, vmpi::Comm* comm) {
    std::vector<PlaneDigest> planes = localDigests(solver);
    if (comm != nullptr && comm->size() > 1) {
        std::vector<std::byte> mine(planes.size() * sizeof(PlaneDigest));
        std::memcpy(mine.data(), planes.data(), mine.size());
        const auto all = comm->gatherAllBytes(mine);
        planes.clear();
        for (const auto& blob : all) {
            const std::size_t n = blob.size() / sizeof(PlaneDigest);
            const std::size_t at = planes.size();
            planes.resize(at + n);
            std::memcpy(planes.data() + at, blob.data(), n * sizeof(PlaneDigest));
        }
        if (!comm->isRoot()) return {};
    }
    TPF_ASSERT(static_cast<int>(planes.size()) == solver.config().globalCells.z,
               "the digest must cover every global z-plane once");
    return combine(std::move(planes));
}

std::string hex(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// --- host -------------------------------------------------------------------

std::string cpuModel() {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i)
        if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                         &regs[4 * i + 2], &regs[4 * i + 3]))
            return "unknown";
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s;
    for (const char c : std::string(brand))
        if (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') s += c;
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first, last - first + 1);
}

struct Host {
    double l3MiB = 0.0;
    double streamMiB = 0.0; ///< size of each STREAM array
    double triadGBs = 0.0;  ///< 1 thread, 1e9 bytes/s
    double triadGiBs = 0.0;
    double peakGflops = 0.0; ///< 1 core
};

/// STREAM triad (1 thread, each array four times the L3) and peak FLOP/s of
/// one core, measured back to back.
Host measureHost() {
    Host h;
    const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
    h.l3MiB = l3 > 0 ? static_cast<double>(l3) / kMiB : 0.0;
    h.streamMiB = std::max(64.0, std::ceil(4.0 * h.l3MiB));
    const perf::StreamResult st = perf::runStream(static_cast<int>(h.streamMiB), 1);
    h.triadGiBs = st.triadGiBs;
    h.triadGBs = st.triadGiBs * kMiB * 1024.0 / 1e9;
    h.peakGflops = perf::measurePeakGflopsPerCore();
    return h;
}

std::string hostJson(const Host& h) {
    Json j;
    j.str("cpu_model", cpuModel());
    j.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
    j.num("l3_mib", h.l3MiB);
    j.str("kernel_target", core::activeKernelTarget()->name);
    j.num("kernel_width", core::activeKernelTarget()->width);
    j.num("stream_array_mib", h.streamMiB);
    j.num("stream_triad_gbs", h.triadGBs);
    j.num("peak_gflops_1core", h.peakGflops);
    return j.text();
}

// --- one repeat -------------------------------------------------------------

/// What root reports for one repeat.
struct Record {
    double setupS = 0.0;
    double loopS = 0.0;
    std::vector<double> stepMs;
    Digest digest;
    bool srcIntact = true; ///< calibration left the source fields untouched
    std::vector<std::pair<std::string, double>> layers;
    void layer(const std::string& name, double v) { layers.emplace_back(name, v); }
};

struct CrossRank {
    double mean = 0.0;
    double max = 0.0;
};

/// Collective: mean and max of \p v over ranks (valid on root).
CrossRank crossRank(vmpi::Comm* comm, double v) {
    if (comm == nullptr || comm->size() == 1) return {v, v};
    const std::vector<double> all = comm->gather(v);
    if (all.empty()) return {};
    CrossRank r;
    for (const double x : all) {
        r.mean += x;
        r.max = std::max(r.max, x);
    }
    r.mean /= static_cast<double>(all.size());
    return r;
}

bool isCommFunctor(const std::string& name) {
    return name == "mu-comm-start" || name == "mu-comm-wait" ||
           name == "phi-comm" || name == "mu-comm" ||
           name == "phi-comm-start" || name == "phi-comm-wait";
}

double bytesUnder(const fs::path& dir, const std::string& ext) {
    double bytes = 0.0;
    if (!fs::exists(dir)) return 0.0;
    for (const auto& e : fs::recursive_directory_iterator(dir))
        if (e.is_regular_file() && (ext.empty() || e.path().extension() == ext))
            bytes += static_cast<double>(e.file_size());
    return bytes;
}

/// Per-step bench-side spans: cumulative Timeloop functor seconds and
/// checkpoint seconds snapshotted after every step, written out once the
/// loop ended (rank 0) as one CSV row per step.
class StepTrace {
public:
    StepTrace(core::Solver& solver, int steps)
        : nf_(solver.timeloop().timings().size()),
          snaps_((static_cast<std::size_t>(steps) + 1) * (nf_ + 1), 0.0) {}

    void snapshot(core::Solver& solver, int step, double ckptS) {
        const auto& t = solver.timeloop().timings();
        double* row = &snaps_[(static_cast<std::size_t>(step) + 1) * (nf_ + 1)];
        for (std::size_t i = 0; i < nf_; ++i) row[i] = t[i].seconds;
        row[nf_] = ckptS;
    }

    void write(core::Solver& solver, const std::vector<double>& stepMs,
               const std::string& path) const {
        std::ofstream f(path);
        f << "step,wall_ms";
        for (const auto& t : solver.timeloop().timings()) f << ',' << t.name << "_ms";
        f << ",checkpoint_ms\n";
        for (std::size_t k = 0; k < stepMs.size(); ++k) {
            f << k + 1 << ',' << stepMs[k];
            const double* prev = &snaps_[k * (nf_ + 1)];
            const double* cur = prev + (nf_ + 1);
            for (std::size_t i = 0; i <= nf_; ++i) f << ',' << (cur[i] - prev[i]) * 1e3;
            f << '\n';
        }
    }

private:
    std::size_t nf_;
    std::vector<double> snaps_;
};

/// Root only: production kernels called directly on root's first block in
/// its final state, one thread, over the production slab partition; then
/// the same sweeps fanned out through the solver's pool with a timing
/// lambda per slab. The kernels write only the destination fields.
void kernelLayers(core::Solver& solver, const Host& host, Record& rec) {
    core::SimBlock& b = *solver.localBlocks().front();
    const core::SolverConfig& cfg = solver.config();
    core::StepContext ctx;
    ctx.mc = core::ModelConsts::build(cfg.model, solver.system());
    core::TzCache tz;
    tz.build(ctx.mc, solver.temperature(), b.origin.z, b.size.z, solver.time(),
             solver.windowOffsetCells());
    ctx.tz = &tz;
    ctx.temp = &solver.temperature();
    ctx.time = solver.time();
    ctx.windowOffset = solver.windowOffsetCells();
    const CellInterval whole{0, 0, 0, b.size.x - 1, b.size.y - 1, b.size.z - 1};
    const std::vector<CellInterval> slabs = core::slabPartition(whole);

    auto phiSlab = [&](const CellInterval& sl) {
        core::runPhiKernel(cfg.phiKernel, b, ctx.forSlab(sl));
    };
    auto muSlab = [&](const CellInterval& sl) {
        core::runMuKernel(cfg.muKernel, b, ctx.forSlab(sl), core::MuSweepPart::Full);
    };
    const double phiS = medianSeconds([&] {
        for (const auto& sl : slabs) phiSlab(sl);
    });
    const double muS = medianSeconds([&] {
        for (const auto& sl : slabs) muSlab(sl);
    });
    const double cells = static_cast<double>(b.numCells());
    const double phiMlups = cells / phiS / 1e6;
    const double muMlups = cells / muS / 1e6;
    rec.layer("core.kernel.phi_mlups_1t", phiMlups);
    rec.layer("core.kernel.mu_mlups_1t", muMlups);
    rec.layer("core.kernel.phi_gflops", phiMlups * perf::kPhiFlopsPerCell / 1e3);
    rec.layer("core.kernel.mu_gflops", muMlups * perf::kMuFlopsPerCell / 1e3);
    rec.layer("core.kernel.mu_gbs", muMlups * perf::kMuBytesPerCell / 1e3);
    perf::RooflineInput in;
    in.peakGflops = host.peakGflops;
    in.bandwidthGiBs = host.triadGiBs;
    in.flopsPerCell = perf::kMuFlopsPerCell;
    in.bytesPerCell = perf::kMuBytesPerCell;
    rec.layer("core.kernel.mu_roofline_frac",
              muMlups / perf::evaluateRoofline(in).boundMlups);

    util::ThreadPool* pool = solver.pool();
    const double threads = pool != nullptr ? pool->threads() : 1.0;
    std::vector<double> idleMs, busyFrac;
    auto fanout = [&](const auto& slabFn) {
        std::atomic<double> busy{0.0};
        const double t0 = perf::now();
        core::parallelForSlabs(pool, whole, [&](const CellInterval& sl) {
            const double a = perf::now();
            slabFn(sl);
            obs::atomicAdd(busy, perf::now() - a);
        });
        const double wall = perf::now() - t0;
        idleMs.push_back((wall - busy.load() / threads) * 1e3);
        busyFrac.push_back(busy.load() / (threads * wall));
    };
    const double f0 = perf::now();
    while (idleMs.size() < 6 || perf::now() - f0 < 0.3) {
        fanout(phiSlab);
        fanout(muSlab);
    }
    rec.layer("core.slab.fanout_ms", median(idleMs));
    rec.layer("core.slab.busy_frac", median(busyFrac));
}

/// Collective: transport self-cost. Face-sized ping-pong between ranks 0
/// and 1 (one-way time = half the round trip) and a one-double all-reduce.
void vmpiProbe(vmpi::Comm& comm, std::size_t faceBytes, Record& rec) {
    constexpr int kTag = 4242;
    constexpr int kWarmup = 10;
    constexpr int kCalls = 200;
    std::vector<std::byte> msg(faceBytes, std::byte{1});
    std::vector<std::byte> in;
    std::vector<double> rtt, ar;
    comm.barrier();
    for (int i = 0; i < kWarmup + kCalls; ++i) {
        if (comm.rank() == 0) {
            const double a = perf::now();
            comm.send(1, kTag, msg.data(), msg.size());
            comm.recv(1, kTag, in);
            if (i >= kWarmup) rtt.push_back(perf::now() - a);
        } else if (comm.rank() == 1) {
            comm.recv(0, kTag, in);
            comm.send(0, kTag, in.data(), in.size());
        }
    }
    comm.barrier();
    for (int i = 0; i < kWarmup + kCalls; ++i) {
        const double a = perf::now();
        comm.allreduceSum(1.0);
        if (i >= kWarmup) ar.push_back(perf::now() - a);
    }
    if (comm.isRoot()) {
        rec.layer("vmpi.pingpong_us", median(rtt) / 2 * 1e6);
        rec.layer("vmpi.allreduce_us", median(ar) * 1e6);
    }
}

/// One repeat on one rank (\p comm nullptr: single rank). \p t0 is taken
/// before the ranks were spawned; root fills \p rec.
void runRank(const Spec& s, vmpi::Comm* comm, double t0, const Host* host,
             Record& rec) {
    const bool root = comm == nullptr || comm->isRoot();
    if (comm != nullptr) comm->barrier();
    const double tUp = perf::now();
    core::Solver solver(solverConfig(s), comm);
    const double tCtor = perf::now();
    solver.initialize();
    const double tInit = perf::now();

    // In-situ hooks wired as tpf-sim does, minus the step-0 samples: only
    // the stepping is measured.
    analysis::Pipeline pipeline;
    for (const auto& name : analysis::observerNames())
        pipeline.add(analysis::makeObserver(name));
    if (s.analyzeEvery > 0) {
        if (root) pipeline.createCsv(s.out + "/analysis.csv");
        pipeline.attach(solver, s.analyzeEvery);
    }
    analysis::MeshObserver::Options mo;
    mo.dir = s.out + "/mesh";
    mo.every = std::max(1, s.meshEvery);
    analysis::MeshObserver mesh(mo);
    if (s.meshEvery > 0) {
        mesh.create(root);
        mesh.attach(solver);
    }
    const std::string ckptDir = s.out + "/checkpoint";

    if (comm != nullptr) comm->barrier();
    const double tStart = perf::now();
    solver.timeloop().resetTimings();
    solver.phiExchange().resetTimers();
    solver.muExchange().resetTimers();

    std::vector<double> stepMs(static_cast<std::size_t>(s.steps));
    std::unique_ptr<StepTrace> trace;
    if (s.trace) trace = std::make_unique<StepTrace>(solver, s.steps);
    double ckptS = 0.0;
    int ckpts = 0;
    for (int k = 0; k < s.steps; ++k) {
        const double a = perf::now();
        solver.step();
        if (s.checkpointEvery > 0 && solver.stepsDone() % s.checkpointEvery == 0) {
            const double c = perf::now();
            io::saveCheckpoint(ckptDir, solver);
            ckptS += perf::now() - c;
            ++ckpts;
        }
        stepMs[static_cast<std::size_t>(k)] = (perf::now() - a) * 1e3;
        if (trace) trace->snapshot(solver, k, ckptS);
    }
    const double loopS = perf::now() - tStart;

    const Digest digest = globalDigest(solver, comm);
    if (root) {
        rec.setupS = tStart - t0;
        rec.loopS = loopS;
        rec.stepMs = stepMs;
        rec.digest = digest;
    }
    if (!s.trace) return;

    // Layer attribution from the public timers, per time step.
    const double steps = s.steps;
    const std::vector<obs::FunctorStats> stats = obs::gatherTimingStats(solver);
    const GhostExchange& phiEx = solver.phiExchange();
    const GhostExchange& muEx = solver.muExchange();
    const double phiX = phiEx.startSeconds() + phiEx.waitSeconds();
    const double muX = muEx.startSeconds() + muEx.waitSeconds();
    double commFunctors = 0.0, functorSum = 0.0, analysisS = 0.0;
    for (const auto& t : solver.timeloop().timings()) {
        functorSum += t.seconds;
        if (isCommFunctor(t.name)) commFunctors += t.seconds;
        if (t.name == "analysis") analysisS = t.seconds;
    }
    const CrossRank phiXr = crossRank(comm, phiX);
    const CrossRank muXr = crossRank(comm, muX);
    const CrossRank boundary = crossRank(comm, commFunctors - phiX - muX);
    const CrossRank wait = crossRank(comm, phiEx.waitSeconds() + muEx.waitSeconds());
    long long bytes = static_cast<long long>(phiEx.bytesSent() + muEx.bytesSent());
    if (comm != nullptr && comm->size() > 1) bytes = comm->allreduceSumLL(bytes);

    double analysisSamples = s.analyzeEvery > 0 ? s.steps / s.analyzeEvery : 0;
    double meshFrames = s.meshEvery > 0 ? s.steps / s.meshEvery : 0;
    if (root) {
        trace->write(solver, stepMs, s.out + "/trace_rank0.csv");
        auto perStepMs = [&](const char* name, bool imbalance) {
            for (const auto& f : stats)
                if (f.name == name)
                    return imbalance ? f.maxSeconds / f.avgSeconds
                                     : f.avgSeconds / steps * 1e3;
            return 0.0;
        };
        rec.layer("core.phi_sweep_ms", perStepMs("phi-sweep", false));
        rec.layer("core.mu_sweep_ms", perStepMs("mu-sweep", false));
        rec.layer("core.window_ms", perStepMs("window", false));
        rec.layer("core.tz_cache_ms", perStepMs("tz-cache", false));
        rec.layer("core.phi_sweep_imbalance", perStepMs("phi-sweep", true));
        rec.layer("core.mu_sweep_imbalance", perStepMs("mu-sweep", true));
        rec.layer("comm.phi_exchange_ms", phiXr.mean / steps * 1e3);
        rec.layer("comm.mu_exchange_ms", muXr.mean / steps * 1e3);
        rec.layer("core.boundary_ms", boundary.mean / steps * 1e3);
        rec.layer("comm.wait_ms_max", wait.max / steps * 1e3);
        rec.layer("comm.bytes_per_step", static_cast<double>(bytes) / steps);
        rec.layer("core.solver_ctor_ms", (tCtor - tUp) * 1e3);
        rec.layer("core.initialize_ms", (tInit - tCtor) * 1e3);
        rec.layer("layer_sum_residual_frac",
                  std::abs(functorSum + ckptS - loopS) / loopS);
        if (comm != nullptr && comm->size() > 1)
            rec.layer("vmpi.spawn_ms", (tUp - t0) * 1e3);
    }

    if (s.calibrate) {
        // Workloads without in-situ hooks in the loop time each I/O layer
        // once on the final state, so every workload reports them.
        const long long step = solver.stepsDone();
        if (s.analyzeEvery == 0) {
            const double a = perf::now();
            pipeline.sample(solver, step);
            analysisS = perf::now() - a;
            analysisSamples = 1;
        }
        if (s.meshEvery == 0) {
            mesh.create(root);
            mesh.sample(solver, step);
            meshFrames = 1;
        }
        if (s.checkpointEvery == 0) {
            const double c = perf::now();
            io::saveCheckpoint(ckptDir, solver);
            ckptS = perf::now() - c;
            ckpts = 1;
        }
        if (root) {
            const std::vector<PlaneDigest> before = localDigests(solver);
            kernelLayers(solver, *host, rec);
            const std::vector<PlaneDigest> after = localDigests(solver);
            rec.srcIntact = combine(before).hash == combine(after).hash;
        }
        if (comm != nullptr && comm->size() > 1) {
            const Int3 c = s.cells;
            vmpiProbe(*comm,
                      static_cast<std::size_t>(c.x) * c.y * core::N * sizeof(double),
                      rec);
        }
    }

    if (root && analysisSamples > 0)
        rec.layer("analysis.sample_ms", analysisS / analysisSamples * 1e3);
    if (root && meshFrames > 0) {
        const io::MeshPipelineTimings& mt = mesh.timings();
        const double meshBytes = bytesUnder(s.out + "/mesh", ".obj") / meshFrames;
        rec.layer("io.mesh_extract_ms", mt.extractSec / meshFrames * 1e3);
        rec.layer("io.mesh_simplify_ms", mt.simplifySec / meshFrames * 1e3);
        rec.layer("io.mesh_gather_ms", mt.gatherSec / meshFrames * 1e3);
        rec.layer("io.mesh_mib_per_frame", meshBytes / kMiB);
        if (ckpts > 0)
            rec.layer("io.mesh_reduction_ratio", bytesUnder(ckptDir, "") / meshBytes);
    }
    if (root && ckpts > 0) {
        rec.layer("io.checkpoint_save_ms", ckptS / ckpts * 1e3);
        rec.layer("io.checkpoint_mib", bytesUnder(ckptDir, "") / kMiB);
    }
}

std::string recordJson(const std::string& mode, const Spec& s, const Record& rec,
                       const Host* host) {
    Json j;
    j.str("mode", mode);
    j.num("cells", static_cast<double>(s.cells.x) * s.cells.y * s.cells.z);
    j.num("steps", s.steps);
    j.num("setup_s", rec.setupS);
    j.num("loop_s", rec.loopS);
    std::string steps = "[";
    for (std::size_t i = 0; i < rec.stepMs.size(); ++i) {
        char buf[40];
        std::snprintf(buf, sizeof buf, "%s%.17g", i ? ", " : "", rec.stepMs[i]);
        steps += buf;
    }
    j.raw("step_ms", steps + "]");
    j.str("digest", hex(rec.digest.hash));
    j.num("non_finite", static_cast<double>(rec.digest.nonFinite));
    j.raw("src_intact", rec.srcIntact ? "true" : "false");
    Json layers;
    for (const auto& [name, v] : rec.layers) layers.num(name, v);
    j.raw("layers", layers.text());
    if (host != nullptr) j.raw("host", hostJson(*host));
    return j.text();
}

} // namespace

int main(int argc, char** argv) {
    app::Cli cli(argc, argv, "--mode <reference|run|host> [options]");
    const std::string mode =
        cli.getString("mode", "run", "reference, run or host (see the file header)");
    Spec s;
    s.cells = cli.getInt3("cells", s.cells, "global grid NX,NY,NZ");
    s.ranks = cli.getInt("ranks", 1, "shm ranks (z-split)");
    s.threads = cli.getInt("threads", 1, "sweep threads per rank");
    s.steps = cli.getInt("steps", 10, "timed steps");
    s.analyzeEvery = cli.getInt("analyze", 0, "in-situ analysis cadence (0: off)");
    s.meshEvery = cli.getInt("mesh", 0, "in-situ mesh cadence (0: off)");
    s.checkpointEvery = cli.getInt("checkpoint", 0, "checkpoint cadence (0: off)");
    s.seed = static_cast<std::uint64_t>(
        cli.getInt("seed", 42, "Voronoi seed (VoronoiConfig::seed)"));
    s.out = cli.getString("out", "prodbench_out", "scratch directory for run output");
    s.trace = cli.getFlag("trace", "attribute each step to layers");
    s.calibrate = cli.getFlag("calibrate", "time single layers after the loop (needs --trace)");
    if (cli.helpRequested()) {
        cli.printHelp();
        return 0;
    }
    if (!cli.finish()) return 2;
    if ((mode != "reference" && mode != "run" && mode != "host") || s.steps < 1 ||
        s.ranks < 1 || s.threads < 1 || s.cells.x % 4 != 0 ||
        s.cells.z % s.ranks != 0 || (s.calibrate && !s.trace)) {
        std::fprintf(stderr, "prodbench: invalid arguments (see --help)\n");
        return 2;
    }
    // Auto dispatch regardless of TPF_KERNEL: the widest target the CPU has.
    core::setKernelTarget("auto");

    if (mode == "host") {
        const Host host = measureHost();
        std::printf("%s\n", hostJson(host).c_str());
        return 0;
    }
    if (mode == "reference") {
        s.ranks = 1;
        s.threads = 1;
        s.analyzeEvery = s.meshEvery = s.checkpointEvery = 0;
        s.trace = s.calibrate = false;
    }

    fs::remove_all(s.out);
    fs::create_directories(s.out);
    Record rec;
    Host host;
    if (s.calibrate) host = measureHost();
    const double t0 = perf::now();
    if (s.ranks == 1) {
        runRank(s, nullptr, t0, &host, rec);
    } else {
        vmpi::runParallel(vmpi::TransportKind::Shm, s.ranks, [&](vmpi::Comm& comm) {
            runRank(s, &comm, t0, &host, rec);
        });
    }
    if (s.calibrate && s.ranks == 1) {
        // A single-rank workload has no transport of its own: report the
        // self-cost of the in-process thread transport at 2 ranks.
        const double p0 = perf::now();
        vmpi::runParallel(vmpi::TransportKind::Thread, 2, [&](vmpi::Comm& comm) {
            comm.barrier();
            if (comm.isRoot()) rec.layer("vmpi.spawn_ms", (perf::now() - p0) * 1e3);
            vmpiProbe(comm,
                      static_cast<std::size_t>(s.cells.x) * s.cells.y * core::N *
                          sizeof(double),
                      rec);
        });
    }
    if (s.calibrate) {
        rec.layer("perf.stream_triad_gbs", host.triadGBs);
        rec.layer("perf.peak_gflops_1core", host.peakGflops);
    }
    // Keep the CSVs (trace_rank0.csv, analysis.csv), drop the bulky frames.
    fs::remove_all(s.out + "/checkpoint");
    fs::remove_all(s.out + "/mesh");
    std::printf("%s\n", recordJson(mode, s, rec, s.calibrate ? &host : nullptr).c_str());
    return 0;
}
