/// \file rules.cpp
/// The tpf-lint rule library. Each rule is a named, per-line-suppressible
/// invariant of this repo (rationale per rule in docs/CORRECTNESS.md). Rules
/// run over comment/string-stripped code lines (scanner.cpp), so patterns in
/// literals are never findings.
///
/// These are deliberately line-based heuristics, not a C++ parser: they are
/// tuned so that everything they flag is worth a human look, and every false
/// positive is one `// tpf-lint: allow(rule) -- reason` away from silence
/// with the reason on record.

#include "lint/lint.h"

#include <regex>

namespace tpf::lint {

namespace {

/// True when the normalized path has \p dir as one of its directory
/// components (e.g. dirIs("src/core/solver.cpp", "core")).
bool dirIs(const std::string& path, const std::string& dir) {
    const std::string needle = "/" + dir + "/";
    if (path.find(needle) != std::string::npos) return true;
    return path.rfind(dir + "/", 0) == 0;
}

bool inAnyDir(const std::string& path, std::initializer_list<const char*> dirs) {
    for (const char* d : dirs)
        if (dirIs(path, d)) return true;
    return false;
}

void addFinding(std::vector<Finding>& out, const ScannedFile& f,
                const char* rule, int line, int col, std::string message,
                std::string hint) {
    if (f.allowed(line, rule)) return;
    out.push_back(Finding{rule, f.path, line, col, std::move(message),
                          std::move(hint)});
}

// ---------------------------------------------------------------------------
// fastmath: no libm transcendentals in src/core / src/analysis numerics.
//
// The committed golden checkpoints and analysis CSVs are compared *bitwise*
// across machines. IEEE-754 add/mul/div/sqrt round identically everywhere,
// but libm sin/cos/exp/pow/log/tanh are only ~1 ulp and have changed between
// glibc releases — one call in an init profile or observer silently forks
// the goldens per machine (this is why PR 3 introduced util/fastmath's
// sinpiCompact). std::sqrt is exactly rounded by the standard and stays
// allowed.
// ---------------------------------------------------------------------------
void ruleFastmath(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "fastmath";
    if (!inAnyDir(f.path, {"core", "analysis"})) return;
    static const std::regex re(
        R"((^|[^A-Za-z0-9_.:>])((?:std::)?)(sin|cos|tan|exp|exp2|expm1|pow|log|log2|log10|tanh|sinh|cosh|asin|acos|atan|atan2)(f?)\s*\()");
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (std::sregex_iterator it(line.begin(), line.end(), re), end;
             it != end; ++it) {
            const std::smatch& m = *it;
            const int col = static_cast<int>(m.position(3)) + 1;
            const std::string name = m[3].str() + m[4].str();
            addFinding(out, f, kRule, static_cast<int>(i) + 1, col,
                       "libm " + name + "() in " +
                           (dirIs(f.path, "core") ? std::string("src/core")
                                                  : std::string("src/analysis")) +
                           " numerics: its rounding varies across libm "
                           "versions, which forks the machine-independent "
                           "goldens (bitwise contract from PR 3)",
                       "use util/fastmath (e.g. tpf::sinpiCompact, "
                       "fastInvSqrt) or add a polynomial helper there; "
                       "std::sqrt is exactly rounded and fine; if this value "
                       "provably never reaches field state, suppress with "
                       "// tpf-lint: allow(fastmath) -- <why>");
        }
    }
}

// ---------------------------------------------------------------------------
// unordered-iteration: no iteration over std::unordered_* containers.
//
// Hash-table iteration order is an implementation detail: it differs between
// libstdc++/libc++ and can change with reserve() calls, so any loop over an
// unordered container that feeds a reduction, gather, mesh build or output
// stream breaks cross-platform determinism even when each run is internally
// reproducible. Lookups are fine; iteration is the hazard.
// ---------------------------------------------------------------------------
void ruleUnorderedIteration(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "unordered-iteration";
    // Pass 1: names declared (or returned) with a std::unordered_* type on
    // one line. A line-based heuristic: multi-line declarations are missed,
    // which is acceptable — the rule is a tripwire, not a proof.
    static const std::regex declRe(
        R"(std::unordered_(?:map|set|multimap|multiset)\s*<.*>\s*&?\s*([A-Za-z_]\w*))");
    std::set<std::string> names;
    for (const std::string& line : f.code) {
        for (std::sregex_iterator it(line.begin(), line.end(), declRe), end;
             it != end; ++it)
            names.insert((*it)[1].str());
    }
    if (names.empty()) return;

    auto containsName = [&](const std::string& expr) -> std::string {
        static const std::regex word(R"([A-Za-z_]\w*)");
        for (std::sregex_iterator it(expr.begin(), expr.end(), word), end;
             it != end; ++it)
            if (names.count((*it)[0].str())) return (*it)[0].str();
        return {};
    };

    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        // Range-for: `for (<decl> : <expr>)` where <expr> mentions an
        // unordered name. Find the separator ':' that is not part of '::'.
        std::size_t pos = 0;
        static const std::regex forRe(R"((^|[^\w])for\s*\()");
        std::smatch fm;
        std::string tail = line;
        std::size_t base = 0;
        while (std::regex_search(tail, fm, forRe)) {
            const std::size_t open =
                base + static_cast<std::size_t>(fm.position(0)) +
                static_cast<std::size_t>(fm.length(0)) - 1;
            // Scan to the matching close paren, tracking the top-level ':'.
            int depth = 0;
            std::size_t colon = std::string::npos;
            std::size_t close = std::string::npos;
            for (std::size_t j = open; j < line.size(); ++j) {
                const char c = line[j];
                if (c == '(') ++depth;
                else if (c == ')') {
                    if (--depth == 0) { close = j; break; }
                } else if (c == ':' && depth == 1 && colon == std::string::npos) {
                    const bool dbl = (j + 1 < line.size() && line[j + 1] == ':') ||
                                     (j > 0 && line[j - 1] == ':');
                    if (!dbl) colon = j;
                }
            }
            if (colon != std::string::npos) {
                const std::size_t exprEnd =
                    close == std::string::npos ? line.size() : close;
                const std::string expr =
                    line.substr(colon + 1, exprEnd - colon - 1);
                const std::string hit = containsName(expr);
                if (!hit.empty())
                    addFinding(out, f, kRule, static_cast<int>(i) + 1,
                               static_cast<int>(colon) + 2,
                               "iteration over std::unordered_* '" + hit +
                                   "': hash order is implementation-defined, "
                                   "so anything this loop feeds (reductions, "
                                   "gathers, meshes, output) loses "
                                   "cross-platform determinism",
                               "iterate a sorted copy (vector + std::sort) or "
                               "use std::map/std::set; if the loop is provably "
                               "order-independent, suppress with "
                               "// tpf-lint: allow(unordered-iteration) -- <why>");
            }
            base = open + 1;
            tail = line.substr(base);
            pos = base;
        }
        (void)pos;
        // Explicit iterator walks: name.begin() / name.cbegin().
        static const std::regex beginRe(R"(([A-Za-z_]\w*)\s*\.\s*c?begin\s*\()");
        for (std::sregex_iterator it(line.begin(), line.end(), beginRe), end;
             it != end; ++it) {
            const std::smatch& m = *it;
            if (!names.count(m[1].str())) continue;
            addFinding(out, f, kRule, static_cast<int>(i) + 1,
                       static_cast<int>(m.position(0)) + 1,
                       "iterator walk over std::unordered_* '" + m[1].str() +
                           "': hash order is implementation-defined, so "
                           "anything this loop feeds loses cross-platform "
                           "determinism",
                       "iterate a sorted copy (vector + std::sort) or use "
                       "std::map/std::set; if order-independent, suppress with "
                       "// tpf-lint: allow(unordered-iteration) -- <why>");
        }
    }
}

// ---------------------------------------------------------------------------
// nondeterminism: no wall-clock / libc-randomness in deterministic paths.
//
// Everything under core/analysis/grid/comm/vmpi/thermo/simd/util feeds the
// three bitwise contracts (kernel variants, decomposition, restart). rand(),
// time(NULL), std::random_device and std::chrono values must not exist there
// unless they are provably observational (wall-clock *timing*), which is
// what the suppression comment records.
//
// src/obs is the sanctioned home for wall-clock reads (obs::wallNow wraps
// the tree's only steady_clock call): every other subsystem that wants a
// timestamp takes it through obs, which is what keeps this rule's
// "deterministic path" claim checkable rather than a pile of suppressions.
// ---------------------------------------------------------------------------
void ruleNondeterminism(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "nondeterminism";
    if (dirIs(f.path, "obs")) return; // the one place wall-clock may live
    if (!inAnyDir(f.path, {"core", "analysis", "grid", "comm", "vmpi",
                           "thermo", "simd", "util"}))
        return;
    struct Pat {
        const std::regex re;
        const char* what;
        int group; ///< capture group whose position is the column
    };
    static const std::vector<Pat> pats = [] {
        std::vector<Pat> v;
        v.push_back({std::regex(R"(std::chrono)"), "std::chrono", 0});
        v.push_back({std::regex(R"((^|[^A-Za-z0-9_.:>])(s?rand)\s*\()"),
                     "libc rand()/srand()", 2});
        // C time() always takes an argument (time(nullptr), time(&t)), which
        // distinguishes calls from declarations of methods named time().
        v.push_back(
            {std::regex(R"((^|[^A-Za-z0-9_.>])((?:std::|::)?time)\s*\(\s*[^)\s])"),
             "wall-clock time()", 2});
        v.push_back({std::regex(R"(std::random_device)"), "std::random_device", 0});
        return v;
    }();
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (const Pat& p : pats) {
            for (std::sregex_iterator it(line.begin(), line.end(), p.re), end;
                 it != end; ++it) {
                const std::smatch& m = *it;
                addFinding(
                    out, f, kRule, static_cast<int>(i) + 1,
                    static_cast<int>(m.position(p.group)) + 1,
                    std::string(p.what) +
                        " in a deterministic path: values from it diverge "
                        "across ranks, runs and machines, breaking the "
                        "bitwise kernel/decomposition/restart contracts",
                    "use tpf::Random (util/random.h, counter-seeded "
                    "xoshiro256++) or pass timestamps in from the app layer; "
                    "for observational wall-clock *timing* that never feeds "
                    "physics, suppress with "
                    "// tpf-lint: allow(nondeterminism) -- <why>");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// collective-in-conditional: no vmpi collective inside a rank-conditional.
//
// A collective (barrier, allreduce*, gather*, bcast) must be called by every
// rank; guarding one behind `if (isRoot())` / `if (rank() == 0)` deadlocks
// the other ranks at the next matching point. PR 1 fixed exactly this bug in
// multi-rank reporting. src/vmpi itself is exempt — the *implementations* of
// the collectives legitimately branch on rank for the asymmetric protocol.
// ---------------------------------------------------------------------------
void ruleCollectiveInConditional(const ScannedFile& f,
                                 std::vector<Finding>& out) {
    static const char* kRule = "collective-in-conditional";
    if (dirIs(f.path, "vmpi")) return;
    static const std::regex rankCondRe(
        R"(isRoot\s*\(|\b\w*[Rr]ank\w*\s*(\(\s*\))?\s*[=!]=|[=!]=\s*\w*[Rr]ank\b)");
    static const std::regex ifRe(R"((^|[^\w])(if|while)\s*\()");
    // Covers the Comm surface (barrier/allreduce*/gather*/bcast/allAgree)
    // AND the Transport vtable spellings (t->barrier()), so code talking to
    // the transport layer directly cannot smuggle a collective into a rank
    // branch either. postRecv/waitRecv are point-to-point, not collectives.
    static const std::regex collRe(
        R"((^|[^\w.]|\.|->)(barrier|allreduce(?:Sum|Min|Max|SumLL)?|gather|gatherAllBytes|bcast|allAgree|nextCollectiveSeq)\s*\()");

    // Brace-depth bookkeeping: depths at which a rank-conditional block is
    // open. `pending` covers the region between the rank-`if` and its `{`
    // (or the braceless single statement up to the next `;`).
    std::vector<int> guardDepths;
    int depth = 0;
    bool pending = false;
    int pendingStmtLines = 0; // braceless guard: flag this many further lines

    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];

        // Does this line open a rank-conditional?
        std::smatch m;
        bool opensGuard = false;
        std::string tail = line;
        while (std::regex_search(tail, m, ifRe)) {
            const std::string cond = m.suffix().str();
            if (std::regex_search(cond, rankCondRe)) opensGuard = true;
            tail = m.suffix();
        }
        // `} else {` continues the rank-conditional it closes.
        const bool hasElse =
            std::regex_search(line, std::regex(R"((^|[^\w])else([^\w]|$))"));

        const bool guardedBefore = !guardDepths.empty() || pending ||
                                   pendingStmtLines > 0;

        // Collectives on a guarded line (including the guard-opening line
        // itself: `if (isRoot()) comm.barrier();`).
        if (guardedBefore || opensGuard) {
            for (std::sregex_iterator it(line.begin(), line.end(), collRe),
                 end;
                 it != end; ++it) {
                const std::smatch& cm = *it;
                // On the guard-opening line, only flag calls after the `if`.
                addFinding(out, f, kRule, static_cast<int>(i) + 1,
                           static_cast<int>(cm.position(2)) + 1,
                           "vmpi collective '" + cm[2].str() +
                               "' inside a rank-conditional: the ranks that "
                               "skip this branch never reach the matching "
                               "call and the run deadlocks (the PR 1 "
                               "reporting bug)",
                           "hoist the collective out of the rank branch so "
                           "every rank calls it, then do root-only work with "
                           "the result; see vmpi::Comm docs");
            }
        }

        if (opensGuard) pending = true;

        // Track braces and the pending guard.
        for (const char c : line) {
            if (c == '{') {
                if (pending) {
                    guardDepths.push_back(depth);
                    pending = false;
                    pendingStmtLines = 0;
                }
                ++depth;
            } else if (c == '}') {
                --depth;
                if (!guardDepths.empty() && guardDepths.back() == depth) {
                    guardDepths.pop_back();
                    if (hasElse) pending = true; // else-branch stays guarded
                }
            } else if (c == ';' && pending) {
                // Braceless guarded statement ended.
                pending = false;
                pendingStmtLines = 0;
            }
        }
        if (pending) {
            // Braceless `if (...)` with the statement on a following line:
            // keep the guard alive a little; any '{' or ';' above clears it.
            if (++pendingStmtLines > 2) {
                pending = false;
                pendingStmtLines = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// raw-intrinsics: x86 vector intrinsics live in src/simd only.
//
// The runtime dispatch (core/kernel_dispatch.h) is the only path the
// vectorized sweeps take: it compiles the same kernel bodies once per ISA
// target, each in its own TU with per-file ISA flags. That stays
// bitwise-equivalent only because every vector operation goes through the
// simd::Vec4d*/Vec8d* wrappers, whose per-lane arithmetic is pinned by
// tests/test_simd.cpp. A raw __m256d or _mm512_*() call anywhere else
// bypasses the abstraction: it hard-codes one ISA, breaks the portable
// (TPF_NATIVE_ARCH=OFF) build at compile time, and its arithmetic is
// invisible to the cross-target equivalence tests.
// ---------------------------------------------------------------------------
void ruleRawIntrinsics(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "raw-intrinsics";
    if (dirIs(f.path, "simd")) return;
    static const std::regex re(
        R"(__m(?:128|256|512)[di]?\b|__mmask(?:8|16|32|64)\b|\b_mm(?:256|512)?_[A-Za-z0-9_]+\s*\(|<immintrin\.h>)");
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (std::sregex_iterator it(line.begin(), line.end(), re), end;
             it != end; ++it) {
            const std::smatch& m = *it;
            addFinding(out, f, kRule, static_cast<int>(i) + 1,
                       static_cast<int>(m.position(0)) + 1,
                       "raw x86 SIMD ('" + m[0].str() +
                           "') outside src/simd: it hard-codes one ISA, "
                           "breaks the portable build and escapes the "
                           "cross-target bitwise-equivalence "
                           "tests the runtime dispatch relies on",
                       "go through the simd::Vec4d*/Vec8d* wrappers "
                       "(src/simd/) and the width-generic kernel bodies; if "
                       "a new operation is missing, add it to every backend "
                       "plus tests/test_simd.cpp rather than inlining "
                       "intrinsics here");
        }
    }
}

// ---------------------------------------------------------------------------
// assert-macro: library code uses TPF_ASSERT, not bare assert().
//
// assert() compiles away under NDEBUG — i.e. in every Release build, which
// is how this code actually runs — so a bare assert is a check that only
// exists on developer machines. TPF_ASSERT stays on in all build types;
// TPF_ASSERT_DBG is the explicit opt-in for hot-path debug-only checks.
// ---------------------------------------------------------------------------
void ruleAssertMacro(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "assert-macro";
    static const std::regex re(R"((^|[^A-Za-z0-9_.:>])assert\s*\()");
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (std::sregex_iterator it(line.begin(), line.end(), re), end;
             it != end; ++it) {
            const std::smatch& m = *it;
            addFinding(out, f, kRule, static_cast<int>(i) + 1,
                       static_cast<int>(m.position(0)) +
                           static_cast<int>(m.length(1)) + 1,
                       "bare assert() disappears under NDEBUG, so this "
                       "invariant is unchecked in every Release build",
                       "use TPF_ASSERT(expr, msg) (always on) or "
                       "TPF_ASSERT_DBG (hot-path, debug-only) from "
                       "util/assert.h");
        }
    }
}

// ---------------------------------------------------------------------------
// obs-in-kernels: no observability hooks inside kernel bodies.
//
// The telemetry layer (src/obs) is provably non-perturbing only because its
// hooks sit at functor granularity in the timeloop and at the fan-out choke
// point in util/thread_pool — outside the per-cell hot loops. A TPF_SPAN or
// obs:: call inside a kernel body header or an ISA-target TU would execute
// millions of times per step, sink the <2% overhead budget measured by
// bench_obs, and perturb the code layout of the very loops the
// cross-backend bitwise-equivalence tests compare. Kernel bodies stay
// obs-free; instrument the callers (timeloop functors, slab sweeps).
// ---------------------------------------------------------------------------
void ruleObsInKernels(const ScannedFile& f, std::vector<Finding>& out) {
    static const char* kRule = "obs-in-kernels";
    const bool isBodyHeader =
        dirIs(f.path, "core") && f.path.size() >= 7 &&
        f.path.compare(f.path.size() - 7, 7, "_body.h") == 0;
    if (!dirIs(f.path, "kernel_targets") && !isBodyHeader) return;

    const auto flag = [&](int line, int col, const std::string& what) {
        addFinding(out, f, kRule, line, col,
                   what + " in a kernel body: obs hooks here run per cell, "
                         "not per functor, which sinks the <2% telemetry "
                         "overhead contract and perturbs the hot loops the "
                         "cross-backend bitwise tests compare",
                   "instrument the caller instead (timeloop functors, "
                   "slab sweep drivers) — kernel targets and *_body.h "
                   "headers stay observability-free by construction");
    };

    // Tokens survive literal-blanking, so match against f.code.
    static const std::regex tokRe(R"(\b(obs\s*::|TPF_SPAN\b))");
    // #include "obs/..." has its path inside a string literal, which the
    // scanner blanks in f.code — match the raw line for this one.
    static const std::regex incRe(R"(#\s*include\s*"obs/)");
    for (std::size_t i = 0; i < f.code.size(); ++i) {
        const std::string& line = f.code[i];
        for (std::sregex_iterator it(line.begin(), line.end(), tokRe), end;
             it != end; ++it) {
            const std::smatch& m = *it;
            const std::string what = m[1].str().rfind("TPF_SPAN", 0) == 0
                                         ? std::string("TPF_SPAN")
                                         : std::string("obs:: call");
            flag(static_cast<int>(i) + 1,
                 static_cast<int>(m.position(1)) + 1, what);
        }
        std::smatch im;
        if (i < f.raw.size() &&
            std::regex_search(f.raw[i], im, incRe)) {
            flag(static_cast<int>(i) + 1,
                 static_cast<int>(im.position(0)) + 1,
                 "#include \"obs/...\"");
        }
    }
}

} // namespace

const std::vector<RuleInfo>& ruleCatalog() {
    static const std::vector<RuleInfo> catalog = {
        {"fastmath",
         "no libm sin/cos/exp/pow/... in src/core or src/analysis numerics "
         "(guards machine-independent goldens); use util/fastmath"},
        {"unordered-iteration",
         "no iteration over std::unordered_* containers (hash order is "
         "implementation-defined and breaks cross-platform determinism)"},
        {"nondeterminism",
         "no rand()/time()/std::chrono/std::random_device in deterministic "
         "paths; use util/random.h or suppress observational timing"},
        {"collective-in-conditional",
         "no vmpi collective (barrier/allreduce/gather/bcast/allAgree, or "
         "the Transport vtable spellings) inside a rank-conditional block "
         "(deadlocks the other ranks)"},
        {"raw-intrinsics",
         "no raw x86 SIMD (__m128d/__m256d/__m512d, _mm*_ calls, "
         "<immintrin.h>) outside src/simd; use the Vec4d*/Vec8d* wrappers"},
        {"assert-macro",
         "library code asserts with TPF_ASSERT/TPF_ASSERT_DBG, never bare "
         "assert() (which vanishes under NDEBUG)"},
        {"obs-in-kernels",
         "no telemetry hooks (obs::, TPF_SPAN, #include \"obs/...\") in "
         "kernel targets or *_body.h kernel headers; instrument the callers "
         "(timeloop functors, sweep drivers) instead"},
    };
    return catalog;
}

bool isKnownRule(std::string_view name) {
    for (const RuleInfo& r : ruleCatalog())
        if (name == r.name) return true;
    return false;
}

std::vector<Finding> lintScanned(const ScannedFile& f,
                                 const std::set<std::string>& enabled) {
    const auto on = [&](const char* rule) {
        return enabled.empty() || enabled.count(rule) > 0;
    };
    std::vector<Finding> out;
    if (on("fastmath")) ruleFastmath(f, out);
    if (on("unordered-iteration")) ruleUnorderedIteration(f, out);
    if (on("nondeterminism")) ruleNondeterminism(f, out);
    if (on("collective-in-conditional")) ruleCollectiveInConditional(f, out);
    if (on("raw-intrinsics")) ruleRawIntrinsics(f, out);
    if (on("assert-macro")) ruleAssertMacro(f, out);
    if (on("obs-in-kernels")) ruleObsInKernels(f, out);
    return out;
}

} // namespace tpf::lint
