#include "core/kernel_dispatch.h"

#include <cstdio>
#include <cstdlib>

namespace tpf::core {

namespace {

/// CPU support check per target name. Compiled-in targets whose ISA the
/// binary was *built* for unconditionally (e.g. -march=native) are still
/// checked — the dispatch table must only offer what the machine can run.
bool cpuSupports(const KernelTarget& t) {
    const std::string name = t.name;
    if (name == "scalar") return true;
#if defined(__GNUC__) || defined(__clang__)
    if (name == "sse2") return true; // baseline on x86-64; TU gated otherwise
    if (name == "avx2")
        return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    if (name == "avx512")
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("avx512f");
    return false;
#else
    return name == "sse2";
#endif
}

const KernelTarget* widestAvailable() {
    const auto all = availableKernelTargets();
    return all.back(); // narrowest first; scalar guarantees non-empty
}

/// The available target called \p name ("auto": the widest), else nullptr.
const KernelTarget* findTarget(const std::string& name) {
    if (name == "auto") return widestAvailable();
    for (const KernelTarget* t : availableKernelTargets())
        if (name == t->name) return t;
    return nullptr;
}

/// TPF_KERNEL, resolved once. A value naming no available target falls back
/// to the widest — results are bitwise identical across targets anyway —
/// but says so, so a typo cannot silently change what every binary runs.
const KernelTarget* environmentTarget() {
    static const KernelTarget* const target = [] {
        const char* env = std::getenv("TPF_KERNEL");
        if (env == nullptr) return widestAvailable();
        if (const KernelTarget* t = findTarget(env)) return t;
        const KernelTarget* fallback = widestAvailable();
        std::fprintf(stderr,
                     "tpf: TPF_KERNEL='%s' is not an available kernel target "
                     "(auto|scalar|sse2|avx2|avx512); using %s\n",
                     env, fallback->name);
        return fallback;
    }();
    return target;
}

/// Set by setKernelTarget(); overrides TPF_KERNEL when non-null.
const KernelTarget* chosen = nullptr;

} // namespace

std::vector<const KernelTarget*> availableKernelTargets() {
    std::vector<const KernelTarget*> out;
    for (const KernelTarget* t :
         {kernelTargetScalar(), kernelTargetSse2(), kernelTargetAvx2(),
          kernelTargetAvx512()})
        if (t != nullptr && cpuSupports(*t)) out.push_back(t);
    return out;
}

const KernelTarget* activeKernelTarget() {
    return chosen != nullptr ? chosen : environmentTarget();
}

bool setKernelTarget(const std::string& name) {
    const KernelTarget* t = findTarget(name);
    if (t == nullptr) return false;
    chosen = t;
    return true;
}

} // namespace tpf::core
