#include "vmpi/transport.h"

#include <cstdlib>
#include <string>

#include "util/assert.h"

namespace tpf::vmpi {

const char* transportName(TransportKind k) {
    switch (k) {
    case TransportKind::Thread: return "thread";
    case TransportKind::Shm: return "shm";
    case TransportKind::Mpi: return "mpi";
    }
    return "?";
}

bool parseTransportName(const std::string& name, TransportKind& out) {
    if (name == "thread") {
        out = TransportKind::Thread;
        return true;
    }
    if (name == "shm") {
        out = TransportKind::Shm;
        return true;
    }
    if (name == "mpi") {
        out = TransportKind::Mpi;
        return true;
    }
    return false;
}

bool transportCompiledIn(TransportKind k) {
#if TPF_WITH_MPI
    (void)k;
    return true;
#else
    return k != TransportKind::Mpi;
#endif
}

std::vector<TransportKind> spawnableTransports() {
    return {TransportKind::Thread, TransportKind::Shm};
}

std::string transportFromEnvironment() {
    const char* env = std::getenv("TPF_TRANSPORT");
    return env == nullptr ? std::string() : std::string(env);
}

TransportKind defaultTransport() {
    const std::string env = transportFromEnvironment();
    if (env.empty()) return TransportKind::Thread;
    TransportKind k = TransportKind::Thread;
    const bool known = parseTransportName(env, k);
    TPF_ASSERT(known, "TPF_TRANSPORT names an unknown transport");
    TPF_ASSERT(transportCompiledIn(k),
               "TPF_TRANSPORT names a transport not compiled into this "
               "binary (mpi requires TPF_WITH_MPI=ON)");
    return k;
}

namespace {
ChildFailureProbe g_childFailureProbe = nullptr;
} // namespace

void setChildFailureProbe(ChildFailureProbe probe) {
    g_childFailureProbe = probe;
}

ChildFailureProbe childFailureProbe() { return g_childFailureProbe; }

} // namespace tpf::vmpi
