#include "vmpi/comm.h"

#include "vmpi/transport_spawn.h"

namespace tpf::vmpi {

void Comm::send(int dst, int tag, const void* data, std::size_t bytes) {
    transport_->send(dst, tag, data, bytes);
}

void Comm::recv(int src, int tag, std::vector<std::byte>& out) {
    transport_->recv(src, tag, out);
}

Request Comm::irecv(int src, int tag, std::vector<std::byte>* out,
                    std::size_t bytesHint) {
    TPF_ASSERT(out != nullptr, "irecv needs an output buffer");
    Request r;
    r.transport_ = transport_;
    r.handle_ = transport_->postRecv(src, tag, bytesHint);
    r.out_ = out;
    return r;
}

void Comm::wait(Request& req) {
    TPF_ASSERT(req.valid(), "waiting on an invalid request");
    TPF_ASSERT(req.transport_ == transport_,
               "request waited on a different communicator");
    transport_->waitRecv(req.handle_, *req.out_);
    req.out_ = nullptr;
    req.transport_ = nullptr;
}

void Comm::barrier() { transport_->barrier(); }

// Every collective consumes one sequence number and derives its internal
// tags from it, so two back-to-back collectives use disjoint (source, tag)
// streams: a transport is free to deliver their messages in any relative
// order. The counters agree across ranks because collectives are executed
// in the same order by every rank (that is what makes them collectives).

double Comm::allreduce(double value,
                       const std::function<double(double, double)>& op) {
    const int seq = transport_->nextCollectiveSeq();
    const int tagUp = collectiveTag(seq, 0);
    const int tagDown = collectiveTag(seq, 1);
    const int n = size();
    double result = value;
    if (rank() == 0) {
        // Combine in rank order for bitwise determinism.
        for (int r = 1; r < n; ++r)
            result = op(result, recvValue<double>(r, tagUp));
        for (int r = 1; r < n; ++r) sendValue(r, tagDown, result);
    } else {
        sendValue(0, tagUp, value);
        result = recvValue<double>(0, tagDown);
    }
    return result;
}

double Comm::allreduceSum(double v) {
    return allreduce(v, [](double a, double b) { return a + b; });
}
double Comm::allreduceMin(double v) {
    return allreduce(v, [](double a, double b) { return a < b ? a : b; });
}
double Comm::allreduceMax(double v) {
    return allreduce(v, [](double a, double b) { return a > b ? a : b; });
}

long long Comm::allreduceSumLL(long long v) {
    const int seq = transport_->nextCollectiveSeq();
    const int tagUp = collectiveTag(seq, 0);
    const int tagDown = collectiveTag(seq, 1);
    const int n = size();
    long long result = v;
    if (rank() == 0) {
        for (int r = 1; r < n; ++r) result += recvValue<long long>(r, tagUp);
        for (int r = 1; r < n; ++r) sendValue(r, tagDown, result);
    } else {
        sendValue(0, tagUp, v);
        result = recvValue<long long>(0, tagDown);
    }
    return result;
}

bool Comm::allAgree(bool localOk) {
    return allreduceMin(localOk ? 1.0 : 0.0) > 0.5;
}

std::vector<double> Comm::gather(double v) {
    const int seq = transport_->nextCollectiveSeq();
    const int tagGather = collectiveTag(seq, 0);
    const int n = size();
    if (rank() == 0) {
        std::vector<double> all(static_cast<std::size_t>(n));
        all[0] = v;
        for (int r = 1; r < n; ++r)
            all[static_cast<std::size_t>(r)] = recvValue<double>(r, tagGather);
        return all;
    }
    sendValue(0, tagGather, v);
    return {};
}

std::vector<std::vector<std::byte>>
Comm::gatherAllBytes(const std::vector<std::byte>& mine) {
    const int seq = transport_->nextCollectiveSeq();
    const int tagGatherBytes = collectiveTag(seq, 0);
    const int n = size();
    if (rank() == 0) {
        std::vector<std::vector<std::byte>> all(
            static_cast<std::size_t>(n));
        all[0] = mine;
        for (int r = 1; r < n; ++r)
            recv(r, tagGatherBytes, all[static_cast<std::size_t>(r)]);
        return all;
    }
    send(0, tagGatherBytes, mine.data(), mine.size());
    return {};
}

std::vector<std::vector<std::byte>>
Comm::alltoallBytes(std::vector<std::vector<std::byte>> out) {
    const int seq = transport_->nextCollectiveSeq();
    const int tag = collectiveTag(seq, 0);
    const int n = size();
    const int me = rank();
    TPF_ASSERT(static_cast<int>(out.size()) == n,
               "alltoallBytes needs one blob per rank");
    // Sends are buffered, so posting every send before the first receive
    // cannot deadlock. Starting at the next rank spreads the traffic.
    for (int k = 1; k < n; ++k) {
        const int dst = (me + k) % n;
        std::vector<std::byte>& blob = out[static_cast<std::size_t>(dst)];
        send(dst, tag, blob.data(), blob.size());
        std::vector<std::byte>().swap(blob);
    }
    std::vector<std::vector<std::byte>> in(static_cast<std::size_t>(n));
    in[static_cast<std::size_t>(me)] =
        std::move(out[static_cast<std::size_t>(me)]);
    for (int k = 1; k < n; ++k) {
        const int src = (me - k + n) % n;
        recv(src, tag, in[static_cast<std::size_t>(src)]);
    }
    return in;
}

void Comm::bcastBytes(void* data, std::size_t bytes) {
    const int seq = transport_->nextCollectiveSeq();
    const int tagBcast = collectiveTag(seq, 1);
    const int n = size();
    if (rank() == 0) {
        for (int r = 1; r < n; ++r) send(r, tagBcast, data, bytes);
    } else {
        std::vector<std::byte> buf;
        recv(0, tagBcast, buf);
        TPF_ASSERT(buf.size() == bytes, "bcast size mismatch");
        std::memcpy(data, buf.data(), bytes);
    }
}

namespace detail {
Comm makeComm(Transport* t) { return Comm(t); }
} // namespace detail

void runParallel(int nranks, const std::function<void(Comm&)>& f) {
    runParallel(defaultTransport(), nranks, f);
}

void runParallel(TransportKind kind, int nranks,
                 const std::function<void(Comm&)>& f) {
    TPF_ASSERT(transportCompiledIn(kind),
               "requested transport is not compiled into this binary");
    switch (kind) {
    case TransportKind::Thread:
        detail::runParallelThread(nranks, f, /*shuffleSeed=*/0);
        return;
    case TransportKind::Shm:
        detail::runParallelShm(nranks, f);
        return;
    case TransportKind::Mpi:
        detail::runParallelMpi(nranks, f);
        return;
    }
    TPF_ASSERT(false, "unknown transport kind");
}

void runParallelThreadShuffled(std::uint64_t seed, int nranks,
                               const std::function<void(Comm&)>& f) {
    TPF_ASSERT(seed != 0, "shuffled delivery needs a nonzero seed");
    detail::runParallelThread(nranks, f, seed);
}

} // namespace tpf::vmpi
