/// Tests for the virtual MPI layer: point-to-point matching, nonblocking
/// receives, barriers, deterministic collectives, exception propagation —
/// parameterized over every spawnable transport (thread, shm), so the same
/// semantic contract is enforced against in-process mailboxes and forked
/// processes over shared-memory rings alike. The mpi backend cannot be
/// spawned from a plain test process (mpirun owns process creation) and is
/// covered by running this binary under mpirun on an MPI build.
///
/// Also here: the collective-sequencing regression harness (randomized
/// delivery via runParallelThreadShuffled) and the dropped-Request death
/// test.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <numeric>

#include "vmpi/comm.h"

namespace tpf::vmpi {
namespace {

class VmpiTransport : public ::testing::TestWithParam<TransportKind> {
protected:
    /// runParallel over the transport under test.
    void run(int nranks, const std::function<void(Comm&)>& f) {
        runParallel(GetParam(), nranks, f);
    }
};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, VmpiTransport, ::testing::ValuesIn(spawnableTransports()),
    [](const ::testing::TestParamInfo<TransportKind>& paramInfo) {
        return transportName(paramInfo.param);
    });

TEST_P(VmpiTransport, SingleRankRunsInline) {
    int called = 0;
    run(1, [&](Comm& c) {
        EXPECT_EQ(c.rank(), 0);
        EXPECT_EQ(c.size(), 1);
        EXPECT_TRUE(c.isRoot());
        ++called;
    });
    EXPECT_EQ(called, 1);
}

TEST_P(VmpiTransport, ReportsItsName) {
    run(2, [&](Comm& c) {
        EXPECT_STREQ(c.transportName(), transportName(GetParam()));
    });
}

TEST_P(VmpiTransport, PingPong) {
    run(2, [](Comm& c) {
        if (c.rank() == 0) {
            c.sendValue<double>(1, 7, 3.25);
            EXPECT_EQ(c.recvValue<double>(1, 8), 6.5);
        } else {
            const double v = c.recvValue<double>(0, 7);
            c.sendValue<double>(0, 8, 2.0 * v);
        }
    });
}

TEST_P(VmpiTransport, TagAndSourceMatching) {
    run(3, [](Comm& c) {
        if (c.rank() == 0) {
            // Send out of order; receiver matches by tag.
            c.sendValue<int>(2, 20, 222);
            c.sendValue<int>(2, 10, 111);
        } else if (c.rank() == 1) {
            c.sendValue<int>(2, 10, 333);
        } else {
            EXPECT_EQ(c.recvValue<int>(0, 10), 111);
            EXPECT_EQ(c.recvValue<int>(0, 20), 222);
            EXPECT_EQ(c.recvValue<int>(1, 10), 333);
        }
    });
}

TEST_P(VmpiTransport, FifoOrderWithinSameTag) {
    run(2, [](Comm& c) {
        if (c.rank() == 0) {
            for (int i = 0; i < 10; ++i) c.sendValue<int>(1, 5, i);
        } else {
            for (int i = 0; i < 10; ++i) EXPECT_EQ(c.recvValue<int>(0, 5), i);
        }
    });
}

TEST_P(VmpiTransport, VectorMessages) {
    run(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::vector<double> v(1000);
            std::iota(v.begin(), v.end(), 0.0);
            c.sendVector(1, 1, v);
        } else {
            const auto v = c.recvVector<double>(0, 1);
            ASSERT_EQ(v.size(), 1000u);
            EXPECT_EQ(v[999], 999.0);
        }
    });
}

TEST_P(VmpiTransport, LargeMessagesExceedTheRing) {
    // Larger than the shm ring chunking threshold (capacity/4), so the shm
    // backend must split the payload into multiple records and the sender
    // must make progress even when the receiver is slow to drain.
    run(2, [](Comm& c) {
        constexpr std::size_t n = 3u << 20; // 24 MiB of doubles
        if (c.rank() == 0) {
            std::vector<double> v(n);
            std::iota(v.begin(), v.end(), 0.0);
            c.sendVector(1, 2, v);
        } else {
            const auto v = c.recvVector<double>(0, 2);
            ASSERT_EQ(v.size(), n);
            EXPECT_EQ(v.front(), 0.0);
            EXPECT_EQ(v[n / 2], static_cast<double>(n / 2));
            EXPECT_EQ(v.back(), static_cast<double>(n - 1));
        }
    });
}

TEST_P(VmpiTransport, IrecvCompletesOnWait) {
    run(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::vector<std::byte> buf;
            Request r = c.irecv(1, 3, &buf, sizeof(double));
            EXPECT_TRUE(r.valid());
            // Computation would happen here (communication hiding).
            c.wait(r);
            EXPECT_FALSE(r.valid());
            ASSERT_EQ(buf.size(), sizeof(double));
            double v;
            std::memcpy(&v, buf.data(), sizeof(double));
            EXPECT_EQ(v, 9.0);
        } else {
            c.sendValue<double>(0, 3, 9.0);
        }
    });
}

TEST_P(VmpiTransport, CancelledIrecvIsNotAnError) {
    // The teardown escape hatch (GhostExchange's destructor on unwinding):
    // cancelling instead of waiting must neither assert nor deadlock. A
    // barrier afterwards proves the transport stays functional.
    run(2, [](Comm& c) {
        if (c.rank() == 0) {
            std::vector<std::byte> buf;
            Request r = c.irecv(1, 4, &buf, sizeof(double));
            r.cancel();
            EXPECT_FALSE(r.valid());
        } else {
            c.sendValue<double>(0, 4, 1.0);
        }
        c.barrier();
    });
}

TEST_P(VmpiTransport, BarrierCompletes) {
    // Cross-rank memory assertions only work on the thread transport (see
    // BarrierSynchronizes); on process transports we at least pound on the
    // barrier to shake out lost-wakeup/generation bugs.
    run(4, [](Comm& c) {
        for (int i = 0; i < 50; ++i) c.barrier();
    });
}

TEST_P(VmpiTransport, AllreduceSumMinMax) {
    run(6, [](Comm& c) {
        const double mine = static_cast<double>(c.rank() + 1);
        EXPECT_DOUBLE_EQ(c.allreduceSum(mine), 21.0);
        EXPECT_DOUBLE_EQ(c.allreduceMin(mine), 1.0);
        EXPECT_DOUBLE_EQ(c.allreduceMax(mine), 6.0);
        EXPECT_EQ(c.allreduceSumLL(static_cast<long long>(c.rank())), 15);
    });
}

TEST_P(VmpiTransport, AllAgree) {
    run(4, [](Comm& c) {
        EXPECT_TRUE(c.allAgree(true));
        EXPECT_FALSE(c.allAgree(c.rank() != 2));
        EXPECT_FALSE(c.allAgree(false));
        EXPECT_TRUE(c.allAgree(true));
    });
}

TEST_P(VmpiTransport, GatherCollectsInRankOrder) {
    run(5, [](Comm& c) {
        const auto all = c.gather(static_cast<double>(c.rank() * 10));
        if (c.isRoot()) {
            ASSERT_EQ(all.size(), 5u);
            for (int r = 0; r < 5; ++r)
                EXPECT_EQ(all[static_cast<std::size_t>(r)], 10.0 * r);
        } else {
            EXPECT_TRUE(all.empty());
        }
    });
}

TEST_P(VmpiTransport, GatherAllBytesKeepsRankOrderAndSizes) {
    run(4, [](Comm& c) {
        // Variable-length, rank-dependent payloads, twice back to back —
        // the second gather must not cross-match the first one's messages.
        for (int round = 0; round < 2; ++round) {
            std::vector<std::byte> mine(
                static_cast<std::size_t>(c.rank() * 3 + round));
            for (std::size_t i = 0; i < mine.size(); ++i)
                mine[i] = static_cast<std::byte>(c.rank() * 10 + round);
            const auto all = c.gatherAllBytes(mine);
            if (c.isRoot()) {
                ASSERT_EQ(all.size(), 4u);
                for (int r = 0; r < 4; ++r) {
                    const auto& b = all[static_cast<std::size_t>(r)];
                    EXPECT_EQ(b.size(),
                              static_cast<std::size_t>(r * 3 + round));
                    for (const std::byte v : b)
                        EXPECT_EQ(static_cast<int>(v), r * 10 + round);
                }
            } else {
                EXPECT_TRUE(all.empty());
            }
        }
    });
}

/// out[d] of rank s in round k: s * 4 + d + k bytes of value s * 16 + d + k.
std::vector<std::vector<std::byte>> alltoallPayload(int rank, int ranks,
                                                    int round) {
    std::vector<std::vector<std::byte>> out(static_cast<std::size_t>(ranks));
    for (int d = 0; d < ranks; ++d)
        out[static_cast<std::size_t>(d)].assign(
            static_cast<std::size_t>(rank * 4 + d + round),
            static_cast<std::byte>(rank * 16 + d + round));
    return out;
}

/// What rank \p me must hold after alltoallBytes of alltoallPayload.
void expectAlltoallReceived(const std::vector<std::vector<std::byte>>& in,
                            int me, int ranks, int round) {
    ASSERT_EQ(in.size(), static_cast<std::size_t>(ranks));
    for (int s = 0; s < ranks; ++s) {
        const auto& b = in[static_cast<std::size_t>(s)];
        ASSERT_EQ(b.size(), static_cast<std::size_t>(s * 4 + me + round))
            << "from rank " << s << " round " << round;
        for (const std::byte v : b)
            EXPECT_EQ(static_cast<int>(v), s * 16 + me + round);
    }
}

TEST_P(VmpiTransport, AlltoallBytesRoutesEveryPair) {
    run(4, [](Comm& c) {
        // Rank- and destination-dependent sizes (rank 0 sends itself an
        // empty blob), twice back to back.
        for (int round = 0; round < 2; ++round)
            expectAlltoallReceived(
                c.alltoallBytes(alltoallPayload(c.rank(), 4, round)),
                c.rank(), 4, round);
    });
}

TEST_P(VmpiTransport, BcastDistributesRootValue) {
    run(4, [](Comm& c) {
        double v = c.isRoot() ? 42.5 : 0.0;
        v = c.bcast(v);
        EXPECT_EQ(v, 42.5);
    });
}

TEST_P(VmpiTransport, AllreduceIsDeterministicAcrossRuns) {
    // Rank-ordered combination: both runs must give bitwise equal sums even
    // for values where addition order matters. Root is the calling process
    // on every spawnable transport, so the captured result survives.
    double first = 0.0;
    for (int runIdx = 0; runIdx < 2; ++runIdx) {
        double result = 0.0;
        run(7, [&](Comm& c) {
            const double mine = 0.1 * static_cast<double>(c.rank() + 1) + 1e-13;
            const double s = c.allreduceSum(mine);
            if (c.isRoot()) result = s;
        });
        if (runIdx == 0)
            first = result;
        else
            EXPECT_EQ(result, first);
    }
}

TEST_P(VmpiTransport, ExceptionInRankPropagates) {
    EXPECT_THROW(run(3,
                     [](Comm& c) {
                         if (c.rank() == 2)
                             throw std::runtime_error("boom");
                     }),
                 std::runtime_error);
}

TEST_P(VmpiTransport, ExceptionInOneRankUnblocksTheOthers) {
    // The failing rank never sends; without failure propagation the healthy
    // rank would sit in recv() until the 120 s deadlock timeout. The test
    // completing quickly (with an exception) is the actual assertion.
    EXPECT_THROW(run(2,
                     [](Comm& c) {
                         if (c.rank() == 1)
                             throw std::runtime_error("early failure");
                         std::vector<std::byte> buf;
                         c.recv(1, 0, buf);
                     }),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Thread-transport-only checks
// ---------------------------------------------------------------------------

TEST(Vmpi, BarrierSynchronizes) {
    // Shared std::atomic across ranks only exists on the thread transport.
    for (int trial = 0; trial < 5; ++trial) {
        std::atomic<int> before{0};
        std::atomic<bool> ok{true};
        runParallel(TransportKind::Thread, 8, [&](Comm& c) {
            before.fetch_add(1);
            c.barrier();
            // After the barrier every rank must observe all increments.
            if (before.load() != 8) ok = false;
        });
        EXPECT_TRUE(ok.load());
    }
}

TEST(Vmpi, DefaultTransportIsUsedByPlainRunParallel) {
    runParallel(2, [](Comm& c) {
        EXPECT_STREQ(c.transportName(), transportName(defaultTransport()));
    });
}

// ---------------------------------------------------------------------------
// Dropped-request discipline
// ---------------------------------------------------------------------------

using VmpiDeathTest = VmpiTransport;
INSTANTIATE_TEST_SUITE_P(
    AllTransports, VmpiDeathTest, ::testing::ValuesIn(spawnableTransports()),
    [](const ::testing::TestParamInfo<TransportKind>& paramInfo) {
        return transportName(paramInfo.param);
    });

TEST_P(VmpiDeathTest, DroppedRequestAborts) {
    // A posted receive that goes out of scope without wait() (or an
    // explicit cancel()) leaks the matched message inside the transport —
    // it must die loudly, not silently desynchronize the tag stream.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            run(2, [](Comm& c) {
                if (c.rank() == 0) {
                    std::vector<std::byte> buf;
                    Request r = c.irecv(1, 6, &buf, sizeof(double));
                    // Dropped: r dies here, unwaited.
                } else {
                    c.sendValue<double>(0, 6, 4.0);
                }
            });
        },
        "destroyed without wait");
}

// ---------------------------------------------------------------------------
// Collective sequencing under adversarial delivery order
// ---------------------------------------------------------------------------

/// Witness that the shuffle harness is genuinely adversarial: with a
/// nonzero seed it permutes even same-tag messages (strictly harsher than
/// any real transport, which must keep per-(source, tag) FIFO), so nothing
/// about cross-message arrival order survives it.
TEST(VmpiShuffled, HarnessReordersSameTagMessages) {
    bool sawPermutation = false;
    for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
        std::vector<int> got;
        runParallelThreadShuffled(seed, 2, [&](Comm& c) {
            if (c.rank() == 0) {
                for (int i = 0; i < 16; ++i) c.sendValue<int>(1, 9, i);
            } else {
                got.clear();
                for (int i = 0; i < 16; ++i)
                    got.push_back(c.recvValue<int>(0, 9));
            }
        });
        std::vector<int> sorted = got;
        std::sort(sorted.begin(), sorted.end());
        std::vector<int> expect(16);
        std::iota(expect.begin(), expect.end(), 0);
        EXPECT_EQ(sorted, expect) << "messages lost or duplicated";
        if (!std::is_sorted(got.begin(), got.end())) sawPermutation = true;
    }
    EXPECT_TRUE(sawPermutation)
        << "shuffle harness never reordered a same-tag stream — the "
           "randomized-delivery regression tests below prove nothing";
}

/// Regression for the tag-reuse/ordering bug: collectives used fixed
/// internal tags, so their correctness silently relied on the thread
/// backend's strict FIFO delivery — message streams of *back-to-back*
/// collectives could cross-match under any reordering. Every collective
/// now consumes a per-rank sequence number mixed into its tags; under
/// fully randomized delivery the whole collective family must still
/// produce exact results.
TEST(VmpiShuffled, BackToBackCollectivesSurviveRandomizedDelivery) {
    for (const std::uint64_t seed : {7ull, 99ull, 123456789ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        runParallelThreadShuffled(seed, 4, [](Comm& c) {
            for (int round = 0; round < 8; ++round) {
                // Mixed, unseparated collectives: gathers directly after
                // reductions after broadcasts, with rank- and round-
                // dependent payloads so a cross-matched message changes a
                // checked value instead of passing by luck.
                const double mine =
                    static_cast<double>(c.rank() + 1) * (round + 1);
                EXPECT_DOUBLE_EQ(c.allreduceSum(mine), 10.0 * (round + 1));
                EXPECT_DOUBLE_EQ(c.allreduceMax(mine), 4.0 * (round + 1));

                const auto all = c.gather(mine);
                if (c.isRoot()) {
                    ASSERT_EQ(all.size(), 4u);
                    for (int r = 0; r < 4; ++r)
                        EXPECT_EQ(all[static_cast<std::size_t>(r)],
                                  static_cast<double>(r + 1) * (round + 1));
                }

                std::vector<std::byte> blob(
                    static_cast<std::size_t>(c.rank() + round + 1),
                    static_cast<std::byte>(c.rank() ^ round));
                const auto blobs = c.gatherAllBytes(blob);
                if (c.isRoot()) {
                    ASSERT_EQ(blobs.size(), 4u);
                    for (int r = 0; r < 4; ++r) {
                        const auto& b = blobs[static_cast<std::size_t>(r)];
                        ASSERT_EQ(b.size(),
                                  static_cast<std::size_t>(r + round + 1));
                        for (const std::byte v : b)
                            EXPECT_EQ(static_cast<int>(v), r ^ round);
                    }
                }

                expectAlltoallReceived(
                    c.alltoallBytes(alltoallPayload(c.rank(), 4, round)),
                    c.rank(), 4, round);

                int token = c.isRoot() ? round * 31 : -1;
                token = c.bcast(token);
                EXPECT_EQ(token, round * 31);

                EXPECT_TRUE(c.allAgree(true));
                EXPECT_FALSE(c.allAgree(c.rank() != round % 4));
            }
        });
    }
}

/// The gatherAllBytes regression in its pure point-to-point form: two
/// gathers back to back with different payload sizes. Under the old fixed
/// tags, a reordered delivery let round 2's (larger) payload match round
/// 1's receive. Shuffled delivery makes that reordering certain to occur
/// across seeds.
TEST(VmpiShuffled, RepeatedGatherAllBytesDoNotCrossMatch) {
    for (const std::uint64_t seed : {11ull, 42ull, 31337ull}) {
        SCOPED_TRACE("seed=" + std::to_string(seed));
        runParallelThreadShuffled(seed, 3, [](Comm& c) {
            for (int round = 0; round < 6; ++round) {
                std::vector<std::byte> mine(
                    static_cast<std::size_t>(1 + c.rank() + 5 * round),
                    static_cast<std::byte>(100 + 10 * c.rank() + round));
                const auto all = c.gatherAllBytes(mine);
                if (c.isRoot()) {
                    ASSERT_EQ(all.size(), 3u);
                    for (int r = 0; r < 3; ++r) {
                        const auto& b = all[static_cast<std::size_t>(r)];
                        ASSERT_EQ(b.size(),
                                  static_cast<std::size_t>(1 + r + 5 * round))
                            << "rank " << r << " round " << round
                            << ": cross-matched a neighboring gather";
                        for (const std::byte v : b)
                            EXPECT_EQ(static_cast<int>(v),
                                      100 + 10 * r + round);
                    }
                }
            }
        });
    }
}

} // namespace
} // namespace tpf::vmpi
