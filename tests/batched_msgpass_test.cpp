// Batched + sharded message-passing substrate: register semantics match
// the unbatched EmulatedSpace (trace equivalence under a deterministic
// reorder seed), async writes amortize rounds, shards isolate registers,
// and Algorithms 1–3 run unchanged on top (the SpaceT seam).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sticky_register.hpp"
#include "core/verifiable_register.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "msgpass/batched_space.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"
#include "authenticated_full_stack.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

class BatchedTest : public ::testing::Test {
 protected:
  BatchedEmulatedSpace space{
      {.n = 4, .f = 1, .reorder_seed = 0, .shards = 2, .batch_max = 4}};
};

TEST_F(BatchedTest, InitialValueReadable) {
  auto& reg = space.make_swmr<int>(1, 42, "r");
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 42);
}

TEST_F(BatchedTest, WriteThenReadFromAllProcesses) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(7);
  }
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 7) << "p" << pid;
  }
}

TEST_F(BatchedTest, SequenceOfWritesReadsLatest) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 5; ++v) reg.write(v);
  }
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 5);
}

TEST_F(BatchedTest, NonOwnerWriteRejected) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  ThisProcess::Binder bind(2);
  EXPECT_THROW(reg.write(5), registers::PortViolation);
  EXPECT_THROW(reg.write_async(5), registers::PortViolation);
}

// writers_/state_ are indexed by owner pid: an out-of-range owner must be
// a clean configuration error, not out-of-bounds UB at the first submit.
TEST_F(BatchedTest, OutOfRangeOwnerRejectedAtCreation) {
  EXPECT_THROW(space.make_swmr<int>(5, 0, "bad"), std::invalid_argument);
  EXPECT_THROW(space.make_swmr<int>(0, 0, "bad"), std::invalid_argument);
  EXPECT_THROW(space.make_swsr<int>(-1, 2, 0, "bad"), std::invalid_argument);
}

TEST_F(BatchedTest, UpdateIsOwnerRmw) {
  auto& reg = space.make_swmr<std::set<int>>(1, {}, "r");
  {
    ThisProcess::Binder bind(1);
    reg.update([](std::set<int>& s) { s.insert(3); });
    reg.update([](std::set<int>& s) { s.insert(5); });
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), (std::set<int>{3, 5}));
}

TEST_F(BatchedTest, SwsrReaderEnforced) {
  auto& reg = space.make_swsr<int>(1, 3, 9, "r13");
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(reg.read(), 9);
  }
  ThisProcess::Binder bind(2);
  EXPECT_THROW(reg.read(), registers::PortViolation);
}

// Async writes ride shared rounds: after awaiting the last ticket every
// earlier write is complete too (tickets complete in order), and readers
// see the final value.
TEST_F(BatchedTest, AsyncWritesCompleteInOrder) {
  auto& reg = space.make_swmr<int>(1, 0, "r");
  std::uint64_t last = 0;
  {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 16; ++v) last = reg.write_async(v);
    reg.await(last);
    EXPECT_EQ(reg.read(), 16);  // owner view
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 16);
}

// The owner-RMW lost-update regression on the batched substrate: two
// owner-bound threads (the model's op + Help() threads) hammer update();
// the writer-side mutex must make every insert survive.
TEST_F(BatchedTest, OwnerRmwFromTwoThreadsLosesNoUpdates) {
  auto& reg = space.make_swmr<std::set<int>>(1, {}, "r");
  constexpr int kPerThread = 40;
  std::thread a([&] {
    ThisProcess::Binder bind(1);
    for (int i = 0; i < kPerThread; ++i)
      reg.update([&](std::set<int>& s) { s.insert(i); });
  });
  std::thread b([&] {
    ThisProcess::Binder bind(1);
    for (int i = 0; i < kPerThread; ++i)
      reg.update([&](std::set<int>& s) { s.insert(1000 + i); });
  });
  a.join();
  b.join();
  {
    ThisProcess::Binder bind(1);
    EXPECT_EQ(reg.read().size(), 2u * kPerThread);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read().size(), 2u * kPerThread);
}

// Registers round-robin across shards: with two shards, consecutive
// registers land on different networks and their traffic does not mix.
TEST_F(BatchedTest, RegistersShardAcrossNetworks) {
  ASSERT_EQ(space.shard_count(), 2);
  auto& r0 = space.make_swmr<int>(1, 0, "r0");  // reg id 0 -> shard 0
  auto& r1 = space.make_swmr<int>(2, 0, "r1");  // reg id 1 -> shard 1
  const std::uint64_t s0_before = space.shard(0).network().messages_sent();
  const std::uint64_t s1_before = space.shard(1).network().messages_sent();
  {
    ThisProcess::Binder bind(1);
    r0.write(5);
  }
  EXPECT_GT(space.shard(0).network().messages_sent(), s0_before);
  EXPECT_EQ(space.shard(1).network().messages_sent(), s1_before);
  {
    ThisProcess::Binder bind(2);
    r1.write(6);
  }
  EXPECT_GT(space.shard(1).network().messages_sent(), s1_before);
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(r0.read(), 5);
    EXPECT_EQ(r1.read(), 6);
  }
}

// Concurrent owners on different shards make progress independently.
TEST_F(BatchedTest, ConcurrentOwnersOnDistinctShards) {
  auto& r0 = space.make_swmr<int>(1, 0, "r0");
  auto& r1 = space.make_swmr<int>(2, 0, "r1");
  std::thread w1([&] {
    ThisProcess::Binder bind(1);
    for (int v = 1; v <= 20; ++v) r0.write(v);
  });
  std::thread w2([&] {
    ThisProcess::Binder bind(2);
    for (int v = 1; v <= 20; ++v) r1.write(v);
  });
  w1.join();
  w2.join();
  ThisProcess::Binder bind(3);
  EXPECT_EQ(r0.read(), 20);
  EXPECT_EQ(r1.read(), 20);
}

TEST_F(BatchedTest, NoTornOrInventedValues) {
  auto& reg = space.make_swmr<std::pair<int, int>>(1, {0, 0}, "pair");
  std::atomic<bool> stop{false};
  std::atomic<bool> bad{false};
  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    for (int i = 1; i <= 30; ++i) reg.write({i, -i});
    stop = true;
  });
  std::vector<std::thread> readers;
  for (int pid = 2; pid <= 4; ++pid) {
    readers.emplace_back([&, pid] {
      ThisProcess::Binder bind(pid);
      while (!stop.load()) {
        const auto [a, b] = reg.read();
        if (b != -a) bad = true;  // torn/invented pair
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_FALSE(bad.load());
}

// ---------------------------------------- batched vs unbatched equivalence

// Same deterministic reorder seed, same client schedule: the batched space
// (any shard/batch configuration) produces exactly the read trace of the
// unbatched EmulatedSpace. Batching groups an owner's writes but never
// reorders them, so the substrates are observationally equivalent. The
// schedule has two phases: per-write rounds with a read after each, then
// an async burst into TWO registers of the same owner — on the batched
// spaces those ops ride shared multi-op rounds (the achieved batch exceeds
// 1, so the round apply loop that walks a digest's op vector is on the
// hook: dropping or mis-routing any op would corrupt a register's final
// value).
TEST(BatchedEquivalence, TraceMatchesUnbatchedUnderReorderSeed) {
  constexpr std::uint64_t kSeed = 1234;
  constexpr int kWrites = 12;
  constexpr int kBurst = 8;
  // `burst(r0, r1)` issues writes 101..100+kBurst to r0 and 201..200+kBurst
  // to r1, interleaved, and returns once all are durable.
  const auto drive = [&](auto& space, const auto& burst) {
    auto& r0 = space.template make_swmr<int>(1, 0, "r0");
    auto& r1 = space.template make_swmr<int>(1, 0, "r1");
    std::vector<int> trace;
    for (int v = 1; v <= kWrites; ++v) {
      {
        ThisProcess::Binder bind(1);
        r0.write(v);
      }
      ThisProcess::Binder bind(2);
      trace.push_back(r0.read());
    }
    {
      ThisProcess::Binder bind(1);
      burst(r0, r1);
    }
    ThisProcess::Binder bind(3);
    trace.push_back(r0.read());
    trace.push_back(r1.read());
    return trace;
  };
  std::vector<int> expected;
  {
    EmulatedSpace space({.n = 4, .f = 1, .reorder_seed = kSeed});
    expected = drive(space, [&](auto& r0, auto& r1) {
      for (int i = 1; i <= kBurst; ++i) {
        r0.write(100 + i);
        r1.write(200 + i);
      }
    });
  }
  for (const auto& [shards, batch] :
       std::vector<std::pair<int, int>>{{1, 1}, {1, 8}, {2, 4}}) {
    BatchedEmulatedSpace space({.n = 4,
                                .f = 1,
                                .reorder_seed = kSeed,
                                .shards = shards,
                                .batch_max = batch});
    const auto trace = drive(space, [&](auto& r0, auto& r1) {
      std::uint64_t t0 = 0, t1 = 0;
      for (int i = 1; i <= kBurst; ++i) {
        t0 = r0.write_async(100 + i);
        t1 = r1.write_async(200 + i);
      }
      r0.await(t0);
      r1.await(t1);
    });
    EXPECT_EQ(trace, expected) << "shards=" << shards
                               << " batch_max=" << batch;
  }
}

// ----------------------------------- pipelined bursts under lincheck

// Overlapping async write bursts (depth-4 windows through the group-commit
// gate) racing coalesced read bursts from three reader processes: the
// recorded history must be linearizable. Writes are recorded as pending
// from write_async (invoke) until their await returns (respond), so the
// checker sees the real overlap windows — a read concurrent with an
// unsettled write may return either value, but reads after the await must
// never regress.
TEST(BatchedLincheck, OverlappingAsyncWriteAndReadBurstsLinearize) {
  BatchedEmulatedSpace space(
      {.n = 4, .f = 1, .shards = 1, .batch_max = 8, .pipeline_depth = 4});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  lincheck::HistoryRecorder rec;

  std::thread writer([&] {
    ThisProcess::Binder bind(1);
    int v = 0;
    for (int burst = 0; burst < 6; ++burst) {
      struct InFlight {
        int token;
        std::uint64_t ticket;
      };
      std::vector<InFlight> window;
      for (int i = 0; i < 4; ++i) {
        ++v;
        const int token = rec.invoke("r", "write", std::to_string(v));
        window.push_back({token, reg.write_async(v)});
      }
      for (const InFlight& op : window) {
        reg.await(op.ticket);
        rec.respond(op.token, "done");
      }
    }
  });
  std::vector<std::thread> readers;
  for (int pid = 2; pid <= 4; ++pid) {
    readers.emplace_back([&, pid] {
      ThisProcess::Binder bind(pid);
      for (int i = 0; i < 16; ++i) {
        rec.record("r", "read", "", [&] { return reg.read(); },
                   [](int x) { return std::to_string(x); });
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();

  const auto ops = rec.operations();
  ASSERT_EQ(ops.size(), 24u + 3u * 16u);
  const lincheck::SpecFactory factory = [](const std::string&) {
    return std::make_unique<lincheck::PlainRegisterSpec>("0");
  };
  const auto result = lincheck::check_linearizable(ops, factory);
  EXPECT_EQ(result.verdict, lincheck::Verdict::kLinearizable)
      << result.detail << " (states=" << result.states_explored << ")";
}

// ------------------------------- Algorithms 1–3 on the batched substrate

// The closing corollary on the batched substrate: Algorithm 1 (verifiable
// register) runs unchanged — the SpaceT seam is satisfied by
// BatchedEmulatedSpace.
TEST(BatchedFullStack, VerifiableRegisterRunsUnchanged) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 2, .batch_max = 4});
  using Reg = core::VerifiableRegister<int, BatchedEmulatedSpace>;
  Reg::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  cfg.v0 = 0;
  Reg reg(space, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= 4; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested() && !stop.load()) {
        if (!reg.help_round()) std::this_thread::yield();
      }
    });
  }

  {
    ThisProcess::Binder bind(1);
    reg.write(5);
    ASSERT_EQ(reg.sign(5), core::SignResult::kSuccess);
  }
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(reg.read(), 5);
    EXPECT_TRUE(reg.verify(5));
    EXPECT_FALSE(reg.verify(9));
  }
  {
    ThisProcess::Binder bind(3);
    EXPECT_TRUE(reg.verify(5));
  }
  stop = true;
  for (auto& t : helpers) t.request_stop();
}

// Algorithm 2 (authenticated register), batched: Write, Read, Verify of
// written and unwritten values, and a linearizable recorded history.
TEST(BatchedFullStack, AuthenticatedRegisterRunsUnchanged) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 2, .batch_max = 4});
  test_support::check_authenticated_register_over(space);
}

// Algorithm 3 (sticky register): non-equivocation end to end, batched.
TEST(BatchedFullStack, StickyRegisterRunsUnchanged) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 2, .batch_max = 4});
  using Reg = core::StickyRegister<int, BatchedEmulatedSpace>;
  Reg::Config cfg;
  cfg.n = 4;
  cfg.f = 1;
  Reg reg(space, cfg);

  std::atomic<bool> stop{false};
  std::vector<std::jthread> helpers;
  for (int pid = 1; pid <= 4; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested() && !stop.load()) {
        if (!reg.help_round()) std::this_thread::yield();
      }
    });
  }

  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), std::optional<int>(11)) << "p" << pid;
  }
  stop = true;
  for (auto& t : helpers) t.request_stop();
}

}  // namespace
}  // namespace swsig::msgpass
