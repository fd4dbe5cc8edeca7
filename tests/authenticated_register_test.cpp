// Unit and property tests for Algorithm 2 (authenticated register).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/authenticated_register.hpp"
#include "core/system.hpp"
#include "runtime/harness.hpp"
#include "util/rng.hpp"
#include "witness_probe.hpp"

namespace swsig::core {
namespace {

using Reg = AuthenticatedRegister<int>;
using Sys = FreeSystem<Reg>;

Reg::Config cfg(int n, int f, int v0 = 0) {
  Reg::Config c;
  c.n = n;
  c.f = f;
  c.v0 = v0;
  return c;
}

TEST(AuthenticatedConfig, RejectsInsufficientResilience) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  EXPECT_THROW(Reg(space, cfg(3, 1)), std::invalid_argument);
  EXPECT_NO_THROW(Reg(space, cfg(4, 1)));
}

TEST(Authenticated, ReadReturnsInitialValue) {
  Sys sys(cfg(4, 1, 77));
  EXPECT_EQ(sys.as(2, [](Reg& r) { return r.read(); }), 77);
}

TEST(Authenticated, ReadSeesLastWrite) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(10);
    r.write(20);
    r.write(30);
  });
  EXPECT_EQ(sys.as(2, [](Reg& r) { return r.read(); }), 30);
}

// [validity] Observation 16: every written value verifies, immediately —
// write and "sign" are atomic; there is no unsigned gap as in the
// verifiable register.
TEST(Authenticated, ValidityEveryWriteVerifies) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });
  for (int k = 2; k <= 4; ++k)
    EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(5); }));
}

// Initial value is deemed signed: Verify(v0) always true (Definition 15).
TEST(Authenticated, InitialValueAlwaysVerifies) {
  Sys sys(cfg(4, 1, 9));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(9); }));
  sys.as(1, [](Reg& r) { r.write(5); });
  EXPECT_TRUE(sys.as(3, [](Reg& r) { return r.verify(9); }));
}

// [unforgeability] Observation 17: never-written values do not verify.
TEST(Authenticated, UnforgeabilityUnwrittenValue) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(123); }));
  EXPECT_FALSE(sys.as(3, [](Reg& r) { return r.verify(123); }));
}

// Old (overwritten) values still verify: the register "signs" everything
// it ever wrote.
TEST(Authenticated, OverwrittenValuesStillVerify) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(1);
    r.write(2);
    r.write(3);
  });
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(1); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(2); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(3); }));
}

// [relay] Observation 18.
TEST(Authenticated, RelayAcrossReaders) {
  Sys sys(cfg(7, 2));
  sys.as(1, [](Reg& r) { r.write(42); });
  ASSERT_TRUE(sys.as(2, [](Reg& r) { return r.verify(42); }));
  for (int round = 0; round < 3; ++round)
    for (int k = 2; k <= 7; ++k)
      EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(42); }));
}

// Observation 19: if a Read returns v, subsequent Verify(v) returns true.
TEST(Authenticated, ReadImpliesVerify) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(13); });
  const int v = sys.as(2, [](Reg& r) { return r.read(); });
  for (int k = 2; k <= 4; ++k)
    EXPECT_TRUE(sys.as(k, [v](Reg& r) { return r.verify(v); }));
}

TEST(Authenticated, OperationsEnforceRoles) {
  Sys sys(cfg(4, 1));
  EXPECT_THROW(sys.as(2, [](Reg& r) { r.write(1); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.read(); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.verify(1); }), std::logic_error);
}

// Byzantine writer erases its register (writes the empty set): readers must
// fall back to v0, and Observation 19 must survive — Read never returns a
// value whose Verify would subsequently fail.
TEST(Authenticated, ByzantineEraseFallsBackToInitial) {
  Sys sys(cfg(4, 1, 0));
  sys.as(1, [](Reg& r) { r.write(5); });
  // Let a reader verify 5 so witnesses exist.
  ASSERT_TRUE(sys.as(2, [](Reg& r) { return r.verify(5); }));
  // Byzantine erase: p1 rewrites its own R_1 to empty (allowed: own port).
  sys.as(1, [](Reg& r) { r.raw().writer_set->write({}); });
  // Read now finds no tuples; must return v0 = 0, not garbage.
  EXPECT_EQ(sys.as(3, [](Reg& r) { return r.read(); }), 0);
  // Relay: 5 was verified once, so it must verify forever, erase or not.
  EXPECT_TRUE(sys.as(3, [](Reg& r) { return r.verify(5); }));
}

// A Byzantine writer removes the latest value but readers who saw it via
// Read still rely on Observation 19: Read re-verifies before returning.
TEST(Authenticated, ReadNeverReturnsUnverifiableValue) {
  Sys sys(cfg(4, 1, 0));
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  runtime::Harness h;
  // Byzantine writer: churns values and erases them again, via raw port.
  h.spawn(1, "byz", [&](std::stop_token) {
    auto raw = sys.alg().raw();
    for (int i = 1; i <= 200; ++i) {
      raw.writer_set->update([&](Reg::StampedSet& s) {
        s.insert({static_cast<SeqNo>(i), i});
      });
      raw.writer_set->write({});  // erase everything
    }
    stop = true;
  });
  for (int k = 2; k <= 4; ++k) {
    h.spawn(k, "op", [&](std::stop_token) {
      while (!stop.load()) {
        const int v = sys.alg().read();
        if (v != 0 && !sys.alg().verify(v)) violation = true;
      }
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(violation.load());
}

// Design note 17, Algorithm 2 (L33-35): a free-mode help round writes R_j
// at most once, and not at all when R_j already holds every qualifying
// value.
TEST(Authenticated, HelpRoundWritesWitnessSetOnlyToAdopt) {
  Sys sys(cfg(4, 1));
  Reg& reg = sys.alg();
  std::set<int> written{0};  // v0 counts as signed
  sys.as(1, [&](Reg& r) {
    for (int v = 1; v <= 64; ++v) {
      r.write(v);
      written.insert(v);
    }
  });
  for (int v = 1; v <= 64; ++v)
    ASSERT_TRUE(sys.as(2 + v % 3, [v](Reg& r) { return r.verify(v); }));
  // A false Verify bumps C_k, so every helper runs a round and adopts
  // whatever it still lacks.
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(1000); }));
  ASSERT_TRUE(test_support::witnesses_hold(reg, written));

  const auto before = test_support::witness_versions(reg);
  EXPECT_FALSE(sys.as(3, [](Reg& r) { return r.verify(1001); }));
  EXPECT_EQ(test_support::witness_versions(reg), before);

  sys.as(1, [](Reg& r) { r.write(65); });
  EXPECT_TRUE(sys.as(4, [](Reg& r) { return r.verify(65); }));
  ASSERT_TRUE(test_support::witnesses_hold(reg, std::set<int>{65}));
  const auto after = test_support::witness_versions(reg);
  for (int j = 2; j <= 4; ++j) EXPECT_EQ(after[j], before[j] + 1) << "R" << j;
}

// Soundness of the batched adoption: a Byzantine p4 fills its own R_4 with
// unwritten values and claims them to every asker while p1 writes others;
// no honest R_j may adopt a value only one witness holds.
TEST(Authenticated, PlantedWitnessValuesAreNeverAdopted) {
  std::set<int> planted;  // outlives the system, which joins p4's thread
  for (int v = 1000; v < 1032; ++v) planted.insert(v);
  std::atomic<bool> planting_done{false};
  Sys sys(cfg(4, 1), HelperOptions{.exclude = {4}});
  Reg& reg = sys.alg();
  sys.spawn(4, [&](std::stop_token st) {
    auto raw = reg.raw();
    for (int v : planted)
      (*raw.witness)[4]->update([v](Reg::ValueSet& s) { s.insert(v); });
    planting_done = true;
    while (!st.stop_requested()) {
      for (int k = 2; k <= 3; ++k)
        (*raw.channel)[4][k]->write({planted, (*raw.round)[k]->read()});
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  sys.as(1, [](Reg& r) {
    for (int v = 1; v <= 64; ++v) r.write(v);
  });
  while (!planting_done) std::this_thread::yield();
  for (int v = 1; v <= 64; ++v)
    EXPECT_TRUE(sys.as(2 + v % 2, [v](Reg& r) { return r.verify(v); }));
  for (int v : planted)
    for (int k = 2; k <= 3; ++k)
      EXPECT_FALSE(sys.as(k, [v](Reg& r) { return r.verify(v); }));
  for (int j = 2; j <= 3; ++j)
    for (int v : (*reg.raw().witness)[j]->read())
      EXPECT_FALSE(planted.contains(v)) << "R" << j << " adopted " << v;
}

// Property sweep over (n, f, seed): random write/verify workloads.
struct SweepParam {
  int n;
  int f;
  std::uint64_t seed;
};

class AuthenticatedSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(AuthenticatedSweep, RandomWorkloadHonorsSpec) {
  const auto [n, f, seed] = GetParam();
  Sys sys(cfg(n, f));
  util::Rng rng(seed);

  std::set<int> written{0};  // v0 counts as written
  int last = 0;
  sys.as(1, [&](Reg& r) {
    for (int i = 0; i < 15; ++i) {
      const int v = static_cast<int>(rng.uniform(1, 10));
      r.write(v);
      written.insert(v);
      last = v;
    }
  });
  EXPECT_EQ(sys.as(2, [](Reg& r) { return r.read(); }), last);
  for (int v = 0; v <= 10; ++v) {
    const int reader = 2 + static_cast<int>(rng.uniform(0, n - 2));
    const bool ok = sys.as(reader, [v](Reg& r) { return r.verify(v); });
    EXPECT_EQ(ok, written.contains(v)) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AuthenticatedSweep,
    ::testing::Values(SweepParam{4, 1, 1}, SweepParam{4, 1, 2},
                      SweepParam{5, 1, 3}, SweepParam{7, 2, 4},
                      SweepParam{10, 3, 5}, SweepParam{13, 4, 6}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "f" +
             std::to_string(info.param.f) + "s" +
             std::to_string(info.param.seed);
    });

// Works with a non-trivial value domain too.
TEST(Authenticated, StringValues) {
  FreeSystem<AuthenticatedRegister<std::string>> sys([] {
    AuthenticatedRegister<std::string>::Config c;
    c.n = 4;
    c.f = 1;
    c.v0 = "init";
    return c;
  }());
  sys.as(1, [](AuthenticatedRegister<std::string>& r) { r.write("hello"); });
  EXPECT_EQ(sys.as(2, [](AuthenticatedRegister<std::string>& r) {
    return r.read();
  }),
            "hello");
  EXPECT_TRUE(sys.as(3, [](AuthenticatedRegister<std::string>& r) {
    return r.verify("hello");
  }));
  EXPECT_FALSE(sys.as(3, [](AuthenticatedRegister<std::string>& r) {
    return r.verify("forged");
  }));
}

}  // namespace
}  // namespace swsig::core
