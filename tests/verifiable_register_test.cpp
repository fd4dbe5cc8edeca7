// Unit and property tests for Algorithm 1 (verifiable register).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/system.hpp"
#include "core/verifiable_register.hpp"
#include "runtime/harness.hpp"
#include "util/rng.hpp"
#include "witness_probe.hpp"

namespace swsig::core {
namespace {

using Reg = VerifiableRegister<int>;
using Sys = FreeSystem<Reg>;

Reg::Config cfg(int n, int f, int v0 = 0) {
  Reg::Config c;
  c.n = n;
  c.f = f;
  c.v0 = v0;
  return c;
}

TEST(VerifiableConfig, RejectsInsufficientResilience) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  EXPECT_THROW(Reg(space, cfg(3, 1)), std::invalid_argument);
  EXPECT_THROW(Reg(space, cfg(6, 2)), std::invalid_argument);
  EXPECT_NO_THROW(Reg(space, cfg(4, 1)));
  EXPECT_NO_THROW(Reg(space, cfg(7, 2)));
}

TEST(VerifiableConfig, SuboptimalOptIn) {
  runtime::FreeStepController ctrl;
  registers::Space space(ctrl);
  Reg::Config c = cfg(3, 1);
  c.allow_suboptimal = true;
  EXPECT_NO_THROW(Reg(space, c));
}

TEST(Verifiable, ReadReturnsInitialValue) {
  Sys sys(cfg(4, 1, 99));
  EXPECT_EQ(sys.as(2, [](Reg& r) { return r.read(); }), 99);
}

TEST(Verifiable, ReadSeesLastWrite) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(10);
    r.write(20);
  });
  EXPECT_EQ(sys.as(3, [](Reg& r) { return r.read(); }), 20);
}

TEST(Verifiable, SignFailsForUnwrittenValue) {
  Sys sys(cfg(4, 1));
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(5); }), SignResult::kFail);
}

TEST(Verifiable, SignSucceedsForWrittenValue) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(5); }),
            SignResult::kSuccess);
}

TEST(Verifiable, SignWorksForOlderValues) {
  // The writer may sign any previously written value, even after
  // overwriting it (Definition 10 discussion, §4).
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(1);
    r.write(2);
    r.write(3);
  });
  EXPECT_EQ(sys.as(1, [](Reg& r) { return r.sign(1); }),
            SignResult::kSuccess);
}

TEST(Verifiable, VerifyFalseWhenNothingSigned) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) { r.write(5); });  // written but NOT signed
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(5); }));
}

// [validity] Observation 11: after a successful Sign(v), every Verify(v)
// returns true.
TEST(Verifiable, ValidityAfterSign) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(5);
    ASSERT_EQ(r.sign(5), SignResult::kSuccess);
  });
  for (int k = 2; k <= 4; ++k)
    EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(5); }))
        << "reader p" << k;
}

// [unforgeability] Observation 12: Verify of a never-signed value is false,
// repeatedly and for every reader.
TEST(Verifiable, UnforgeabilityUnsignedValue) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    r.write(5);
    ASSERT_EQ(r.sign(5), SignResult::kSuccess);
  });
  for (int k = 2; k <= 4; ++k)
    EXPECT_FALSE(sys.as(k, [](Reg& r) { return r.verify(123); }));
}

// [relay] Observation 13: once some reader's Verify(v) returns true, every
// subsequent Verify(v) by any reader returns true.
TEST(Verifiable, RelayAcrossReaders) {
  Sys sys(cfg(7, 2));
  sys.as(1, [](Reg& r) {
    r.write(42);
    ASSERT_EQ(r.sign(42), SignResult::kSuccess);
  });
  ASSERT_TRUE(sys.as(2, [](Reg& r) { return r.verify(42); }));
  for (int round = 0; round < 3; ++round)
    for (int k = 2; k <= 7; ++k)
      EXPECT_TRUE(sys.as(k, [](Reg& r) { return r.verify(42); }));
}

TEST(Verifiable, MultipleSignedValuesAllVerify) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    for (int v = 1; v <= 8; ++v) {
      r.write(v);
      ASSERT_EQ(r.sign(v), SignResult::kSuccess);
    }
  });
  for (int v = 1; v <= 8; ++v)
    EXPECT_TRUE(sys.as(3, [v](Reg& r) { return r.verify(v); }));
}

TEST(Verifiable, SignedSubsetOnlyVerifies) {
  Sys sys(cfg(4, 1));
  sys.as(1, [](Reg& r) {
    for (int v = 1; v <= 6; ++v) r.write(v);
    ASSERT_EQ(r.sign(2), SignResult::kSuccess);
    ASSERT_EQ(r.sign(4), SignResult::kSuccess);
  });
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(1); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(2); }));
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(3); }));
  EXPECT_TRUE(sys.as(2, [](Reg& r) { return r.verify(4); }));
}

TEST(Verifiable, OperationsEnforceRoles) {
  Sys sys(cfg(4, 1));
  EXPECT_THROW(sys.as(2, [](Reg& r) { r.write(1); }), std::logic_error);
  EXPECT_THROW(sys.as(2, [](Reg& r) { r.sign(1); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.read(); }), std::logic_error);
  EXPECT_THROW(sys.as(1, [](Reg& r) { r.verify(1); }), std::logic_error);
}

// Concurrent verify storm while the writer signs: all verifies terminate
// and, once one returns true, later ones must as well (relay under real
// concurrency).
TEST(Verifiable, ConcurrentVerifyRelayConsistency) {
  Sys sys(cfg(4, 1));
  std::atomic<bool> any_true{false};
  std::atomic<bool> violation{false};
  runtime::Harness h;
  h.spawn(1, "op", [&](std::stop_token) {
    sys.alg().write(7);
    sys.alg().sign(7);
  });
  for (int k = 2; k <= 4; ++k) {
    h.spawn(k, "op", [&](std::stop_token) {
      for (int i = 0; i < 50; ++i) {
        const bool seen_before = any_true.load();
        const bool ok = sys.alg().verify(7);
        if (ok) any_true = true;
        if (seen_before && !ok) violation = true;  // relay broken
      }
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(violation.load());
  EXPECT_TRUE(any_true.load());  // sign completed, so last verifies succeed
}

// Design note 17: a free-mode help round writes R_j at most once, and not
// at all when R_j already holds every qualifying value. The paper-literal
// loop re-inserted all 64 signed values on every round.
TEST(Verifiable, HelpRoundWritesWitnessSetOnlyToAdopt) {
  Sys sys(cfg(4, 1));
  Reg& reg = sys.alg();
  std::set<int> signed_values;
  sys.as(1, [&](Reg& r) {
    for (int v = 1; v <= 64; ++v) {
      r.write(v);
      ASSERT_EQ(r.sign(v), SignResult::kSuccess);
      signed_values.insert(v);
    }
  });
  for (int v = 1; v <= 64; ++v)
    ASSERT_TRUE(sys.as(2 + v % 3, [v](Reg& r) { return r.verify(v); }));
  // A false Verify bumps C_k, so every helper runs a round and adopts
  // whatever it still lacks.
  EXPECT_FALSE(sys.as(2, [](Reg& r) { return r.verify(1000); }));
  ASSERT_TRUE(test_support::witnesses_hold(reg, signed_values));

  const auto before = test_support::witness_versions(reg);
  EXPECT_FALSE(sys.as(3, [](Reg& r) { return r.verify(1001); }));
  EXPECT_EQ(test_support::witness_versions(reg), before);

  sys.as(1, [](Reg& r) {
    r.write(65);
    ASSERT_EQ(r.sign(65), SignResult::kSuccess);
  });
  EXPECT_TRUE(sys.as(4, [](Reg& r) { return r.verify(65); }));
  ASSERT_TRUE(test_support::witnesses_hold(reg, std::set<int>{65}));
  const auto after = test_support::witness_versions(reg);
  for (int j = 2; j <= 4; ++j) EXPECT_EQ(after[j], before[j] + 1) << "R" << j;
}

// Soundness of the batched adoption (design note 17): a Byzantine p4 fills
// its own R_4 with unsigned values and claims them to every asker while p1
// signs others. One witness is below the f+1 threshold, so no honest R_j
// may ever adopt a planted value, however many rounds run.
TEST(Verifiable, PlantedWitnessValuesAreNeverAdopted) {
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
    for (int v = 1; v <= 64; ++v) {
      r.write(v);
      ASSERT_EQ(r.sign(v), SignResult::kSuccess);
    }
  });
  while (!planting_done) std::this_thread::yield();
  for (int v = 1; v <= 64; ++v)
    EXPECT_TRUE(sys.as(2 + v % 2, [v](Reg& r) { return r.verify(v); }));
  for (int v : planted)
    for (int k = 2; k <= 3; ++k)
      EXPECT_FALSE(sys.as(k, [v](Reg& r) { return r.verify(v); }));
  for (int j = 1; j <= 3; ++j)
    for (int v : (*reg.raw().witness)[j]->read())
      EXPECT_FALSE(planted.contains(v)) << "R" << j << " adopted " << v;
}

// Property sweep: random write/sign/verify workloads across (n, f) and
// seeds; checks validity + unforgeability + relay on every history.
struct SweepParam {
  int n;
  int f;
  std::uint64_t seed;
};

class VerifiableSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(VerifiableSweep, RandomWorkloadHonorsSpec) {
  const auto [n, f, seed] = GetParam();
  Sys sys(cfg(n, f));
  util::Rng rng(seed);

  std::set<int> written, signed_vals;
  // Writer phase: interleave writes and signs of random values.
  sys.as(1, [&](Reg& r) {
    for (int i = 0; i < 20; ++i) {
      const int v = static_cast<int>(rng.uniform(1, 10));
      if (rng.chance(1, 2)) {
        r.write(v);
        written.insert(v);
      } else {
        const auto res = r.sign(v);
        EXPECT_EQ(res == SignResult::kSuccess, written.contains(v));
        if (res == SignResult::kSuccess) signed_vals.insert(v);
      }
    }
  });
  // Reader phase: every signed value verifies true (validity), every
  // unsigned one false (unforgeability).
  for (int v = 1; v <= 10; ++v) {
    const int reader = 2 + static_cast<int>(rng.uniform(0, n - 2));
    const bool ok = sys.as(reader, [v](Reg& r) { return r.verify(v); });
    EXPECT_EQ(ok, signed_vals.contains(v)) << "value " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, VerifiableSweep,
    ::testing::Values(SweepParam{4, 1, 1}, SweepParam{4, 1, 2},
                      SweepParam{5, 1, 3}, SweepParam{7, 2, 4},
                      SweepParam{7, 2, 5}, SweepParam{10, 3, 6},
                      SweepParam{13, 4, 7}),
    [](const ::testing::TestParamInfo<SweepParam>& info) {
      return "n" + std::to_string(info.param.n) + "f" +
             std::to_string(info.param.f) + "s" +
             std::to_string(info.param.seed);
    });

// Deterministic mode: a full write/sign/verify scenario under the
// serialized scheduler, twice with the same seed, must produce identical
// traces and results.
TEST(VerifiableDeterministic, ReproducibleRuns) {
  auto run = [](std::uint64_t seed) {
    runtime::Harness h(
        {.deterministic = true,
         .policy = std::make_shared<runtime::RandomPolicy>(seed)});
    registers::Space space(h.controller());
    Reg reg(space, cfg(4, 1));
    std::vector<int> results;
    // Helpers stop via an in-schedule signal (the ops-done counter is only
    // read while a thread holds the step grant), NOT via request_stop():
    // a wall-clock stop would make the shutdown tail of the trace racy.
    std::atomic<int> ops_done{0};
    h.spawn(1, "op", [&](std::stop_token) {
      reg.write(5);
      reg.sign(5);
      ops_done.fetch_add(1);
    });
    h.spawn(2, "op", [&](std::stop_token) {
      results.push_back(reg.verify(5) ? 1 : 0);  // serialized: safe
      ops_done.fetch_add(1);
    });
    h.spawn(3, "op", [&](std::stop_token) {
      results.push_back(reg.verify(5) ? 1 : 0);
      ops_done.fetch_add(1);
    });
    for (int pid = 1; pid <= 4; ++pid) {
      h.spawn(pid, "help", [&reg, &ops_done](std::stop_token) {
        while (ops_done.load(std::memory_order_relaxed) < 3)
          reg.help_round();
      });
    }
    h.start();
    h.join();
    return std::pair(h.trace_hash(), results);
  };
  const auto [hash_a, res_a] = run(11);
  const auto [hash_b, res_b] = run(11);
  EXPECT_EQ(hash_a, hash_b);
  EXPECT_EQ(res_a, res_b);

  // A different seed explores a different interleaving.
  const auto [hash_c, res_c] = run(12);
  EXPECT_NE(hash_a, hash_c);
}

}  // namespace
}  // namespace swsig::core
