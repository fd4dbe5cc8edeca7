// Schedule-coverage tests: run the register algorithms under MANY seeded
// deterministic interleavings and check every recorded history with the
// Wing–Gong linearizability checker plus the paper's property checkers.
// This explores interleavings a free-running scheduler would rarely hit,
// and every failure is replayable from its seed.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "core/authenticated_register.hpp"
#include "core/sticky_register.hpp"
#include "core/system.hpp"
#include "core/test_or_set.hpp"
#include "core/verifiable_register.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/properties.hpp"
#include "lincheck/register_specs.hpp"
#include "runtime/harness.hpp"
#include "byzantine/behaviors.hpp"
#include "runtime/schedule_policy.hpp"

namespace swsig {
namespace {

using lincheck::check_linearizable;
using lincheck::check_relay;
using lincheck::check_uniqueness;
using lincheck::check_validity;
using lincheck::HistoryRecorder;

std::string render_bool(bool b) { return b ? "true" : "false"; }

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

// --------------------------------------------------------- verifiable

TEST_P(SeedSweep, VerifiableLinearizableUnderScheduler) {
  const std::uint64_t seed = GetParam();
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::VerifiableRegister<int> reg(space, {.n = 4, .f = 1, .v0 = 0});
  HistoryRecorder rec;
  std::atomic<int> ops_done{0};

  h.spawn(1, "op", [&](std::stop_token) {
    rec.record("write", "1", [&] { reg.write(1); return true; },
               [](bool) { return std::string("done"); });
    rec.record("sign", "1", [&] { return reg.sign(1); },
               [](core::SignResult r) {
                 return std::string(
                     r == core::SignResult::kSuccess ? "success" : "fail");
               });
    rec.record("write", "2", [&] { reg.write(2); return true; },
               [](bool) { return std::string("done"); });
    ops_done.fetch_add(1);
  });
  h.spawn(2, "op", [&](std::stop_token) {
    rec.record("verify", "1", [&] { return reg.verify(1); }, render_bool);
    rec.record("read", "", [&] { return reg.read(); },
               [](int v) { return std::to_string(v); });
    ops_done.fetch_add(1);
  });
  h.spawn(3, "op", [&](std::stop_token) {
    rec.record("verify", "2", [&] { return reg.verify(2); }, render_bool);
    rec.record("verify", "1", [&] { return reg.verify(1); }, render_bool);
    ops_done.fetch_add(1);
  });
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  EXPECT_TRUE(
      check_linearizable(ops, lincheck::VerifiableRegisterSpec("0"))
          .linearizable())
      << "seed " << seed;
  EXPECT_TRUE(check_relay(ops).empty()) << "seed " << seed;
  EXPECT_TRUE(check_validity(ops).empty()) << "seed " << seed;
}

// ------------------------------------------------------ authenticated

TEST_P(SeedSweep, AuthenticatedLinearizableUnderScheduler) {
  const std::uint64_t seed = GetParam();
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::AuthenticatedRegister<int> reg(space, {.n = 4, .f = 1, .v0 = 0});
  HistoryRecorder rec;
  std::atomic<int> ops_done{0};

  h.spawn(1, "op", [&](std::stop_token) {
    for (int v : {1, 2}) {
      rec.record("write", std::to_string(v),
                 [&] { reg.write(v); return true; },
                 [](bool) { return std::string("done"); });
    }
    ops_done.fetch_add(1);
  });
  h.spawn(2, "op", [&](std::stop_token) {
    rec.record("read", "", [&] { return reg.read(); },
               [](int v) { return std::to_string(v); });
    rec.record("verify", "1", [&] { return reg.verify(1); }, render_bool);
    ops_done.fetch_add(1);
  });
  h.spawn(3, "op", [&](std::stop_token) {
    rec.record("verify", "0", [&] { return reg.verify(0); }, render_bool);
    rec.record("verify", "2", [&] { return reg.verify(2); }, render_bool);
    ops_done.fetch_add(1);
  });
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  EXPECT_TRUE(
      check_linearizable(ops, lincheck::AuthenticatedRegisterSpec("0"))
          .linearizable())
      << "seed " << seed;
  EXPECT_TRUE(check_relay(ops).empty()) << "seed " << seed;
}

// ------------------------------------------------------------- sticky

TEST_P(SeedSweep, StickyLinearizableUnderScheduler) {
  const std::uint64_t seed = GetParam();
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::StickyRegister<int> reg(space, {.n = 4, .f = 1});
  HistoryRecorder rec;
  std::atomic<int> ops_done{0};

  auto render_slot = [](const std::optional<int>& v) {
    return v ? std::to_string(*v) : std::string("⊥");
  };

  h.spawn(1, "op", [&](std::stop_token) {
    rec.record("write", "5", [&] { reg.write(5); return true; },
               [](bool) { return std::string("done"); });
    ops_done.fetch_add(1);
  });
  for (int k : {2, 3}) {
    h.spawn(k, "op", [&, render_slot](std::stop_token) {
      rec.record("read", "", [&] { return reg.read(); }, render_slot);
      rec.record("read", "", [&] { return reg.read(); }, render_slot);
      ops_done.fetch_add(1);
    });
  }
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  EXPECT_TRUE(check_linearizable(ops, lincheck::StickyRegisterSpec())
                  .linearizable())
      << "seed " << seed;
  EXPECT_TRUE(check_uniqueness(ops).empty()) << "seed " << seed;
}

// -------------------------------------------------------- test-or-set

TEST_P(SeedSweep, TestOrSetLinearizableUnderScheduler) {
  const std::uint64_t seed = GetParam();
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::TestOrSetFromVerifiable tos(space, {.n = 4, .f = 1});
  HistoryRecorder rec;
  std::atomic<int> ops_done{0};

  h.spawn(1, "op", [&](std::stop_token) {
    rec.record("set", "", [&] { tos.set(); return true; },
               [](bool) { return std::string("done"); });
    ops_done.fetch_add(1);
  });
  for (int k : {2, 3, 4}) {
    h.spawn(k, "op", [&](std::stop_token) {
      rec.record("test", "", [&] { return tos.test(); },
                 [](int v) { return std::to_string(v); });
      rec.record("test", "", [&] { return tos.test(); },
                 [](int v) { return std::to_string(v); });
      ops_done.fetch_add(1);
    });
  }
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 4)
        tos.reg().help_round();
    });
  }
  h.start();
  h.join();

  const auto ops = rec.operations();
  EXPECT_TRUE(
      check_linearizable(ops, lincheck::TestOrSetSpec()).linearizable())
      << "seed " << seed;
  EXPECT_TRUE(lincheck::check_test_relay(ops).empty()) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Range<std::uint64_t>(1, 13),
                         [](const ::testing::TestParamInfo<std::uint64_t>& i) {
                           return "seed" + std::to_string(i.param);
                         });

// ---------------------------------------------- determinism regression

// trace_hash() pinned for fixed seeds, captured on the pre-fast-path
// substrate (mutex storage + virtual step gate + busy-polling helpers).
// The free-mode optimizations (seqlock storage, devirtualized gate,
// version-gated helper wakeup, cached Verify collection) must be invisible
// here: in deterministic mode every register access still parks on
// StepController::step() and helpers re-read registers exactly as the
// paper writes them, so the granted (token, pid) sequence — and hence the
// hash — is byte-identical to the pre-optimization build. If this test
// fails, a fast path leaked into deterministic mode.
std::uint64_t pinned_trace(std::uint64_t seed) {
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::VerifiableRegister<int> reg(space, {.n = 4, .f = 1, .v0 = 0});
  std::atomic<int> ops_done{0};

  h.spawn(1, "op", [&](std::stop_token) {
    reg.write(1);
    reg.sign(1);
    reg.write(2);
    reg.sign(2);
    ops_done.fetch_add(1);
  });
  h.spawn(2, "op", [&](std::stop_token) {
    reg.verify(1);
    reg.read();
    ops_done.fetch_add(1);
  });
  h.spawn(3, "op", [&](std::stop_token) {
    reg.verify(2);
    reg.verify(1);
    ops_done.fetch_add(1);
  });
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();
  return h.trace_hash();
}

TEST(DeterminismRegression, TraceHashPinnedAcrossFastPathChanges) {
  EXPECT_EQ(pinned_trace(1), 17356776577621113944ULL);
  EXPECT_EQ(pinned_trace(7), 4670788948032501584ULL);
  EXPECT_EQ(pinned_trace(42), 7002199874767147162ULL);
}

// The same pin for Algorithm 2: Writes, Reads (each re-verifying the value
// it selects) and Verifies of a written and a never-written value. This
// pin and Algorithm 3's were captured while each register still carried
// its own copy of the helping round (now core/help_channels.hpp).
std::uint64_t pinned_authenticated_trace(std::uint64_t seed) {
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::AuthenticatedRegister<int> reg(space, {.n = 4, .f = 1, .v0 = 0});
  std::atomic<int> ops_done{0};
  bool verified_unwritten = true;

  h.spawn(1, "op", [&](std::stop_token) {
    reg.write(1);
    reg.write(2);
    ops_done.fetch_add(1);
  });
  h.spawn(2, "op", [&](std::stop_token) {
    reg.verify(1);
    reg.read();
    ops_done.fetch_add(1);
  });
  h.spawn(3, "op", [&](std::stop_token) {
    reg.read();
    verified_unwritten = reg.verify(3);
    ops_done.fetch_add(1);
  });
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(verified_unwritten) << "seed " << seed;
  return h.trace_hash();
}

TEST(DeterminismRegression, AuthenticatedTraceHashPinned) {
  EXPECT_EQ(pinned_authenticated_trace(1), 2801712004747452278ULL);
  EXPECT_EQ(pinned_authenticated_trace(7), 9597425819493517956ULL);
  EXPECT_EQ(pinned_authenticated_trace(42), 8576610261510010566ULL);
}

// The same pin for Algorithm 3: p2's first Read ends before the Write
// starts (⊥: the full set⊥ path), p3 reads after the Write returned (v).
std::uint64_t pinned_sticky_trace(std::uint64_t seed) {
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(seed)});
  registers::Space space(h.controller());
  core::StickyRegister<int> reg(space, {.n = 4, .f = 1});
  // 1 = p2's first Read returned, 2 = the Write returned, 3 = all ops done.
  std::atomic<int> phase{0};
  std::atomic<int> ops_done{0};
  std::optional<int> before_write = 0, after_write;

  h.spawn(1, "op", [&](std::stop_token) {
    while (phase.load() < 1) h.controller().step();
    reg.write(5);
    phase.store(2);
    ops_done.fetch_add(1);
  });
  h.spawn(2, "op", [&](std::stop_token) {
    before_write = reg.read();
    phase.store(1);
    reg.read();
    ops_done.fetch_add(1);
  });
  h.spawn(3, "op", [&](std::stop_token) {
    while (phase.load() < 2) h.controller().step();
    after_write = reg.read();
    ops_done.fetch_add(1);
  });
  for (int pid = 1; pid <= 4; ++pid) {
    h.spawn(pid, "help", [&](std::stop_token) {
      while (ops_done.load(std::memory_order_relaxed) < 3) reg.help_round();
    });
  }
  h.start();
  h.join();
  EXPECT_FALSE(before_write.has_value()) << "seed " << seed;
  EXPECT_EQ(after_write.value_or(-1), 5) << "seed " << seed;
  return h.trace_hash();
}

TEST(DeterminismRegression, StickyTraceHashPinned) {
  EXPECT_EQ(pinned_sticky_trace(1), 6776335839960485777ULL);
  EXPECT_EQ(pinned_sticky_trace(7), 15851306943445020414ULL);
  EXPECT_EQ(pinned_sticky_trace(42), 15075844870692082041ULL);
}

// Deterministic mode must never take the free-mode fast path.
TEST(DeterminismRegression, DeterministicSpaceIsNotFreeMode) {
  runtime::Harness h(
      {.deterministic = true,
       .policy = std::make_shared<runtime::RandomPolicy>(1)});
  registers::Space space(h.controller());
  EXPECT_FALSE(space.free_mode());
}

// The literal H1/H2 schedule of the impossibility proof, reproduced under
// the deterministic scheduler with GatedPolicy: pb (p3) takes NO steps
// until the Byzantine reset completed — the "blank interval" of Fig. 1.
// Every thread blocks only at step gates, so the run is fully serialized
// and reproducible.
TEST(DeterministicImpossibility, LiteralFig1ScheduleBreaksRelay) {
  using Reg = core::VerifiableRegister<int>;
  // n=4 with f configured 2 (n <= 3f): thresholds n-f=2, f+1=3.
  auto gated = std::make_shared<runtime::GatedPolicy>(
      std::make_shared<runtime::RoundRobinPolicy>(),
      std::set<runtime::ProcessId>{1, 2, 4});  // p3 asleep
  runtime::Harness h({.deterministic = true, .policy = gated});
  registers::Space space(h.controller());
  Reg reg(space, {.n = 4, .f = 2, .v0 = 0, .allow_suboptimal = true});

  // Phases: 1 = pre-attack, 2 = pa's Test done, 3 = resets done (pb may
  // wake), 4 = pb's Test' done (everyone exits).
  std::atomic<int> phase{1};
  std::atomic<int> resets{0};
  int first_test = -1, second_test = -1;

  auto deny_until_done = [&](Reg& r) {
    byzantine::DenyingHelper<Reg> denier(r);
    while (phase.load() < 4) {
      denier.round();  // every round reads registers => gates
    }
  };

  h.spawn(1, "op", [&](std::stop_token) {  // s = p1, Byzantine
    reg.write(1);
    reg.sign(1);
    while (phase.load() < 2) reg.help_round();  // honest helping, phase 1
    byzantine::erase_verifiable_registers(reg);
    if (resets.fetch_add(1) + 1 == 2) {
      phase.store(3);
      gated->enable(3);  // wake pb — Fig. 1's t6
    }
    deny_until_done(reg);
  });
  h.spawn(4, "op", [&](std::stop_token) {  // Q1 member, Byzantine
    while (phase.load() < 2) reg.help_round();
    byzantine::erase_verifiable_registers(reg);
    if (resets.fetch_add(1) + 1 == 2) {
      phase.store(3);
      gated->enable(3);
    }
    deny_until_done(reg);
  });
  h.spawn(2, "op", [&](std::stop_token) {  // pa
    first_test = reg.verify(1) ? 1 : 0;    // Test -> must be 1
    phase.store(2);
    while (phase.load() < 4) reg.help_round();  // honest helping after
  });
  h.spawn(3, "op", [&](std::stop_token) {  // pb — parked at gates until woken
    while (phase.load() < 3) h.controller().step();
    second_test = reg.verify(1) ? 1 : 0;  // Test' — relay demands 1
    phase.store(4);
  });
  h.spawn(3, "help", [&](std::stop_token) {  // pb's helper, same sleep
    while (phase.load() < 3) h.controller().step();
    while (phase.load() < 4) reg.help_round();
  });

  h.start();
  h.join();
  EXPECT_EQ(first_test, 1);
  EXPECT_EQ(second_test, 0) << "relay must break at n=4, f=2 (n <= 3f)";
  EXPECT_EQ(gated->fallback_grants(), 0u)
      << "the asleep process must never have been scheduled while disabled";
}

}  // namespace
}  // namespace swsig
