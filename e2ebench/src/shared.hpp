// Shared-memory workloads: the paper's Algorithm 1 (sign-verify, signed-log)
// and Algorithm 3 behind the reliable-broadcast layer (broadcast-stream), all
// on registers::Space with n = 4 parked helper threads and one client.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <stop_token>
#include <thread>
#include <vector>

#include "broadcast/reliable_broadcast.hpp"
#include "core/system.hpp"
#include "core/verifiable_register.hpp"
#include "obs/recorder.hpp"
#include "registers/space.hpp"
#include "run.hpp"
#include "runtime/step_controller.hpp"

namespace e2e {

using swsig::runtime::ThisProcess;

// Times a help round for the tracer; forwards untouched when tracing is off.
template <typename F>
bool traced_help_round(F&& round) {
  Tracer& t = tracer();
  if (!t.on()) return round();
  const std::uint64_t t0 = now_ns();
  const bool served = round();
  t.help_round(ThisProcess::id(), t0, now_ns(), served);
  return served;
}

// How long the client waits for a quiescent system before an op: each op
// then times its own work, not a race with the previous op's tail of helper
// rounds (which still counts in ops_per_s).
inline constexpr std::chrono::milliseconds kQuiesceCap{50};

// Algorithm 1 as the benchmark's FreeSystem hosts it (FreeSystem calls
// help_round on its Alg type): each help round records a span in traced runs
// and is counted while it runs, so the client can wait for quiescence.
class BenchVerifiable
    : public swsig::core::VerifiableRegister<std::uint64_t> {
 public:
  using Base = swsig::core::VerifiableRegister<std::uint64_t>;
  using Base::Base;
  bool help_round() {
    in_round_.fetch_add(1, std::memory_order_relaxed);
    const bool served =
        traced_help_round([this] { return Base::help_round(); });
    in_round_.fetch_sub(1, std::memory_order_release);
    return served;
  }
  // Waits (at most kQuiesceCap) until no helper is inside a round.
  void quiesce() {
    const auto deadline = std::chrono::steady_clock::now() + kQuiesceCap;
    while (in_round_.load(std::memory_order_acquire) > 0 &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  }

 private:
  std::atomic<int> in_round_{0};
};

// Counts taken around a system's op loop, in traced runs only.
struct SpaceCounts {
  std::uint64_t steps;
  std::uint64_t epoch;
  std::uint64_t events;
  static SpaceCounts of(swsig::registers::Space& space) {
    return {space.metrics().total(), space.write_epoch(),
            swsig::obs::FlightRecorder::instance().events_recorded()};
  }
  void add_delta(const SpaceCounts& end, Layers& l) const {
    l.steps += end.steps - steps;
    l.epoch_bumps += end.epoch - epoch;
    l.events += end.events - events;
  }
};

// sign-verify and signed-log: per value, p1 runs Write+Sign and a rotating
// reader runs a cold Verify that must return true; every 4th value is
// written but never signed and its Verify must return false. A fresh system
// every plan.ops_per_system values; each value starts on a quiescent system.
inline void run_verifiable(Run& r, const Plan& plan) {
  using System = swsig::core::FreeSystem<BenchVerifiable>;
  using swsig::core::SignResult;
  const bool traced = tracer().on();
  for (int s = 0; s < plan.systems; ++s) {
    const std::uint64_t t0 = now_ns();
    System sys(BenchVerifiable::Config{kN, kF, 0, false});
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    const SpaceCounts before = SpaceCounts::of(sys.space());
    r.loop_start();
    for (int i = 0; i < plan.ops_per_system; ++i) {
      const std::uint64_t v = r.next_value();
      const int reader = r.pick(2, kN);
      sys.alg().quiesce();
      if (i % 4 != 3) {
        const SignResult sr =
            r.op(SpanKind::kWrite, 1, &r.write, [&] {
              return sys.as(1, [&](BenchVerifiable& a) {
                a.write(v);
                return a.sign(v);
              });
            });
        r.check.expect_bool(sr == SignResult::kSuccess, true,
                            "Sign of a written value");
        const bool ok = r.op(SpanKind::kRead, reader, &r.read, [&] {
          return sys.as(reader,
                        [&](BenchVerifiable& a) { return a.verify(v); });
        });
        r.check.expect_bool(ok, true, "Verify of a signed value");
      } else {
        r.op(SpanKind::kWrite, 1, nullptr, [&] {
          return sys.as(1, [&](BenchVerifiable& a) {
            a.write(v);
            return 0;
          });
        });
        const bool ok = r.op(SpanKind::kDeny, reader, &r.deny, [&] {
          return sys.as(reader,
                        [&](BenchVerifiable& a) { return a.verify(v); });
        });
        r.check.expect_bool(ok, false, "Verify of an unsigned value");
      }
    }
    if (traced) {
      before.add_delta(SpaceCounts::of(sys.space()), r.layers);
      // C_k's version counts its increments: one per Verify round.
      auto raw = sys.alg().raw();
      for (int k = 2; k <= kN; ++k)
        r.layers.verify_rounds +=
            (*raw.round)[static_cast<std::size_t>(k)]->version();
      r.layers.verify_ops += static_cast<std::uint64_t>(plan.ops_per_system);
    }
  }
}

// Sticky reliable broadcast with helpers that park on the space's write
// epoch, the way FreeSystem's do (StickyReliableBroadcast has no config(),
// so FreeSystem cannot host it).
class BroadcastSystem {
 public:
  using Broadcast = swsig::broadcast::StickyReliableBroadcast;

  explicit BroadcastSystem(int slots_per_sender)
      : space_(controller_), rb_(space_, Broadcast::Config{kN, kF,
                                                          slots_per_sender}) {
    for (int pid = 1; pid <= kN; ++pid)
      helpers_.emplace_back([this, pid](std::stop_token st) { help(pid, st); });
  }
  ~BroadcastSystem() {
    for (auto& t : helpers_) t.request_stop();
    helpers_.clear();
  }
  BroadcastSystem(const BroadcastSystem&) = delete;
  BroadcastSystem& operator=(const BroadcastSystem&) = delete;

  template <typename F>
  auto as(int pid, F&& fn) {
    ThisProcess::Binder bind(pid);
    return std::forward<F>(fn)(rb_);
  }
  swsig::registers::Space& space() { return space_; }

  // Waits (at most kQuiesceCap) until every helper is parked: the previous
  // slot's echo and witness rounds are over.
  void quiesce() {
    const auto deadline = std::chrono::steady_clock::now() + kQuiesceCap;
    while (parked_.load(std::memory_order_acquire) < kN &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::yield();
  }

 private:
  void help(int pid, std::stop_token st) {
    ThisProcess::Binder bind(pid);
    int idle_streak = 0;
    while (!st.stop_requested()) {
      const std::uint64_t epoch = space_.write_epoch();
      if (traced_help_round([this] { return rb_.help_round(); })) {
        idle_streak = 0;
      } else if (++idle_streak > 64) {
        parked_.fetch_add(1, std::memory_order_release);
        space_.wait_write_epoch(epoch, std::chrono::microseconds(1000));
        parked_.fetch_sub(1, std::memory_order_relaxed);
      } else {
        std::this_thread::yield();
      }
    }
  }

  swsig::runtime::FreeStepController controller_;
  swsig::registers::Space space_;
  Broadcast rb_;
  std::atomic<int> parked_{0};
  std::vector<std::jthread> helpers_;
};

// broadcast-stream: senders rotate p1..p4 over their preallocated slots. Per
// slot another process polls deliver on the still-empty slot (must be ⊥),
// the sender broadcasts, and a third process delivers (must be the value).
inline void run_broadcast(Run& r, const Plan& plan) {
  const bool traced = tracer().on();
  const int slots_per_sender = plan.ops_per_system / kN;
  for (int s = 0; s < plan.systems; ++s) {
    const std::uint64_t t0 = now_ns();
    BroadcastSystem sys(slots_per_sender);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    const SpaceCounts before = SpaceCounts::of(sys.space());
    const std::uint64_t help0 = tracer().help_calls();
    r.loop_start();
    for (int i = 0; i < slots_per_sender * kN; ++i) {
      const int sender = 1 + i % kN;
      const int seq = i / kN;
      const int poller = r.pick_other({sender});
      const int deliverer = r.pick_other({sender, poller});
      const std::uint64_t v = r.next_value();
      using Slot = std::optional<std::uint64_t>;
      const auto deliver = [&](auto& rb) { return rb.deliver(sender, seq); };
      sys.quiesce();

      const Slot early = r.op(SpanKind::kDeny, poller, &r.deny,
                              [&] { return sys.as(poller, deliver); });
      r.check.expect_opt(early.has_value(), early.value_or(0), false, 0,
                         "deliver before broadcast");
      r.op(SpanKind::kWrite, sender, &r.write, [&] {
        return sys.as(sender, [&](auto& rb) {
          rb.broadcast(seq, v);
          return 0;
        });
      });
      sys.quiesce();
      const Slot got = r.op(SpanKind::kRead, deliverer, &r.read,
                            [&] { return sys.as(deliverer, deliver); });
      r.check.expect_opt(got.has_value(), got.value_or(0), true, v,
                         "deliver after broadcast");
      if (traced) {
        r.layers.deliver_polls += 2;
        r.layers.deliveries += 1;
        r.layers.broadcasts += 1;
      }
    }
    if (traced) {
      before.add_delta(SpaceCounts::of(sys.space()), r.layers);
      r.layers.broadcast_help_calls += tracer().help_calls() - help0;
    }
  }
}

}  // namespace e2e
