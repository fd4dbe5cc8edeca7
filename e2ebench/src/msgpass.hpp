// Message-passing workloads: SWMR registers emulated over the simulated
// network, with no shared-memory helpers. msgpass-rw drives the unbatched
// EmulatedSpace; msgpass-faults drives BatchedEmulatedSpace with pipelined
// writes under a seeded fault schedule clocked by op count.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "msgpass/batched_space.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "msgpass/network.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "registers/errors.hpp"
#include "run.hpp"
#include "soak/fault_schedule.hpp"

namespace e2e {

using swsig::runtime::ThisProcess;

inline constexpr int kRegisters = 1024;   // written registers per system
inline constexpr int kUnwritten = 16;     // never written: the deny reads
inline constexpr int kReadsPerStep = 3;
inline constexpr int kBurst = 4;          // write_async burst = pipeline depth

inline int owner_of(int reg) { return 1 + reg % kN; }

// Process-wide message and retry counters (obs::MetricsRegistry), summed by
// the protocol phase they belong to.
struct MsgCounts {
  std::uint64_t write_msgs = 0;
  std::uint64_t read_msgs = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t aborts = 0;
  std::uint64_t events = 0;

  static MsgCounts now() {
    MsgCounts c;
    auto& reg = swsig::obs::MetricsRegistry::global();
    for (const auto& snap : reg.counters("net.send.")) {
      const std::string tag = snap.name.substr(9);
      if (tag == "READ" || tag == "STATE")
        c.read_msgs += snap.value;
      else
        c.write_msgs += snap.value;
    }
    c.retries = reg.counter("msgpass.op_retry").value();
    c.timeouts = reg.counter("msgpass.op_timeout").value();
    c.aborts = reg.counter("msgpass.write_abort").value();
    c.events = swsig::obs::FlightRecorder::instance().events_recorded();
    return c;
  }

  // Waits for the trailing protocol traffic of the last ops, then counts.
  template <typename Sent>
  static MsgCounts drained(Sent&& sent) {
    swsig::msgpass::drain_message_count(sent);
    return now();
  }

  void add_delta(const MsgCounts& end, Layers& l) const {
    l.write_msgs += end.write_msgs - write_msgs;
    l.read_msgs += end.read_msgs - read_msgs;
    l.retries += end.retries - retries;
    l.timeouts += end.timeouts - timeouts;
    l.aborts += end.aborts - aborts;
    l.events += end.events - events;
  }
};

// The register set of one system: kRegisters written round-robin over the
// owners, then kUnwritten registers no one ever writes.
template <typename Reg>
struct RegisterSet {
  std::vector<Reg*> regs;
  std::vector<std::uint64_t> last;  // last acknowledged value per register
  std::set<std::uint64_t> aborted;  // values whose write was fenced off

  template <typename Space>
  void create(Space& space) {
    for (int i = 0; i < kRegisters + kUnwritten; ++i)
      regs.push_back(&space.template make_swmr<std::uint64_t>(
          owner_of(i), 0, "b" + std::to_string(i)));
    last.assign(regs.size(), 0);
  }

  void first_writes(Run& r) {
    for (int i = 0; i < kRegisters; ++i) {
      ThisProcess::Binder bind(owner_of(i));
      last[static_cast<std::size_t>(i)] = r.next_value();
      regs[static_cast<std::size_t>(i)]->write(last[static_cast<std::size_t>(i)]);
    }
  }

  // One quorum read by `reader`, checked against the last acked write.
  void read(Run& r, int reg, int reader, SpanKind kind, Samples* samples) {
    Reg& target = *regs[static_cast<std::size_t>(reg)];
    const std::uint64_t got = r.op(kind, reader, samples, [&] {
      ThisProcess::Binder bind(reader);
      return target.read();
    });
    r.check.expect_bool(aborted.contains(got), false,
                        "read returned an aborted write's value");
    r.check.expect_u64(got, last[static_cast<std::size_t>(reg)],
                       kind == SpanKind::kDeny
                           ? "read of a never-written register"
                           : "read after the last acked write");
    if (tracer().on()) ++r.layers.msg_reads;
  }
};

// msgpass-rw: per step an owner writes one register, then three non-owners
// each read a register and one reads a never-written register.
inline void run_msgpass_rw(Run& r, const Plan& plan) {
  using swsig::msgpass::EmulatedSpace;
  using Reg = swsig::msgpass::EmulatedSwmr<std::uint64_t>;
  const bool traced = tracer().on();
  for (int s = 0; s < plan.systems; ++s) {
    const std::uint64_t t0 = now_ns();
    EmulatedSpace::Options opt;
    opt.n = kN;
    opt.f = kF;
    auto space = std::make_unique<EmulatedSpace>(opt);
    RegisterSet<Reg> set;
    set.create(*space);
    set.first_writes(r);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    auto& net = space->network();
    const auto sent = [&net] { return net.messages_sent(); };
    const MsgCounts before =
        traced ? MsgCounts::drained(sent) : MsgCounts{};
    r.loop_start();
    for (int step = 0; step < plan.ops_per_system; ++step) {
      const int reg = r.pick(0, kRegisters - 1);
      const int owner = owner_of(reg);
      const std::uint64_t v = r.next_value();
      if (traced) {
        r.layers.queue_depth += net.queued_messages();
        ++r.layers.queue_samples;
      }
      r.op(SpanKind::kWrite, owner, &r.write, [&] {
        ThisProcess::Binder bind(owner);
        set.regs[static_cast<std::size_t>(reg)]->write(v);
        return 0;
      });
      set.last[static_cast<std::size_t>(reg)] = v;
      if (traced) ++r.layers.msg_writes;
      for (int k = 0; k <= kReadsPerStep; ++k) {
        const bool deny = k == kReadsPerStep;
        const int target = deny ? r.pick(kRegisters, kRegisters + kUnwritten - 1)
                                : r.pick(0, kRegisters - 1);
        const int reader = r.pick_other({owner_of(target)});
        if (traced) {
          r.layers.queue_depth += net.queued_messages();
          ++r.layers.queue_samples;
        }
        set.read(r, target, reader, deny ? SpanKind::kDeny : SpanKind::kRead,
                 deny ? &r.deny : &r.read);
      }
    }
    if (traced) before.add_delta(MsgCounts::drained(sent), r.layers);
  }
}

// Drives a soak::FaultSchedule from the client loop. The schedule's clock is
// the op count, so every run crosses the same fault windows. Each window
// impairs one victim (within f): crash windows crash it right after it
// issued a write burst — so the crash lands mid-pipeline — and restart it
// when the window's active phase ends; the other windows drop and delay a
// share of its traffic and resync it afterwards. The schedule delays any
// message; this class, the injector the network sees, keeps only the delays
// that touch the window's victim.
//
// A drop decision is a pure function of (window, message), so a dropped
// message is dropped again on every retransmission until the active phase
// ends — and an op clock stands still while the client waits on a retry.
// The active phase is therefore also cut short kActiveCapNs after the
// window opened, which is what the soak's wall-clock windows do.
class FaultWindows final : public swsig::msgpass::FaultInjector {
 public:
  using Space = swsig::msgpass::BatchedEmulatedSpace;
  using Reg = swsig::msgpass::BatchedSwmr<std::uint64_t>;
  static constexpr std::uint64_t kActiveCapNs = 25'000'000;

  // One in-flight write: register, value, ticket, issue time.
  struct Pending {
    int reg;
    std::uint64_t value;
    std::uint64_t ticket;
    std::uint64_t issued_ns;
  };

  FaultWindows(std::uint64_t seed, Space& space, RegisterSet<Reg>& set)
      : schedule_(config(seed)), space_(&space), set_(&set) {
    schedule_.set_clock([this] { return clock(); });
    schedule_.engage(true);  // loss is survivable: every quorum wait retries
    net().set_fault_injector(this);
  }
  ~FaultWindows() override { net().set_fault_injector(nullptr); }
  FaultWindows(const FaultWindows&) = delete;
  FaultWindows& operator=(const FaultWindows&) = delete;

  // The client's op count; the schedule's time.
  void advance(std::uint64_t ops) {
    ops_.store(ops, std::memory_order_relaxed);
  }

  static swsig::soak::FaultScheduleConfig config(std::uint64_t seed) {
    swsig::soak::FaultScheduleConfig c;
    c.seed = seed;
    c.kinds = swsig::soak::FaultKinds::parse("drop+delay+crash");
    c.victims = {1, 2, 3, 4};
    c.period_ms = kSegmentOps;  // op-clock ticks per window
    c.active_ms = 200;
    c.crash_every = 3;
    c.max_delay_ms = 2;
    c.drop_permille = 200;
    c.delay_permille = 1000;
    return c;
  }

  swsig::msgpass::FaultDecision on_deliver(
      const swsig::msgpass::Message& m) override {
    swsig::msgpass::FaultDecision d = schedule_.on_deliver(m);
    const int victim = schedule_.victim_of(schedule_.window_at(clock()));
    if (m.from != victim && m.to != victim) d.delay = {};
    return d;
  }
  bool reorder(swsig::runtime::ProcessId pid) override {
    return schedule_.reorder(pid);
  }

  // The process whose crash starts at this clock, if any: the step's writer
  // is chosen to be it, so the crash lands on its in-flight burst.
  std::optional<int> crash_due(std::uint64_t now) const {
    const std::uint64_t w = schedule_.window_at(now);
    if ((impaired_ && w == window_) || w == handled_window_ ||
        !schedule_.active_at(now) || !schedule_.crash_window(w))
      return std::nullopt;
    return schedule_.victim_of(w);
  }

  int crashed() const { return crash_victim_; }

  // Advances the schedule to `now`. A write burst the crash interrupted is
  // handed over in `burst` and awaited after the restart.
  void tick(Run& r, std::uint64_t now, std::vector<Pending>& burst) {
    const std::uint64_t w = schedule_.window_at(now);
    if (impaired_ && (w != window_ || !schedule_.active_at(now))) heal(r);
    if (impaired_ || w == handled_window_ || !schedule_.active_at(now))
      return;
    handled_window_ = w;
    window_ = w;
    opened_ns_.store(now_ns(), std::memory_order_relaxed);
    open_window_.store(w, std::memory_order_release);
    impaired_ = true;
    victim_ = schedule_.victim_of(w);
    if (schedule_.crash_window(w)) {
      crash_victim_ = victim_;
      crash_ns_ = now_ns();
      space_->crash(victim_);
      deferred_ = std::move(burst);
      burst.clear();
    }
  }

  // Ends the current window, if one is open (also at teardown).
  void heal(Run& r) {
    if (!impaired_) return;
    impaired_ = false;
    if (crash_victim_ == 0) {
      space_->resync(victim_);
      return;
    }
    const std::uint64_t t0 = now_ns();
    space_->restart(victim_);
    const std::uint64_t t1 = now_ns();
    r.recovery_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    if (tracer().on()) tracer().record(SpanKind::kRestart, victim_, t0, t1,
                                       tracer().current_op());
    crash_victim_ = 0;
    settle(r, deferred_);
    r.unavailable_ms.push_back(static_cast<double>(now_ns() - crash_ns_) /
                               1e6);
  }

  // Awaits a burst in issue order. Each write's latency runs from its
  // write_async to its await; an aborted write must never become readable.
  void settle(Run& r, std::vector<Pending>& burst) {
    for (const Pending& p : burst) {
      const auto idx = static_cast<std::size_t>(p.reg);
      try {
        ThisProcess::Binder bind(owner_of(p.reg));
        set_->regs[idx]->await(p.ticket);
        r.write.add(static_cast<double>(now_ns() - p.issued_ns) / 1000.0,
                    r.attempted);
        set_->last[idx] = p.value;
      } catch (const swsig::registers::WriteAborted&) {
        ++r.aborts;
        set_->aborted.insert(p.value);
      }
      pending_regs_.erase(p.reg);
    }
    burst.clear();
  }

  bool readable(int reg) const { return !pending_regs_.contains(reg); }
  void issued(int reg) { pending_regs_.insert(reg); }

  swsig::msgpass::Network& net() { return space_->shard(0).network(); }

 private:
  // Runs on the network's sender threads.
  std::uint64_t clock() const {
    const std::uint64_t ops = ops_.load(std::memory_order_relaxed);
    const std::uint64_t w = schedule_.window_at(ops);
    if (schedule_.active_at(ops) &&
        open_window_.load(std::memory_order_acquire) == w &&
        now_ns() - opened_ns_.load(std::memory_order_relaxed) > kActiveCapNs)
      return w * schedule_.config().period_ms + schedule_.config().active_ms;
    return ops;
  }

  std::atomic<std::uint64_t> ops_{0};
  std::atomic<std::uint64_t> open_window_{~0ULL};
  std::atomic<std::uint64_t> opened_ns_{0};
  swsig::soak::FaultSchedule schedule_;
  Space* space_;
  RegisterSet<Reg>* set_;
  bool impaired_ = false;
  std::uint64_t window_ = 0;
  std::uint64_t handled_window_ = ~0ULL;
  int victim_ = 0;
  int crash_victim_ = 0;  // 0 = no process down
  std::uint64_t crash_ns_ = 0;
  std::vector<Pending> deferred_;
  std::set<int> pending_regs_;  // written by a burst not yet awaited
};

// msgpass-faults: per step an owner issues a write_async burst of kBurst
// writes on its own registers and awaits it; then three non-owners read and
// one reads a never-written register — all while the fault schedule runs.
inline void run_msgpass_faults(Run& r, const Plan& plan,
                               std::uint64_t seed) {
  using Space = FaultWindows::Space;
  using Reg = FaultWindows::Reg;
  const bool traced = tracer().on();
  for (int s = 0; s < plan.systems; ++s) {
    const std::uint64_t t0 = now_ns();
    Space::Options opt;
    opt.n = kN;
    opt.f = kF;
    opt.pipeline_depth = kBurst;
    opt.retry.base_ms = 10;
    opt.retry.max_ms = 80;
    auto space = std::make_unique<Space>(opt);
    RegisterSet<Reg> set;
    set.create(*space);
    set.first_writes(r);
    r.setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    FaultWindows faults(seed + static_cast<std::uint64_t>(s), *space, set);
    auto& net = faults.net();
    const auto sent = [&net] { return net.messages_sent(); };
    const MsgCounts before = traced ? MsgCounts::drained(sent) : MsgCounts{};
    const std::uint64_t dropped0 = net.messages_dropped();
    const std::uint64_t delayed0 = net.messages_delayed();
    const std::uint64_t attempted0 = r.attempted;
    const auto live_reader = [&](int reg) {
      const int down = faults.crashed();
      return down == 0 ? r.pick_other({owner_of(reg)})
                       : r.pick_other({owner_of(reg), down});
    };
    const auto pick_readable = [&](int lo, int hi) {
      int reg = r.pick(lo, hi);
      while (!faults.readable(reg)) reg = reg == hi ? lo : reg + 1;
      return reg;
    };

    r.loop_start();
    std::vector<FaultWindows::Pending> burst;
    for (int step = 0; step < plan.ops_per_system; ++step) {
      const std::uint64_t now = r.attempted - attempted0;
      faults.advance(now);
      int owner = faults.crash_due(now).value_or(r.pick(1, kN));
      if (owner == faults.crashed()) owner = owner % kN + 1;
      for (int b = 0; b < kBurst; ++b) {
        const int reg = owner - 1 + kN * r.pick(0, kRegisters / kN - 1);
        const std::uint64_t v = r.next_value();
        const std::uint64_t ticket = r.op(SpanKind::kWrite, owner, nullptr, [&] {
          ThisProcess::Binder bind(owner);
          return set.regs[static_cast<std::size_t>(reg)]->write_async(v);
        });
        burst.push_back({reg, v, ticket, now_ns()});
        faults.issued(reg);
        if (traced) ++r.layers.msg_writes;
      }
      faults.tick(r, now, burst);
      faults.settle(r, burst);
      for (int k = 0; k <= kReadsPerStep; ++k) {
        const bool deny = k == kReadsPerStep;
        const int target = deny ? r.pick(kRegisters, kRegisters + kUnwritten - 1)
                                : pick_readable(0, kRegisters - 1);
        const int reader = live_reader(target);
        if (traced) {
          r.layers.queue_depth += net.queued_messages();
          ++r.layers.queue_samples;
        }
        set.read(r, target, reader, deny ? SpanKind::kDeny : SpanKind::kRead,
                 deny ? &r.deny : &r.read);
      }
    }
    faults.heal(r);
    if (traced) {
      before.add_delta(MsgCounts::drained(sent), r.layers);
      r.layers.dropped += net.messages_dropped() - dropped0;
      r.layers.delayed += net.messages_delayed() - delayed0;
    }
  }
}

}  // namespace e2e
