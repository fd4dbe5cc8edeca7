// One benchmark run: the client's op samples, set-up samples, the answer
// checker, and (traced runs only) the per-layer counters.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace e2e {

inline constexpr int kN = 4;  // processes; one helper or server thread each
inline constexpr int kF = 1;

// Per-layer sums, filled only while the tracer is on.
struct Layers {
  std::uint64_t client_cpu_ns = 0;
  std::uint64_t verify_rounds = 0;  // C_k bumps (Algorithm 1 L13)
  std::uint64_t verify_ops = 0;
  std::uint64_t steps = 0;          // metered register accesses
  std::uint64_t epoch_bumps = 0;    // Space write-epoch advances
  std::uint64_t deliver_polls = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t broadcasts = 0;
  std::uint64_t broadcast_help_calls = 0;
  std::uint64_t write_msgs = 0;  // enqueued write-ladder messages
  std::uint64_t read_msgs = 0;   // enqueued READ/STATE messages
  std::uint64_t msg_writes = 0;  // emulated writes
  std::uint64_t msg_reads = 0;   // emulated reads (incl. unwritten)
  std::uint64_t queue_depth = 0;  // sum of queued_messages() at op start
  std::uint64_t queue_samples = 0;
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;  // registry counters (msgpass.op_timeout, ...)
  std::uint64_t aborts = 0;
  std::uint64_t dropped = 0;
  std::uint64_t delayed = 0;
  std::uint64_t events = 0;  // flight-recorder events
};

class Run {
 public:
  Run(std::uint64_t seed, Checker& checker)
      : rng(seed), check(checker), seed_(seed) {}

  // Times one client call; `samples` may be null (an op that belongs to no
  // reported class, e.g. the unsigned Write before a deny).
  template <typename F>
  auto op(SpanKind kind, int pid, Samples* samples, F&& fn) {
    Tracer& t = tracer();
    const bool traced = t.on();
    const std::uint64_t id = traced ? t.begin_op() : 0;
    const std::uint64_t cpu0 = traced ? thread_cpu_ns() : 0;
    const std::uint64_t t0 = now_ns();
    auto result = std::forward<F>(fn)();
    const std::uint64_t t1 = now_ns();
    if (samples)
      samples->add(static_cast<double>(t1 - t0) / 1000.0, attempted);
    ++attempted;
    gaps_ns_.push_back(static_cast<double>(t1 - last_end_ns_));
    last_end_ns_ = t1;
    if (traced) {
      layers.client_cpu_ns += thread_cpu_ns() - cpu0;
      t.record(kind, pid, t0, t1, id);
    }
    return result;
  }

  // Marks the start of a system's op loop: set-up and teardown between
  // loops count toward no op.
  void loop_start() {
    last_end_ns_ = now_ns();
    loop_starts_.push_back(gaps_ns_.size());
  }

  // Wall time of the op loops.
  double loop_s() const {
    double ns = 0;
    for (double g : gaps_ns_) ns += g;
    return ns / 1e9;
  }

  // The run's segments (see cut_segments in stats.hpp).
  std::vector<Segment> segments() const {
    return cut_segments(loop_starts_, gaps_ns_.size());
  }

  // Steady ops per second: per segment, its op count / (time from the op
  // before it to its last op); the run reports the (1 - kSteadyQ)-quantile.
  double ops_per_s(const std::vector<Segment>& segments) const {
    std::vector<double> per_segment;
    for (const Segment& seg : segments) {
      double ns = 0;
      for (std::size_t i = seg.begin; i < seg.end; ++i) ns += gaps_ns_[i];
      per_segment.push_back(static_cast<double>(seg.end - seg.begin) * 1e9 /
                            ns);
    }
    return quantile(per_segment, 1 - kSteadyQ);
  }

  // A pseudo-random odd value per call, so never the initial 0. splitmix64
  // advances seed_, and the counter term separates calls further: two equal
  // values within one system (32 to 1040 values) have odds around 2^-50.
  std::uint64_t next_value() {
    return (swsig::util::splitmix64(seed_) | 1) + 2 * value_counter_++;
  }

  // Uniform pick in [lo, hi].
  int pick(int lo, int hi) {
    return lo + static_cast<int>(rng.uniform(
                    0, static_cast<std::uint64_t>(hi - lo)));
  }

  // A process in 1..kN other than the excluded ones.
  int pick_other(std::initializer_list<int> excluded) {
    std::vector<int> pool;
    for (int p = 1; p <= kN; ++p)
      if (std::find(excluded.begin(), excluded.end(), p) == excluded.end())
        pool.push_back(p);
    return pool[static_cast<std::size_t>(
        rng.uniform(0, pool.size() - 1))];
  }

  swsig::util::Rng rng;
  Samples write{"write"};
  Samples read{"read"};
  Samples deny{"deny"};
  std::vector<double> setup_s;  // one per system built
  std::uint64_t attempted = 0;
  std::uint64_t aborts = 0;  // writes that ended in WriteAborted
  std::vector<double> recovery_ms;     // restart() wall time
  std::vector<double> unavailable_ms;  // crash -> victim's next completed op
  Layers layers;
  Checker& check;

 private:
  std::uint64_t seed_;
  std::uint64_t value_counter_ = 0;
  std::uint64_t last_end_ns_ = 0;
  std::vector<double> gaps_ns_;  // per op: end of previous op -> its end
  std::vector<std::size_t> loop_starts_;  // op position per loop start
};

// Size of one run: how many systems (logs, streams, substrates) it builds.
struct Plan {
  int systems = 1;
  int ops_per_system = 0;  // values, slots or steps per system
};

}  // namespace e2e
