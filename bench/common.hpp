// Shared helpers for the benchmark binaries. Every bench prints markdown
// tables for its experiment (the T1–T12 set listed under "Benchmarks" in
// README.md), and (via bench/baseline.hpp) dumps machine-readable metrics
// with --json.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>

#include "util/stats.hpp"
#include "util/table.hpp"

namespace swsig::bench {

inline double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Times fn() once, in microseconds.
template <typename F>
double time_us(F&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  std::forward<F>(fn)();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count();
}

// Per-iteration latency samples. Runs an untimed warmup batch first so
// cold-start effects (cache misses, lazy page faults, branch training) do
// not skew the sampled distribution; warmup < 0 picks a default of 10% of
// the iteration count (at least 8).
template <typename F>
util::Samples sample_latency(int iterations, F&& fn, int warmup = -1) {
  if (warmup < 0) warmup = std::max(8, iterations / 10);
  for (int i = 0; i < warmup; ++i) fn();
  util::Samples samples;
  for (int i = 0; i < iterations; ++i) samples.add(time_us(fn));
  return samples;
}

// Summary of a latency distribution: mean with tail percentiles, so tables
// report p50/p99 alongside the mean instead of a bare median.
struct LatencySummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline LatencySummary summarize(const util::Samples& samples) {
  return {samples.mean(), samples.percentile(50.0), samples.percentile(99.0)};
}

// "mean/p50/p99" cell for latency tables.
inline std::string latency_cell(const LatencySummary& s, int precision = 2) {
  return util::Table::num(s.mean, precision) + "/" +
         util::Table::num(s.p50, precision) + "/" +
         util::Table::num(s.p99, precision);
}

// Largest f the algorithms tolerate at this n (n > 3f).
inline int max_f(int n) { return (n - 1) / 3; }

inline void heading(const std::string& title) {
  std::cout << "\n### " << title << "\n\n";
}

}  // namespace swsig::bench
