// Test probes over the witness registers R_2..R_n of an Algorithm 1 or 2
// instance (both expose them as raw().witness, indexed by pid).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace swsig::test_support {

// version() of every witness register R_j, 2 <= j <= n (index by pid).
template <typename Alg>
std::vector<std::uint64_t> witness_versions(Alg& alg) {
  const int n = alg.config().n;
  std::vector<std::uint64_t> out(static_cast<std::size_t>(n) + 1, 0);
  for (int j = 2; j <= n; ++j)
    out[static_cast<std::size_t>(j)] = (*alg.raw().witness)[j]->version();
  return out;
}

// Polls until every R_j, 2 <= j <= n, holds all of `values`; false if that
// takes longer than ten seconds.
template <typename Alg, typename Values>
bool witnesses_hold(Alg& alg, const Values& values) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    bool all = true;
    for (int j = 2; j <= alg.config().n && all; ++j) {
      const auto s = (*alg.raw().witness)[j]->read();
      all = std::includes(s.begin(), s.end(), values.begin(), values.end());
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace swsig::test_support
