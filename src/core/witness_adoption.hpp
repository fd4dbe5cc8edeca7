// Witness sets — what Algorithms 1 and 2 share on top of the helping
// channels (core/help_channels.hpp): the helper's "become a witness" step
// and the reader's Verify loop. The two algorithms differ only in where
// the writer's values live (R_1 as a signed set, or stamped values), which
// reaches this file as r[1] for adoption and as the witness scan for Verify.
//
// Adoption — Help() L31-33 (Algorithm 2: L33-35): p_j adds to its witness
// set R_j every value v that the writer signed (v ∈ r_1) or that at least
// f+1 processes already witness, then re-reads R_j for the answer it
// relays to askers. The paper-literal loop issues one owner update of R_j
// per qualifying value on every round, even when R_j already holds it; each
// update copies the set and bumps the space's write epoch, so a round costs
// O(m²) in the signed-set size m and wakes every parked helper m times. In
// free mode a round instead writes the qualifying values missing from r_j
// with ONE update, and none at all when nothing is missing (design note
// 17). Deterministic mode keeps the per-value updates: the pinned traces
// pin that step sequence.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <vector>

namespace swsig::core::detail {

// `r[1..n]` are the sets read at L30 (Algorithm 2: L32, with r[1] the
// writer's values); `r[j]` is p_j's own R_j as read there, `rj_reg` its
// register. Returns r_j for the answer: the L33 (L35) read, or — when the
// batched round adopted something — the post-state of its single update.
template <typename ValueSet, typename Reg>
ValueSet adopt_witnessed(Reg& rj_reg, const std::vector<ValueSet>& r, int j,
                         int f, bool batched) {
  const auto at = [&r](int i) -> const ValueSet& {
    return r[static_cast<std::size_t>(i)];
  };
  const int n = static_cast<int>(r.size()) - 1;
  ValueSet candidates;
  for (int i = 1; i <= n; ++i) candidates.insert(at(i).begin(), at(i).end());
  ValueSet adopt;
  for (const auto& v : candidates) {
    int count = 0;
    for (int i = 1; i <= n; ++i)
      if (at(i).contains(v)) ++count;
    if (!at(1).contains(v) && count < f + 1) continue;  // L31
    if (!batched)
      rj_reg.update([&](ValueSet& s) { s.insert(v); });  // L32
    else if (!at(j).contains(v))
      adopt.insert(v);
  }
  if (adopt.empty()) return rj_reg.read();  // L33
  return rj_reg.update([&](ValueSet& s) { s.merge(adopt); });
}

// Verify(v) — Algorithm 1 L11-24 (Algorithm 2 L10-23) — with the free-mode
// per-process memo of positive verdicts. Verify(v) = true means a
// successful Sign(v) (a Write(v)) happened before, which is permanent, so
// a later Verify(v) by the same process may return true without re-running
// the protocol; negative results are never memoized (a Sign may land).
template <typename V>
class WitnessVerifier {
 public:
  explicit WitnessVerifier(int n) : verified_(n + 1) {}

  // Verify(v) by reader p_k over `help`'s channels. scan() is true iff
  // >= n−f registers attest v right now. Free mode returns true on such a
  // quorum, before the protocol and while waiting on helpers: of those
  // registers >= n−2f >= f+1 are honest, and an honest p_j inserts v only
  // after seeing the writer's v or f+1 existing witnesses — by induction on
  // insertion order the first honest adopter saw the writer's value, which
  // is the evidence the L23 quorum certifies.
  template <typename Help, typename Scan>
  bool verify(Help& help, int k, const V& v, int f, Scan&& scan) {
    std::set<V>& seen = verified_[k];
    const bool fast = help.fast_path();
    if (fast) {
      if (seen.contains(v)) return true;
      if (scan()) {
        seen.insert(v);
        return true;
      }
    }
    const int n = help.n();
    std::set<int> set0, set1;  // L11
    const bool verified = help.ask(
        k, [&](int j) { return set0.contains(j) || set1.contains(j); },
        [&](int j, const std::set<V>& rj) -> std::optional<bool> {
          if (rj.contains(v)) {  // L18: v ∈ r_j
            set1.insert(j);      // L19
            set0.clear();        // L20
          } else {               // L21: v ∉ r_j
            set0.insert(j);      // L22
          }
          if (static_cast<int>(set1.size()) >= n - f) return true;  // L23
          if (static_cast<int>(set0.size()) > f) return false;      // L24
          return std::nullopt;
        },
        [&]() -> std::optional<bool> {
          if (scan()) return true;
          return std::nullopt;
        });
    if (verified && fast) seen.insert(v);
    return verified;
  }

 private:
  // One slot per process, touched only by that process's operation thread.
  std::vector<std::set<V>> verified_;
};

}  // namespace swsig::core::detail
