// Witness adoption — the "become a witness" step of Help() shared by
// Algorithm 1 (L31-33) and Algorithm 2 (L33-35): p_j adds to its witness
// set R_j every value v that the writer signed (v ∈ r_1) or that at least
// f+1 processes already witness, then re-reads R_j for the answer it
// relays to askers.
//
// The paper-literal loop issues one owner update of R_j per qualifying
// value on every round, even when R_j already holds it; each update copies
// the set and bumps the space's write epoch, so a round costs O(m²) in the
// signed-set size m and wakes every parked helper m times. In free mode a
// round instead writes the qualifying values missing from r_j with ONE
// update, and none at all when nothing is missing (design note 17).
// Deterministic mode keeps the per-value updates: the pinned traces pin
// that step sequence.
#pragma once

#include <cstddef>
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

}  // namespace swsig::core::detail
