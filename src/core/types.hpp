// Shared vocabulary for the three register algorithms (Algorithms 1-3):
// the value-domain concept, Sign results (Definition 10), timestamps
// (Algorithm 2), and the n > 3f resilience precondition (Theorems 14/20/25;
// tightness by Theorem 29).
#pragma once

#include <concepts>
#include <cstdint>
#include <stdexcept>

namespace swsig::core {

// Domain values V must be regular and totally ordered (total order is used
// by Algorithm 2's timestamp tie-break, footnote 8 of the paper, and to
// iterate candidate sets deterministically).
template <typename V>
concept RegisterValue = std::regular<V> && std::totally_ordered<V>;

// Result of a verifiable register's Sign(v) (Definition 10).
enum class SignResult { kSuccess, kFail };

// Round counter stored in the Ck registers.
using RoundCounter = std::uint64_t;

// Timestamp ℓ used by the authenticated register (Algorithm 2).
using SeqNo = std::uint64_t;

// Throws if the configuration violates the algorithms' resilience
// precondition n > 3f (and basic sanity n >= 2, f >= 0). The impossibility
// experiment (T5) constructs systems with n <= 3f on purpose; it passes
// `allow_suboptimal = true` to document that it is deliberately stepping
// outside the guaranteed envelope. Returns n, for member initializers.
inline int check_resilience(int n, int f, bool allow_suboptimal = false) {
  if (n < 2) throw std::invalid_argument("need at least 2 processes");
  if (f < 0) throw std::invalid_argument("f must be non-negative");
  if (!allow_suboptimal && n <= 3 * f)
    throw std::invalid_argument(
        "resilience violated: need n > 3f (pass allow_suboptimal to opt out)");
  return n;
}

}  // namespace swsig::core
