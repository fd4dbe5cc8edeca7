// SWMR multivalued *authenticated register* — Algorithm 2 of the paper.
//
// Sequential specification (Definition 15): Write/Read behave like a normal
// SWMR register, and every written value is atomically "signed": Verify(v)
// returns true iff a Write(v) happened before it or v = v0. The
// implementation is Byzantine linearizable and all operations of correct
// processes terminate, for n > 3f (Theorem 20).
//
// Differences from the verifiable register (paper §7.1): there is no R*;
// the writer keeps a single register R_1 holding timestamped values ⟨ℓ,v⟩,
// and Read must re-verify the value it selects before returning it, so that
// a Byzantine writer cannot make a Read return a value whose Verify would
// later fail (Observation 19). If verification fails, Read returns v0.
//
// Code comments "L<k>" refer to the paper's Algorithm 2 line numbers. The
// helping round (R_ij, C_k) is core/help_channels.hpp; Verify and the
// witness adoption are shared with Algorithm 1 (core/witness_adoption.hpp).
// Layer invariants and deviations from the paper: docs/ARCHITECTURE.md
// (§core, design notes 1-5, 17 and 18).
#pragma once

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/help_channels.hpp"
#include "core/types.hpp"
#include "core/witness_adoption.hpp"
#include "registers/space.hpp"

namespace swsig::core {

template <RegisterValue V, typename SpaceT = registers::Space>
class AuthenticatedRegister {
  using Help = detail::HelpChannels<SpaceT, std::set<V>>;

 public:
  // Register types of the underlying substrate (shared-memory Space or
  // msgpass::EmulatedSpace) — the algorithm is substrate-generic.
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;
  template <typename T>
  using SwsrT = typename SpaceT::template SwsrFor<T>;

  using Value = V;
  using ValueSet = std::set<V>;
  using Stamped = std::pair<SeqNo, V>;       // ⟨ℓ, v⟩
  using StampedSet = std::set<Stamped>;      // contents of R_1
  using HelpTuple = typename Help::HelpTuple;  // ⟨r_j, c_j⟩

  struct Config {
    int n = 4;
    int f = 1;
    V v0 = V{};
    bool allow_suboptimal = false;
  };

  AuthenticatedRegister(SpaceT& space, Config config)
      : cfg_(std::move(config)),
        help_(space, check_resilience(cfg_.n, cfg_.f, cfg_.allow_suboptimal)),
        verifier_(cfg_.n) {
    const int n = cfg_.n;
    // R_1: writer's register of stamped values, initially {⟨0, v0⟩}.
    writer_set_ = &space.template make_swmr<StampedSet>(1, StampedSet{{0, cfg_.v0}},
                                               "R1");
    // R_k (readers only): witness sets, initially {v0}.
    witness_.resize(n + 1, nullptr);
    for (int k = 2; k <= n; ++k)
      witness_[k] =
          &space.template make_swmr<ValueSet>(k, ValueSet{cfg_.v0},
                                     "R" + std::to_string(k));
    for (int i = 1; i <= n; ++i) help_.make_channels(i, {});  // R_ij
    help_.make_counters();                                    // C_k
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1. The value is "signed"
  // atomically by the same step that publishes it.
  void write(const V& v) {
    help_.require_self(1, "Write");
    ++seq_;                                                    // L1: ℓ <- ℓ+1
    writer_set_->update([&](StampedSet& r1) { r1.insert({seq_, v}); });  // L2
  }                                                            // L3

  // ----------------------------------------------------------- reader ops

  // Read() — L4-9. Caller must be bound as a reader p2..pn.
  V read() {
    help_.require_reader("Read");
    const StampedSet r = writer_set_->read();  // L4
    // L5: "if r is a set of tuples ⟨ℓ,v⟩" — with typed registers the only
    // malformed state a Byzantine writer can reach is the empty set.
    if (!r.empty()) {
      // L6: select the pair maximal in the lexicographic order of fn. 8.
      const Stamped& top = *std::max_element(r.begin(), r.end());
      if (verify(top.second)) return top.second;  // L7-8
    }
    return cfg_.v0;  // L9
  }

  // Verify(v) — L10-23, the same loop as Algorithm 1's L11-24
  // (detail::WitnessVerifier); its witness scan counts the writer's R_1.
  bool verify(const V& v) {
    const int k = help_.require_reader("Verify");
    return verifier_.verify(help_, k, v, cfg_.f,
                            [&] { return witness_scan(v); });
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L25-38.
  bool help_round() {
    const auto round = help_.wake();
    if (!round) return false;
    const int j = round->j;
    return help_.serve(*round, [&] {
      // L29-30: r1 = values the writer has written (stamps stripped).
      const StampedSet r = writer_set_->read();
      ValueSet r1;
      for (const Stamped& sv : r) r1.insert(sv.second);
      // For j = 1 the writer answers with the values of its own R_1
      // (Lemma 103, case j = 1).
      if (j == 1) return r1;
      // L31-32: read every (reader) witness register; r1 takes part in the
      // count "1 <= i <= n" of L33.
      std::vector<ValueSet> ri(static_cast<std::size_t>(cfg_.n) + 1);
      ri[1] = std::move(r1);
      for (int i = 2; i <= cfg_.n; ++i)
        ri[static_cast<std::size_t>(i)] = witness_[i]->read();
      // L33-35: become a witness of v if the writer wrote v, or f+1
      // processes (including possibly the writer) are witnesses of v; then
      // r_j <- R_j.
      return detail::adopt_witnessed(*witness_[j], ri, j, cfg_.f,
                                     round->gate);
    });
  }

  // --------------------------------------------------- fault injection API
  struct Raw {
    SwmrT<StampedSet>* writer_set;                     // R_1
    std::vector<SwmrT<ValueSet>*>* witness;            // R_k
    std::vector<std::vector<SwsrT<HelpTuple>*>>* channel;  // R_ij
    std::vector<SwmrT<RoundCounter>*>* round;          // C_k
  };
  Raw raw() {
    return Raw{writer_set_, &witness_, &help_.channels(), &help_.counters()};
  }

 private:
  // True iff >= n−f registers currently attest v, counting the writer's
  // R_1 (values of its stamped set) as slot 1.
  bool witness_scan(const V& v) {
    int count = 0;
    const StampedSet r = writer_set_->read();
    for (const Stamped& sv : r)
      if (sv.second == v) {
        ++count;
        break;
      }
    if (count >= cfg_.n - cfg_.f) return true;
    for (int i = 2; i <= cfg_.n; ++i)
      if (witness_[i]->read().contains(v) && ++count >= cfg_.n - cfg_.f)
        return true;
    return false;
  }

  Config cfg_;

  SwmrT<StampedSet>* writer_set_ = nullptr;  // R_1
  std::vector<SwmrT<ValueSet>*> witness_;    // R_k
  Help help_;                                // R_ij, C_k and helper state

  SeqNo seq_ = 0;  // ℓ — writer-local (p1's operation thread only)
  detail::WitnessVerifier<V> verifier_;
};

}  // namespace swsig::core
