// SWMR multivalued *verifiable register* — Algorithm 1 of the paper.
//
// Sequential specification (Definition 10): Write/Read behave like a normal
// SWMR register; Sign(v) by the writer succeeds iff v was previously
// written; Verify(v) by a reader returns true iff a successful Sign(v)
// happened before it. The implementation is Byzantine linearizable and all
// operations of correct processes terminate, for n > 3f (Theorem 14).
//
// Shared state (paper, Algorithm 1 header):
//   R_i   (every p_i)       SWMR set-of-values register, initially ∅.
//                           R_1 doubles as the writer's "signed" set; R_j
//                           (j>1) is p_j's witness set.
//   R_ij  (every p_i, every reader p_j)
//                           SWSR register readable by p_j, initially ⟨∅,0⟩;
//                           p_i's helping channel to p_j.
//   R*    (writer)          SWMR value register, initially v0.
//   C_k   (every reader)    SWMR round counter, initially 0.
//
// Code comments "L<k>" refer to the paper's Algorithm 1 line numbers. The
// helping round (R_ij, C_k) is core/help_channels.hpp; the witness-set
// steps shared with Algorithm 2 are core/witness_adoption.hpp. Layer
// invariants and deviations from the paper: docs/ARCHITECTURE.md (§core,
// design notes 1-5, 17 and 18).
#pragma once

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
class VerifiableRegister {
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
  // ⟨r_j, c_j⟩ tuple stored in the helping channels R_jk.
  using HelpTuple = typename Help::HelpTuple;

  struct Config {
    int n = 4;          // total number of processes p1..pn
    int f = 1;          // tolerated Byzantine processes; requires n > 3f
    V v0 = V{};         // initial register value
    bool allow_suboptimal = false;  // permit n <= 3f (experiment T5 only)
  };

  VerifiableRegister(SpaceT& space, Config config)
      : cfg_(std::move(config)),
        help_(space, check_resilience(cfg_.n, cfg_.f, cfg_.allow_suboptimal)),
        verifier_(cfg_.n) {
    const int n = cfg_.n;
    witness_.resize(n + 1, nullptr);
    for (int i = 1; i <= n; ++i) {
      witness_[i] = &space.template make_swmr<ValueSet>(i, {}, "R" + std::to_string(i));
      help_.make_channels(i, {});
    }
    last_value_ = &space.template make_swmr<V>(1, cfg_.v0, "R*");
    help_.make_counters();
  }

  const Config& config() const { return cfg_; }

  // ----------------------------------------------------------- writer ops

  // Write(v) — L1-3. Caller must be bound as p1.
  void write(const V& v) {
    help_.require_self(1, "Write");
    last_value_->write(v);    // L1: R* <- v
    written_.insert(v);       // L2: r* <- r* ∪ {v}  (writer-local)
  }                           // L3: return done

  // Sign(v) — L4-8. Caller must be bound as p1.
  SignResult sign(const V& v) {
    help_.require_self(1, "Sign");
    if (written_.contains(v)) {                           // L4: v ∈ r*?
      witness_[1]->update([&](ValueSet& r1) { r1.insert(v); });  // L5
      return SignResult::kSuccess;                        // L6
    }
    return SignResult::kFail;                             // L7-8
  }

  // ----------------------------------------------------------- reader ops

  // Read() — L9-10. Caller must be bound as a reader p2..pn.
  V read() {
    help_.require_reader("Read");
    return last_value_->read();  // L9-10: v <- R*; return v
  }

  // Verify(v) — L11-24 (detail::WitnessVerifier). Caller must be bound as
  // a reader p2..pn. Termination relies on helper threads running
  // help_round() for all correct processes (Theorem 43).
  bool verify(const V& v) {
    const int k = help_.require_reader("Verify");
    return verifier_.verify(help_, k, v, cfg_.f,
                            [&] { return witness_scan(v); });
  }

  // ------------------------------------------------------------- helping

  // One iteration of the while-loop body of Help() — L26-36. Runs as the
  // process the calling thread is bound to (any of p1..pn). Returns true if
  // it served at least one asker (used for idle backoff by the runner).
  bool help_round() {
    const auto round = help_.wake();
    if (!round) return false;
    const int j = round->j;
    return help_.serve(*round, [&] {
      // L30: read every witness register.
      std::vector<ValueSet> r(static_cast<std::size_t>(cfg_.n) + 1);
      for (int i = 1; i <= cfg_.n; ++i)
        r[static_cast<std::size_t>(i)] = witness_[i]->read();
      // L31-33: become a witness of v if the writer signed v (v ∈ r1) or
      // at least f+1 processes are already witnesses of v; then r_j <- R_j.
      return detail::adopt_witnessed(*witness_[j], r, j, cfg_.f,
                                     round->gate);
    });
  }

  // --------------------------------------------------- fault injection API

  // Raw handles to this instance's shared registers. Byzantine behaviors
  // (src/byzantine) use these to mount the attacks from the paper; port
  // enforcement still applies, so a behavior bound as p_i can only write
  // p_i's registers — exactly the model's adversary.
  struct Raw {
    std::vector<SwmrT<ValueSet>*>* witness;  // R_i, index by pid
    std::vector<std::vector<SwsrT<HelpTuple>*>>* channel;  // R_ij
    SwmrT<V>* last_value;                    // R*
    std::vector<SwmrT<RoundCounter>*>* round;  // C_k
  };
  Raw raw() {
    return Raw{&witness_, &help_.channels(), last_value_, &help_.counters()};
  }

 private:
  // True iff >= n−f witness registers currently contain v.
  bool witness_scan(const V& v) {
    int count = 0;
    for (int i = 1; i <= cfg_.n; ++i)
      if (witness_[i]->read().contains(v) && ++count >= cfg_.n - cfg_.f)
        return true;
    return false;
  }

  Config cfg_;

  // Shared registers (owned by the Space; raw pointers are stable).
  std::vector<SwmrT<ValueSet>*> witness_;  // R_i
  SwmrT<V>* last_value_ = nullptr;         // R*
  Help help_;                              // R_ij, C_k and helper state

  // Writer-local state (touched only by p1's operation thread).
  ValueSet written_;  // r*

  detail::WitnessVerifier<V> verifier_;
};

}  // namespace swsig::core
