// The helping channels — the ask-and-answer round Algorithms 1–3 share.
//
// A reader p_k asks by bumping its round counter C_k, then polls the
// channels R_jk until some helper's answer ⟨r_j, c_j⟩ carries c_j >= C_k
// (Algorithm 1 L12-17, Algorithm 2 L11-16, Algorithm 3 L8-14). A helper
// p_j reads every C_k, and answers each reader whose counter moved since it
// last served (L27-29 and L34-36, L26-28 and L36-38, L31-33 and L38-40).
// What the helper answers and how the reader tallies the answers belong to
// each algorithm, and are passed in here as lambdas.
//
// Free mode (registers::Space::free_mode() on a substrate with versions):
// the reader's poll reads through a VersionedCache and takes the first
// answer that qualifies, and a helper whose input versions are unchanged
// since its last completed round skips the round. Deterministic mode runs
// the literal loops, so the pinned trace hashes hold. The freshness and
// version-gate arguments are design note 18 in docs/ARCHITECTURE.md.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/types.hpp"
#include "core/version_gate.hpp"
#include "runtime/process.hpp"

namespace swsig::core::detail {

// R_ij for every process p_i and reader p_j, C_k for every reader p_k, and
// the per-helper state of the rounds run over them. `Answer` is what a
// helper relays: a witness set (Algorithms 1–2) or a witness slot (3).
template <typename SpaceT, typename Answer>
class HelpChannels {
 public:
  template <typename T>
  using SwmrT = typename SpaceT::template SwmrFor<T>;
  template <typename T>
  using SwsrT = typename SpaceT::template SwsrFor<T>;
  using HelpTuple = std::pair<Answer, RoundCounter>;  // ⟨r_j, c_j⟩
  using Channels = std::vector<std::vector<SwsrT<HelpTuple>*>>;
  using Counters = std::vector<SwmrT<RoundCounter>*>;

  // The free-mode fast paths need register versions and a free_mode() flag
  // from the substrate; they compile out for substrates without them
  // (msgpass).
  static constexpr bool kVersionGate =
      requires(SpaceT& s, SwsrT<HelpTuple>& c, SwmrT<RoundCounter>& r) {
        { s.free_mode() } -> std::convertible_to<bool>;
        { c.version() } -> std::convertible_to<std::uint64_t>;
        { r.version() } -> std::convertible_to<std::uint64_t>;
      };

  // The registers are made by make_channels / make_counters, which each
  // algorithm calls where its paper header declares them.
  HelpChannels(SpaceT& space, int n)
      : space_(&space),
        n_(n),
        channel_(n + 1, std::vector<SwsrT<HelpTuple>*>(n + 1)),
        round_(n + 1, nullptr),
        state_(n + 1) {}

  // p_i's channels R_ik to every reader p_k, initially ⟨initial, 0⟩.
  void make_channels(int i, const Answer& initial) {
    for (int k = 2; k <= n_; ++k)
      channel_[i][k] = &space_->template make_swsr<HelpTuple>(
          i, k, {initial, 0},
          "R" + std::to_string(i) + "," + std::to_string(k));
  }

  // Every reader's round counter C_k, initially 0.
  void make_counters() {
    for (int k = 2; k <= n_; ++k)
      round_[k] = &space_->template make_swmr<RoundCounter>(
          k, 0, "C" + std::to_string(k));
  }

  int n() const { return n_; }
  Channels& channels() { return channel_; }
  Counters& counters() { return round_; }

  // True when the free-mode fast paths may run.
  bool fast_path() const {
    if constexpr (kVersionGate)
      return space_->free_mode();
    else
      return false;
  }

  // A register's version() where the substrate has versions, else 0.
  template <typename Reg>
  static std::uint64_t version(const Reg& reg) {
    if constexpr (kVersionGate)
      return reg.version();
    else
      return 0;
  }

  static void require_self(int pid, const char* op) {
    if (runtime::ThisProcess::id() != pid)
      throw std::logic_error(std::string(op) + " may only be called by p" +
                             std::to_string(pid));
  }

  int require_reader(const char* op) const {
    const int k = runtime::ThisProcess::id();
    if (k < 2 || k > n_)
      throw std::logic_error(std::string(op) +
                             " may only be called by a reader p2..pn");
    return k;
  }

  // ------------------------------------------------------------ reader

  // Rounds of reader p_k until `tally` decides. Each round bumps C_k and
  // waits for one answer from a helper p_j with !counted(j) and c_j >= C_k,
  // then calls tally(j, r_j), which returns an engaged optional once the
  // operation's result is known. While no helper has answered, free mode
  // also asks `escape()` (the algorithm's witness scan) for an early result.
  template <typename Counted, typename Tally, typename Escape>
  auto ask(int k, Counted&& counted, Tally&& tally, Escape&& escape) {
    const bool fast = fast_path();
    VersionedCache<HelpTuple> cache(fast ? n_ : 0);
    for (;;) {
      // L13: C_k <- C_k + 1 (single owner step; see Swmr::update).
      const RoundCounter ck = round_[k]->update([](RoundCounter& c) { ++c; });
      // L14-17: re-read R_jk of every uncounted p_j until some c_j >= C_k.
      // Deterministic mode reads every channel in every pass and takes the
      // smallest qualifying pid (the paper allows any); free mode stops at
      // the first cached hit.
      int chosen = 0;
      const Answer* answer = nullptr;
      HelpTuple literal;
      while (chosen == 0) {
        for (int j = 1; j <= n_; ++j) {
          if (counted(j)) continue;
          if (fast) {
            const HelpTuple& t = cache.fetch(j, *channel_[j][k]);
            if (t.second < ck) continue;
            chosen = j;
            answer = &t.first;
            break;
          }
          HelpTuple t = channel_[j][k]->read();  // L16
          if (t.second >= ck && chosen == 0) {   // L17
            chosen = j;
            literal = std::move(t);
            answer = &literal.first;
          }
        }
        if (chosen == 0) {
          if (fast) {
            if (auto done = escape()) return *std::move(done);
          }
          std::this_thread::yield();  // free-mode politeness
        }
      }
      if (auto done = tally(chosen, *answer)) return *std::move(done);
    }
  }

  // ------------------------------------------------------------ helper

  // A helping round, as decided by wake(): the helper's pid, and in free
  // mode the input versions sampled before the round's reads.
  struct Wake {
    int j = 0;
    bool gate = false;
    std::uint64_t rounds = 0;  // sum of the C_k versions
    std::uint64_t extra = 0;   // the algorithm's other inputs (see wake)
  };

  // Starts a helping round of the calling thread's process p_j, or returns
  // nullopt when free mode shows the round would change nothing: C_k's
  // version counts its writes, so unchanged versions mean no reader asked
  // since p_j's last completed round. extra(j) sums the versions of any
  // other registers that can give p_j work (Algorithm 3's echoes and
  // witness slots), or returns nullopt once they never can again; from
  // then on p_j's gate reads the round counters alone. It runs in free
  // mode only.
  template <typename Extra>
  std::optional<Wake> wake(Extra&& extra) {
    const int j = runtime::ThisProcess::id();
    if (j < 1 || j > n_)
      throw std::logic_error("Help requires a thread bound to p1..pn");
    Wake w{j, fast_path()};
    if (w.gate) {
      HelpState& hs = state_[j];
      if (!hs.settled) {
        if (const auto e = extra(j))
          w.extra = *e;
        else
          hs.settled = true;
      }
      for (int k = 2; k <= n_; ++k) w.rounds += version(*round_[k]);
      if (hs.recorded && w.rounds == hs.rounds && w.extra == hs.extra)
        return std::nullopt;
    }
    return w;
  }
  std::optional<Wake> wake() {
    return wake([](int) { return std::optional<std::uint64_t>(); });
  }

  // The asker step of a round started by wake(): reads every C_k, and if
  // some reader's counter moved since p_j last served it, writes
  // ⟨answer(), C_k⟩ to each such reader. Returns true iff it served one.
  template <typename AnswerFn>
  bool serve(const Wake& w, AnswerFn&& answer) {
    HelpState& hs = state_[w.j];
    // Sized by the helper's own thread, so these per-round writes land away
    // from the registers' read-mostly arrays.
    if (hs.prev_ck.empty()) hs.prev_ck.assign(n_ + 1, 0);
    // L27-28: read every reader's round counter; askers = readers whose
    // counter increased since we last helped.
    std::vector<RoundCounter> ck(n_ + 1, 0);
    std::vector<int> askers;
    for (int k = 2; k <= n_; ++k) {
      ck[k] = round_[k]->read();
      if (ck[k] > hs.prev_ck[k]) askers.push_back(k);
    }
    if (!askers.empty()) {  // L29
      const Answer rj = answer();
      // L34-36: answer each asker and remember the round we served.
      for (int k : askers) {
        channel_[w.j][k]->write({rj, ck[k]});  // L35
        hs.prev_ck[k] = ck[k];                 // L36
      }
    }
    if (w.gate) {
      hs.rounds = w.rounds;
      hs.extra = w.extra;
      hs.recorded = true;
    }
    return !askers.empty();
  }

 private:
  // Touched only by its own process's helper thread; one cache line each,
  // so helpers do not contend on their neighbours' state.
  struct alignas(64) HelpState {
    std::vector<RoundCounter> prev_ck;  // L25: last C_k served, per reader
    // Versions sampled by wake() for the last completed round.
    std::uint64_t rounds = 0;
    std::uint64_t extra = 0;
    bool recorded = false;
    bool settled = false;  // extra() returned nullopt: never sampled again
  };

  SpaceT* space_;
  int n_;
  Channels channel_;  // R_ij
  Counters round_;    // C_k
  std::vector<HelpState> state_;
};

}  // namespace swsig::core::detail
