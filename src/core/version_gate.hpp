// Free-mode fast-path helpers shared by the register algorithms (Algorithms
// 1–3): version-gated polling.
//
// Substrate registers may expose a monotone version() ("completed writes");
// the shared-memory registers::Space does, the message-passing emulation
// does not. When available AND the space runs in free mode, pollers use two
// optimizations that are observationally equivalent to the paper-literal
// loops (an unchanged version implies an unchanged value) but skip metered
// register re-reads:
//
//  * VersionedCache — per-register ⟨value, version⟩ cache for the Verify/
//    Read wait loops: a retry pass re-reads only registers whose version
//    changed instead of re-collecting all n from scratch.
//  * aggregate version sums before a help round (HelpChannels::wake in
//    core/help_channels.hpp) — a helper first sums the versions of the
//    registers that could create work for it and returns immediately when
//    the sums are unchanged since its last completed round.
//
// Deterministic mode never takes these paths: skipping a read changes the
// step sequence, and deterministic traces must stay byte-identical
// (pinned by deterministic_schedule_test).
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

namespace swsig::core::detail {

// Cache of the last ⟨value, version⟩ read from registers 1..n. Disabled
// (never consulted) when constructed with n = 0.
template <typename Value>
class VersionedCache {
 public:
  explicit VersionedCache(int n)
      : entries_(n > 0 ? static_cast<std::size_t>(n) + 1 : 0) {}

  bool enabled() const { return !entries_.empty(); }

  // Returns register j's current value, re-reading it only if its version
  // moved since the cached read. The version is sampled *before* the read,
  // so a write racing the read at worst marks the cached value stale one
  // pass early — never hides a newer value forever.
  template <typename Reg>
  const Value& fetch(int j, Reg& reg) {
    Entry& e = entries_[static_cast<std::size_t>(j)];
    if constexpr (requires {
                    { reg.version() } -> std::convertible_to<std::uint64_t>;
                  }) {
      const std::uint64_t ver = reg.version();
      if (!e.valid || ver != e.version) {
        e.version = ver;
        e.value = reg.read();
        e.valid = true;
      }
    } else {
      e.value = reg.read();  // substrate without versions: plain read
    }
    return e.value;
  }

 private:
  struct Entry {
    Value value{};
    std::uint64_t version = 0;
    bool valid = false;
  };
  std::vector<Entry> entries_;
};

// Space-wide write-epoch gate for composite objects whose helping work can
// only arise from *some* register write in their space (AtomicSnapshot,
// the ReliableBroadcast backends, SignedStickyRegister). One seen-epoch
// slot per process; each process's helper thread touches only its own.
//
// Usage in a help_round() bound as `pid` (free mode only — callers gate on
// space.free_mode()):
//   std::uint64_t epoch = 0;
//   if (gate && !epoch_gate_.changed(space, pid, epoch)) return false;
//   ... full helping round ...
//   if (gate) epoch_gate_.record(pid, epoch);
// The epoch is sampled before the round's reads, so a write landing
// mid-round is picked up by the next call; the caller's own writes bump
// the epoch, which costs one extra (idle) round before quiescing.
class SpaceEpochGate {
 public:
  explicit SpaceEpochGate(int n) : seen_(static_cast<std::size_t>(n) + 1) {}

  // Samples the space's write epoch into `epoch`; false when it is
  // unchanged since record() for this pid (caller should skip the round).
  template <typename SpaceT>
  bool changed(SpaceT& space, int pid, std::uint64_t& epoch) {
    epoch = space.write_epoch();
    const Seen& s = seen_[static_cast<std::size_t>(pid)];
    return !s.valid || epoch != s.epoch;
  }

  void record(int pid, std::uint64_t epoch) {
    seen_[static_cast<std::size_t>(pid)] = {epoch, true};
  }

 private:
  struct Seen {
    std::uint64_t epoch = 0;
    bool valid = false;
  };
  std::vector<Seen> seen_;
};

}  // namespace swsig::core::detail
