// Adversarial tests for the message-passing register emulation: Byzantine
// writers equivocate at the network level, Byzantine processes flood fake
// protocol messages and garbage payloads — none of it may violate the
// register's semantics for correct processes.
#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <set>
#include <thread>

#include "msgpass/batched_space.hpp"
#include "msgpass/emulated_swmr.hpp"
#include "runtime/process.hpp"

namespace swsig::msgpass {
namespace {

using runtime::ThisProcess;

// Waits until the network sent no new messages for several consecutive
// poll intervals, then returns the total sent count — the yardstick for
// "and nothing else happened" assertions. Ten stable 5 ms polls: a server
// thread descheduled while holding a still-cascading message would have to
// stall more than 50 ms to slip a straggler past the baseline, so the
// exact-count assertions stay sharp without being flake-prone.
std::uint64_t quiesce(Network& net) {
  return drain_message_count([&] { return net.messages_sent(); },
                             std::chrono::milliseconds(5), /*stable_polls=*/10);
}

// Byzantine writer sends DIFFERENT values for the same sequence number to
// different processes (network-level equivocation, the attack the
// echo-once-per-sn rule exists for). Correct readers may see the old value
// or whichever variant got certified — but never both variants.
TEST(EmulatedByzantine, WriterEquivocationPerSnIsResolved) {
  for (int round = 0; round < 5; ++round) {
    EmulatedSpace space({.n = 4, .f = 1});
    auto& reg = space.make_swmr<int>(1, 0, "r");
    {
      ThisProcess::Binder bind(1);
      for (int to = 1; to <= 4; ++to) {
        Message m;
        m.to = to;
        m.reg = 0;
        m.type = "WRITE";
        m.sn = 1;
        m.payload = (to <= 2) ? 100 : 200;  // two variants of write #1
        space.network().send(m);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::set<int> observed;
    for (int pid = 2; pid <= 4; ++pid) {
      ThisProcess::Binder bind(pid);
      observed.insert(reg.read());
    }
    // 0 (initial) plus at most ONE of the two variants.
    EXPECT_FALSE(observed.contains(100) && observed.contains(200))
        << "round " << round;
  }
}

// A Byzantine process floods ACCEPT messages for a value the writer never
// wrote: with only f=1 voice it stays below the f+1 amplification and the
// n−f delivery thresholds, so no correct process ever stores it.
TEST(EmulatedByzantine, FakeAcceptFloodCannotForgeValues) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 7, "r");
  {
    ThisProcess::Binder bind(3);  // Byzantine non-writer
    for (int i = 0; i < 20; ++i) {
      Message m;
      m.reg = 0;
      m.type = "ACCEPT";
      m.sn = 99;
      m.payload = 666;
      space.network().broadcast(m);
    }
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 7) << "p" << pid;
  }
}

// Same for fake WRITE messages from a non-owner: dropped at the source
// check (only the owner's WRITEs are echoed).
TEST(EmulatedByzantine, NonOwnerWriteMessagesIgnored) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 7, "r");
  {
    ThisProcess::Binder bind(2);
    Message m;
    m.reg = 0;
    m.type = "WRITE";
    m.sn = 5;
    m.payload = 123;
    space.network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 7);
}

// Garbage payloads (wrong std::any type) must not crash server threads,
// and the register must keep functioning afterwards.
TEST(EmulatedByzantine, GarbagePayloadsAreDropped) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(4);
    for (const char* type : {"WRITE", "ECHO", "ACCEPT", "STATE", "READ"}) {
      Message m;
      m.reg = 0;
      m.type = type;
      m.sn = 1;
      m.payload = std::string("not-an-int");
      space.network().broadcast(m);
    }
  }
  // The system still works end-to-end.
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 11);
}

// Holds every STATE reply: those to p4 until p2's read below is open, those
// to p2 longer still.
class HoldStateReplies final : public FaultInjector {
 public:
  FaultDecision on_deliver(const Message& m) override {
    if (m.type != "STATE") return {};
    if (m.to == 4) return {.delay = std::chrono::milliseconds(200)};
    if (m.to == 2) return {.delay = std::chrono::milliseconds(600)};
    return {};
  }
  bool reorder(runtime::ProcessId) override { return false; }
};

// Read ids are per register, so a Byzantine p4 can open a read with the rid
// p2's first read will use. It does so before write(11): the honest
// servers' STATE replies to p4 carry the pre-write (0, 0), and they arrive
// while p2's read is still waiting on its own. Counted toward p2's read,
// they form an n−f quorum for 0 and the read returns a value older than a
// completed write.
template <typename SpaceT>
void expect_read_ignores_replies_to_others(SpaceT& space, Network& net) {
  auto& reg = space.template make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(4);
    Message m;
    m.reg = 0;
    m.type = "READ";
    m.sn = 1;  // p2's first rid
    net.broadcast(m);
  }
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 11);
}

TEST(EmulatedByzantine, StateRepliesToAnotherReaderAreIgnored) {
  HoldStateReplies hold;  // outlives the space that points at it
  EmulatedSpace space({.n = 4, .f = 1, .retry = {.enabled = false}});
  space.network().set_fault_injector(&hold);
  expect_read_ignores_replies_to_others(space, space.network());
}

// Messages for unknown register ids are ignored (no out-of-bounds access).
TEST(EmulatedByzantine, UnknownRegisterIdIgnored) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 3, "r");
  {
    ThisProcess::Binder bind(2);
    Message m;
    m.reg = 999;
    m.type = "WRITE";
    m.sn = 1;
    m.payload = 5;
    space.network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 3);
}

// A crashed (silent) process: writes and reads still complete with n−f
// live processes.
TEST(EmulatedByzantine, ToleratesSilentProcess) {
  EmulatedSpace space({.n = 4, .f = 1});
  // We cannot "crash" a server thread via public API, so emulate silence
  // by having the Byzantine process never participate as a CLIENT; its
  // server still runs, which only HELPS — so additionally check the
  // protocol thresholds directly: with n=4, f=1, the writer needs 3 acks
  // and a reader needs 3 matching states; both exist without p4's client.
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(9);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 9);
}

// ACCEPT replays for an already-delivered sn must be inert. Delivery prunes
// the per-sn vote tallies; without the persistent `delivered` guard, a
// Byzantine replay pooling with one correct straggler's late ACCEPT (played
// here by two test-driven senders, making the f+1 coincidence
// deterministic) re-assembled the amplification threshold on a fresh
// candidate and re-ran the whole ACCEPT/ACK storm — and every duplicate ACK
// recreated an acks_ entry at the owner that was never erased.
TEST(EmulatedByzantine, ReplayedAcceptsAfterDeliveryAreInert) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(8);  // sn=1 delivers at every process
  }
  const std::uint64_t before = quiesce(space.network());
  for (int pid : {2, 3}) {  // f+1 distinct senders replay the real ACCEPT
    ThisProcess::Binder bind(pid);
    Message m;
    m.reg = 0;
    m.type = "ACCEPT";
    m.sn = 1;
    m.payload = 8;  // the genuinely delivered value
    space.network().broadcast(m);
  }
  // Exactly the 2 replay broadcasts (x4 recipients) and nothing else: any
  // re-amplification or duplicate ACK would add to the count.
  EXPECT_EQ(quiesce(space.network()) - before, 8u);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 8);
}

// Concurrent equivocation + honest traffic on a SECOND register: protocol
// instances are isolated by register id.
TEST(EmulatedByzantine, RegistersAreIsolated) {
  EmulatedSpace space({.n = 4, .f = 1});
  auto& bad = space.make_swmr<int>(1, 0, "bad");
  auto& good = space.make_swmr<int>(2, 0, "good");
  std::atomic<bool> stop{false};
  std::thread byz([&] {
    ThisProcess::Binder bind(1);
    int i = 0;
    while (!stop.load()) {
      Message m;
      m.reg = 0;  // the "bad" register
      m.type = "WRITE";
      m.sn = 1;
      m.to = 1 + (i % 4);
      m.payload = (i % 2) ? 100 : 200;
      space.network().send(m);
      ++i;
      std::this_thread::yield();
    }
  });
  {
    ThisProcess::Binder bind(2);
    good.write(55);
  }
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(good.read(), 55);
  }
  stop = true;
  byz.join();
  (void)bad;
}

// ----------------------- the same adversary against the batched substrate

// Byzantine writer sends DIFFERENT batches for the same round to different
// processes (round-level equivocation; the echo-once-per-(origin, round)
// rule). At most one variant can gather the n−f echo quorum.
TEST(BatchedByzantine, RoundEquivocationPerRoundIsResolved) {
  for (int round = 0; round < 5; ++round) {
    BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
    auto& reg = space.make_swmr<int>(1, 0, "r");
    {
      ThisProcess::Binder bind(1);
      for (int to = 1; to <= 4; ++to) {
        Message m;
        m.to = to;
        m.reg = BatchShard::kBatchProto;
        m.type = "BWRITE";
        m.sn = 1;
        m.payload = Batch{{0, 1, std::any((to <= 2) ? 100 : 200)}};
        space.shard(0).network().send(m);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    std::set<int> observed;
    for (int pid = 2; pid <= 4; ++pid) {
      ThisProcess::Binder bind(pid);
      observed.insert(reg.read());
    }
    // 0 (initial) plus at most ONE of the two variants.
    EXPECT_FALSE(observed.contains(100) && observed.contains(200))
        << "round " << round;
  }
}

// A Byzantine process cannot smuggle an op for someone ELSE's register
// into its own round: servers reject any batch containing an op whose
// register the origin does not own.
TEST(BatchedByzantine, SmuggledForeignOpsAreRejected) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
  auto& owned = space.make_swmr<int>(1, 7, "p1s");    // reg 0, owner p1
  auto& byz = space.make_swmr<int>(2, 3, "p2s");      // reg 1, owner p2
  {
    ThisProcess::Binder bind(2);  // Byzantine p2 targets p1's register
    Message m;
    m.reg = BatchShard::kBatchProto;
    m.type = "BWRITE";
    m.sn = 1;
    m.payload = Batch{{/*reg=*/0, /*sn=*/99, std::any(666)},
                      {/*reg=*/1, /*sn=*/1, std::any(4)}};
    space.shard(0).network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    ThisProcess::Binder bind(3);
    EXPECT_EQ(owned.read(), 7);  // p1's register untouched
    EXPECT_EQ(byz.read(), 3);    // the whole poisoned batch was dropped
  }
  // Honest traffic still works afterwards.
  {
    ThisProcess::Binder bind(1);
    owned.write(8);
  }
  ThisProcess::Binder bind(4);
  EXPECT_EQ(owned.read(), 8);
}

// A Byzantine process floods BACCEPT votes: one voice stays below the f+1
// amplification and n−f delivery thresholds even for a digest that really
// exists (votes are counted per distinct sender, so repeats don't help),
// and out-of-range digest ids are dropped outright.
TEST(BatchedByzantine, FakeAcceptFloodCannotForgeValues) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
  auto& reg = space.make_swmr<int>(1, 7, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(8);  // seeds digest id 0: the honest round's batch
  }
  // write() returns on n−f BACKs; the last server's BACK may still be in
  // flight — wait for traffic to go quiet before counting.
  const std::uint64_t before = quiesce(space.shard(0).network());
  {
    ThisProcess::Binder bind(3);
    for (int i = 0; i < 20; ++i) {
      Message m;
      m.reg = BatchShard::kBatchProto;
      m.type = "BACCEPT";
      // Replay the real digest (0) under a fresh round id, plus bogus ids.
      m.sn = 99 + static_cast<std::uint64_t>(i % 2);
      m.payload = std::pair<int, int>(1, i % 3 == 0 ? 0 : i);
      space.shard(0).network().broadcast(m);
    }
  }
  // Exactly the 20 flood broadcasts (x4 recipients) and nothing else: had
  // a server mis-counted the duplicate sender toward f+1 or n−f, it would
  // have amplified BACCEPTs or sent BACKs of its own.
  EXPECT_EQ(quiesce(space.shard(0).network()) - before, 80u);
  for (int pid = 2; pid <= 4; ++pid) {
    ThisProcess::Binder bind(pid);
    EXPECT_EQ(reg.read(), 8) << "p" << pid;
  }
}

// A Byzantine owner reuses the same register sn in two DIFFERENT rounds
// with two different values — the equivocation vector that round-keyed
// echo-once reopens (each round is an independent candidate key, so both
// digests could gather quorums and split servers' stored state 2-2,
// livelocking honest quorum reads). Servers echo-support a (reg, sn) op at
// most once across rounds, so at most one variant can certify: correct
// readers must agree on a single value and must terminate.
TEST(BatchedByzantine, CrossRoundSnReuseCannotSplitServers) {
  for (int attempt = 0; attempt < 5; ++attempt) {
    BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
    auto& reg = space.make_swmr<int>(1, 0, "r");
    {
      ThisProcess::Binder bind(1);
      for (int round = 1; round <= 2; ++round) {
        Message m;
        m.reg = BatchShard::kBatchProto;
        m.type = "BWRITE";
        m.sn = static_cast<std::uint64_t>(round);
        m.payload = Batch{{/*reg=*/0, /*sn=*/5,
                           std::any(round == 1 ? 100 : 200)}};
        space.shard(0).network().broadcast(m);
      }
    }
    quiesce(space.shard(0).network());
    std::set<int> observed;
    for (int pid = 2; pid <= 4; ++pid) {
      ThisProcess::Binder bind(pid);
      observed.insert(reg.read());
    }
    // All correct readers agree (one certified variant, or the initial 0
    // if neither certified) — and in particular never both variants.
    EXPECT_EQ(observed.size(), 1u) << "attempt " << attempt;
    EXPECT_FALSE(observed.contains(100) && observed.contains(200))
        << "attempt " << attempt;
  }
}

// The batched flavor of the replay-storm regression: BACCEPT replays for a
// delivered (origin, round) must not re-assemble a quorum once the round's
// tallies are pruned (same `delivered`-set guard, lifted to round keys).
TEST(BatchedByzantine, ReplayedAcceptsAfterDeliveryAreInert) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(1);
    reg.write(8);  // round 1, digest 0 delivers at every process
  }
  const std::uint64_t before = quiesce(space.shard(0).network());
  for (int pid : {2, 3}) {  // f+1 distinct senders replay the real BACCEPT
    ThisProcess::Binder bind(pid);
    Message m;
    m.reg = BatchShard::kBatchProto;
    m.type = "BACCEPT";
    m.sn = 1;                                // the delivered round
    m.payload = std::pair<int, int>(1, 0);   // (origin p1, the real digest)
    space.shard(0).network().broadcast(m);
  }
  // Exactly the 2 replay broadcasts (x4 recipients) and nothing else.
  EXPECT_EQ(quiesce(space.shard(0).network()) - before, 8u);
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 8);
}

// Garbage payloads (wrong std::any type) on every batched message type
// must not crash server threads; the substrate keeps working afterwards.
TEST(BatchedByzantine, GarbagePayloadsAreDropped) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
  auto& reg = space.make_swmr<int>(1, 0, "r");
  {
    ThisProcess::Binder bind(4);
    for (const char* type : {"BWRITE", "BECHO", "BACCEPT", "BACK"}) {
      Message m;
      m.reg = BatchShard::kBatchProto;
      m.type = type;
      m.sn = 1;
      m.payload = std::string("not-a-batch");
      space.shard(0).network().broadcast(m);
    }
    for (const char* type : {"READ", "STATE"}) {
      Message m;
      m.reg = 0;
      m.type = type;
      m.sn = 1;
      m.payload = std::string("not-an-int");
      space.shard(0).network().broadcast(m);
    }
  }
  {
    ThisProcess::Binder bind(1);
    reg.write(11);
  }
  ThisProcess::Binder bind(2);
  EXPECT_EQ(reg.read(), 11);
}

TEST(BatchedByzantine, StateRepliesToAnotherReaderAreIgnored) {
  HoldStateReplies hold;  // outlives the space that points at it
  BatchedEmulatedSpace space({.n = 4,
                              .f = 1,
                              .shards = 1,
                              .batch_max = 4,
                              .retry = {.enabled = false}});
  space.shard(0).network().set_fault_injector(&hold);
  expect_read_ignores_replies_to_others(space, space.shard(0).network());
}

// Messages for unknown register ids are ignored on the batched space too.
TEST(BatchedByzantine, UnknownRegisterIdIgnored) {
  BatchedEmulatedSpace space({.n = 4, .f = 1, .shards = 1, .batch_max = 4});
  auto& reg = space.make_swmr<int>(1, 3, "r");
  {
    ThisProcess::Binder bind(2);
    Message m;
    m.reg = BatchShard::kBatchProto;
    m.type = "BWRITE";
    m.sn = 1;
    m.payload = Batch{{/*reg=*/999, /*sn=*/1, std::any(5)}};
    space.shard(0).network().broadcast(m);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ThisProcess::Binder bind(3);
  EXPECT_EQ(reg.read(), 3);
}

}  // namespace
}  // namespace swsig::msgpass
