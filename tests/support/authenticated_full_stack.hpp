// Algorithm 2 (authenticated register) on a message-passing substrate,
// shared by the EmulatedSpace and BatchedEmulatedSpace full-stack tests:
// Write, Read, Verify of written and never-written values, and a
// linearizability check of the whole recorded history.
#pragma once

#include <gtest/gtest.h>

#include <stop_token>
#include <string>
#include <thread>
#include <vector>

#include "core/authenticated_register.hpp"
#include "lincheck/checker.hpp"
#include "lincheck/history.hpp"
#include "lincheck/register_specs.hpp"
#include "runtime/process.hpp"

namespace swsig::test_support {

template <typename SpaceT>
void check_authenticated_register_over(SpaceT& space) {
  using runtime::ThisProcess;
  core::AuthenticatedRegister<int, SpaceT> reg(space,
                                               {.n = 4, .f = 1, .v0 = 0});
  lincheck::HistoryRecorder rec;
  const auto write = [&](int v) {
    rec.record("write", std::to_string(v), [&] { reg.write(v); return true; },
               [](bool) { return std::string("done"); });
  };
  const auto read = [&] {
    return rec.record("read", "", [&] { return reg.read(); },
                      [](int v) { return std::to_string(v); });
  };
  const auto verify = [&](int v) {
    return rec.record("verify", std::to_string(v), [&] { return reg.verify(v); },
                      [](bool b) { return std::string(b ? "true" : "false"); });
  };

  std::vector<std::jthread> helpers;  // joined before reg goes away
  for (int pid = 1; pid <= 4; ++pid) {
    helpers.emplace_back([&, pid](std::stop_token st) {
      ThisProcess::Binder bind(pid);
      while (!st.stop_requested())
        if (!reg.help_round()) std::this_thread::yield();
    });
  }

  // Writes racing Reads and Verifies from two readers.
  {
    std::vector<std::jthread> ops;
    ops.emplace_back([&] {
      ThisProcess::Binder bind(1);
      write(1);
      write(2);
    });
    for (int pid : {2, 3}) {
      ops.emplace_back([&, pid] {
        ThisProcess::Binder bind(pid);
        read();
        verify(1);
        verify(9);  // the spec requires false
      });
    }
  }
  // After both Writes returned.
  {
    ThisProcess::Binder bind(2);
    EXPECT_EQ(read(), 2);
    EXPECT_TRUE(verify(1));
    EXPECT_TRUE(verify(2));
    EXPECT_TRUE(verify(0));  // v0 is signed from the start
    EXPECT_FALSE(verify(9));
  }
  {
    ThisProcess::Binder bind(4);
    EXPECT_TRUE(verify(2));  // relay across readers
  }
  for (auto& t : helpers) t.request_stop();
  helpers.clear();

  const auto ops = rec.operations();
  EXPECT_EQ(ops.size(), 14u);
  EXPECT_TRUE(
      lincheck::check_linearizable(ops, lincheck::AuthenticatedRegisterSpec("0"))
          .linearizable());
}

}  // namespace swsig::test_support
