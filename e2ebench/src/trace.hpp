// In-memory spans for the traced run, recorded from benchmark code only:
// around each client call, around help_round (through a benchmark-side
// wrapper), and around crash recovery. Each thread appends to its own
// buffer; the buffers are merged and written out when the run ends.
#pragma once

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace e2e {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// CPU time consumed by the calling thread.
inline std::uint64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

enum class SpanKind : std::uint8_t {
  kWrite,      // client write op
  kRead,       // client read op (positive Verify, deliver, emulated read)
  kDeny,       // client deny op (Verify -> false, ⊥ deliver, unwritten read)
  kHelpRound,  // one help_round that served at least one asker
  kRestart,    // crash recovery: Space::restart
};

inline const char* span_name(SpanKind k) {
  switch (k) {
    case SpanKind::kWrite: return "client.write";
    case SpanKind::kRead: return "client.read";
    case SpanKind::kDeny: return "client.deny";
    case SpanKind::kHelpRound: return "core.help_round";
    case SpanKind::kRestart: return "faults.restart";
  }
  return "?";
}

struct Span {
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t op;  // id of the client op in flight when the span began
  SpanKind kind;
  std::int16_t pid;
};

class Tracer {
 public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  // Client ops are numbered; helper spans inherit the current op's id.
  std::uint64_t begin_op() {
    return current_op_.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  std::uint64_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }

  void record(SpanKind kind, int pid, std::uint64_t start, std::uint64_t end,
              std::uint64_t op) {
    buffer().push_back(Span{start, end, op, kind,
                            static_cast<std::int16_t>(pid)});
  }

  // Helper-side accounting: every help_round call is timed (busy time), but
  // only rounds that served an asker are kept as spans.
  void help_round(int pid, std::uint64_t start, std::uint64_t end,
                  bool served) {
    help_calls_.fetch_add(1, std::memory_order_relaxed);
    help_busy_ns_.fetch_add(end - start, std::memory_order_relaxed);
    if (served) {
      help_served_.fetch_add(1, std::memory_order_relaxed);
      record(SpanKind::kHelpRound, pid, start, end, current_op());
    }
  }

  std::uint64_t help_calls() const { return help_calls_.load(); }
  std::uint64_t help_served() const { return help_served_.load(); }
  std::uint64_t help_busy_ns() const { return help_busy_ns_.load(); }

  // All spans, sorted by start time. Call once recording threads are gone.
  std::vector<Span> merged() const {
    std::scoped_lock lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
    std::sort(out.begin(), out.end(), [](const Span& a, const Span& b) {
      return a.start_ns < b.start_ns;
    });
    return out;
  }

  // Mean over client ops of (op duration − time some helper was busy inside
  // it): the share of a client op spent waiting rather than helped.
  static double wait_us_per_op(const std::vector<Span>& spans) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> busy;  // merged
    for (const Span& s : spans) {
      if (s.kind != SpanKind::kHelpRound) continue;
      if (!busy.empty() && s.start_ns <= busy.back().second)
        busy.back().second = std::max(busy.back().second, s.end_ns);
      else
        busy.emplace_back(s.start_ns, s.end_ns);
    }
    double wait_ns = 0;
    std::uint64_t ops = 0;
    std::size_t i = 0;
    for (const Span& s : spans) {
      if (s.kind != SpanKind::kWrite && s.kind != SpanKind::kRead &&
          s.kind != SpanKind::kDeny)
        continue;
      while (i < busy.size() && busy[i].second <= s.start_ns) ++i;
      std::uint64_t overlap = 0;
      for (std::size_t j = i; j < busy.size() && busy[j].first < s.end_ns;
           ++j)
        overlap += std::min(busy[j].second, s.end_ns) -
                   std::max(busy[j].first, s.start_ns);
      wait_ns += static_cast<double>(s.end_ns - s.start_ns - overlap);
      ++ops;
    }
    return ops == 0 ? 0.0 : wait_ns / 1000.0 / static_cast<double>(ops);
  }

  // One JSON object per line: {"name", "op", "pid", "start_ns", "end_ns"}.
  static bool write_jsonl(const std::vector<Span>& spans,
                          const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    for (const Span& s : spans)
      std::fprintf(f,
                   "{\"name\":\"%s\",\"op\":%llu,\"pid\":%d,"
                   "\"start_ns\":%llu,\"end_ns\":%llu}\n",
                   span_name(s.kind), static_cast<unsigned long long>(s.op),
                   static_cast<int>(s.pid),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span>& buffer() {
    thread_local std::vector<Span>* mine = nullptr;
    if (!mine) {
      std::scoped_lock lock(mu_);
      buffers_.push_back(std::make_unique<std::vector<Span>>());
      mine = buffers_.back().get();
    }
    return *mine;
  }

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> current_op_{0};
  std::atomic<std::uint64_t> help_calls_{0};
  std::atomic<std::uint64_t> help_served_{0};
  std::atomic<std::uint64_t> help_busy_ns_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

// The process-wide tracer (one benchmark run per process).
inline Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace e2e
