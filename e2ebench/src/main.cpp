// e2e_bench — the repository's end-to-end benchmark (see ../README.md).
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>] [--git-sha <sha>] [--plant-wrong-answer <k>]
//   e2e_bench --self-test
//
// Each workload runs a fixed number of operations (sized from --seconds, so
// a run lasts about that long on a 4-core machine) from one closed-loop
// client thread, against n = 4, f = 1. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 runs half the plan untraced and half
// traced and reports the per-layer metrics plus trace.overhead. A wrong
// answer exits 3 without a result.
#include <sched.h>

#if defined(__x86_64__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "msgpass.hpp"
#include "obs/recorder.hpp"
#include "run.hpp"
#include "shared.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace e2e {
namespace {

constexpr int kExitUsage = 2;
constexpr int kExitWrongAnswer = 3;
constexpr int kExitTooFewSamples = 4;

struct Workload {
  const char* name;
  // Plan for a run of `seconds`; never below 1000 samples per op class.
  std::function<Plan(int seconds)> plan;
  Plan warmup;  // run first, unmeasured: lazy set-up and caches settle
  std::function<void(Run&, const Plan&, std::uint64_t seed)> run;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"sign-verify",
       [](int sec) { return Plan{std::max(160, 230 * sec), 32}; },
       Plan{8, 32},
       [](Run& r, const Plan& p, std::uint64_t) { run_verifiable(r, p); }},
      {"signed-log",
       [](int sec) { return Plan{std::max(16, 24 * sec / 10), 256}; },
       Plan{1, 64},
       [](Run& r, const Plan& p, std::uint64_t) { run_verifiable(r, p); }},
      {"broadcast-stream",
       [](int sec) { return Plan{std::max(4, 24 * sec), 4 * 64}; },
       Plan{1, 4 * 16},
       [](Run& r, const Plan& p, std::uint64_t) { run_broadcast(r, p); }},
      {"msgpass-rw",
       [](int sec) { return Plan{10, std::max(500, 250 * sec)}; },
       Plan{1, 200},
       [](Run& r, const Plan& p, std::uint64_t) { run_msgpass_rw(r, p); }},
      {"msgpass-faults",
       [](int sec) { return Plan{6, std::max(500, 80 * sec)}; },
       Plan{1, 200},
       [](Run& r, const Plan& p, std::uint64_t seed) {
         run_msgpass_faults(r, p, seed);
       }},
  };
  return all;
}

// ------------------------------------------------------------ fingerprint

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

std::string cpu_model() {
#if defined(__x86_64__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  char brand[49] = {};
  for (unsigned int i = 0; i < 3; ++i) {
    unsigned int regs[4] = {};
    __get_cpuid(0x80000002 + i, &regs[0], &regs[1], &regs[2], &regs[3]);
    std::memcpy(brand + 16 * i, regs, sizeof(regs));
  }
  std::string s(brand);
  s.erase(0, s.find_first_not_of(' '));
  return s;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_fingerprint(const std::string& git_sha) {
#if defined(SWSIG_OBS_ENABLED)
  const char* obs = "ON";
#else
  const char* obs = "OFF";
#endif
  std::printf(
      "# fingerprint {\"nproc\": %d, \"cpu\": \"%s\", \"compiler\": \"%s\", "
      "\"flags\": \"%s\", \"build_type\": \"%s\", \"git_sha\": \"%s\", "
      "\"SWSIG_OBS\": \"%s\", \"recorder\": \"%s\"}\n",
      online_cpus(), json_escape(cpu_model()).c_str(),
      json_escape(E2E_COMPILER).c_str(), json_escape(E2E_CXX_FLAGS).c_str(),
      E2E_BUILD_TYPE, json_escape(git_sha).c_str(), obs,
      swsig::obs::FlightRecorder::instance().enabled() ? "enabled"
                                                       : "disabled");
}

// ---------------------------------------------------------------- results

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string format_result(bool correct, std::uint64_t attempted,
                          std::uint64_t failed,
                          const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    if (i) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

// The bounded metrics: set-up, and the steady throughput and medians (see
// stats.hpp). The whole-run p50s and the p99s are printed with their sample
// counts but not bounded — on a shared VM the p99s follow the host's wake-up
// latency, not the program (see README.md).
std::vector<Metric> end_to_end(const Run& r) {
  const std::vector<Segment> segments = r.segments();
  std::vector<Metric> metrics = {
      {"setup_s", median(r.setup_s), "s"},
      {"ops_per_s", r.ops_per_s(segments), "1/s"},
  };
  for (const Samples* s : {&r.write, &r.read, &r.deny}) {
    const double steady = s->steady_p50(segments);
    std::printf("# %s p50=%.6g us p99=%.6g us from %zu samples in %zu chunks"
                "; steady p50=%.6g us over %zu segments\n",
                s->name().c_str(), s->p50(), s->p99(), s->count(),
                s->chunks(), steady, segments.size());
    metrics.push_back({s->name() + "_p50_us", steady, "us"});
  }
  std::printf("# samples setup=%zu ops=%llu\n", r.setup_s.size(),
              static_cast<unsigned long long>(r.attempted));
  return metrics;
}

std::vector<Metric> per_layer(const Run& r, const std::vector<Span>& spans,
                              double overhead) {
  const Layers& l = r.layers;
  const Tracer& t = tracer();
  const auto per = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  const double ops = static_cast<double>(r.attempted);
  const auto med = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : median(v);
  };
  // Helper counters cover the traced half only (the tracer was off before).
  return {
      {"core.help_rounds_per_op", per(t.help_calls(), ops), "count"},
      {"core.help_active_share", per(t.help_served(), t.help_calls()),
       "ratio"},
      {"core.help_busy_us_per_op", per(t.help_busy_ns() / 1000.0, ops), "us"},
      {"core.verify_rounds_per_op",
       per(static_cast<double>(l.verify_rounds), l.verify_ops), "count"},
      {"core.client_cpu_us_per_op", per(l.client_cpu_ns / 1000.0, ops), "us"},
      {"registers.steps_per_op", per(static_cast<double>(l.steps), ops),
       "count"},
      {"registers.epoch_bumps_per_op",
       per(static_cast<double>(l.epoch_bumps), ops), "count"},
      {"runtime.wait_us_per_op", Tracer::wait_us_per_op(spans), "us"},
      {"broadcast.deliver_polls_per_delivery",
       per(static_cast<double>(l.deliver_polls), l.deliveries), "count"},
      {"broadcast.help_rounds_per_broadcast",
       per(static_cast<double>(l.broadcast_help_calls), l.broadcasts),
       "count"},
      {"msgpass.msgs_per_write",
       per(static_cast<double>(l.write_msgs), l.msg_writes), "count"},
      {"msgpass.msgs_per_read",
       per(static_cast<double>(l.read_msgs), l.msg_reads), "count"},
      {"msgpass.queue_depth",
       per(static_cast<double>(l.queue_depth), l.queue_samples), "count"},
      {"msgpass.retries_per_op", per(static_cast<double>(l.retries), ops),
       "count"},
      {"msgpass.timeouts", static_cast<double>(l.timeouts), "count"},
      {"msgpass.aborts", static_cast<double>(l.aborts), "count"},
      {"faults.dropped_per_op", per(static_cast<double>(l.dropped), ops),
       "count"},
      {"faults.delayed_per_op", per(static_cast<double>(l.delayed), ops),
       "count"},
      {"faults.recovery_ms", med(r.recovery_ms), "ms"},
      {"faults.unavailable_ms", med(r.unavailable_ms), "ms"},
      {"obs.events_per_op", per(static_cast<double>(l.events), ops), "count"},
      {"obs.dropped_events",
       static_cast<double>(
           swsig::obs::FlightRecorder::instance().overflow_thread_events()),
       "count"},
      {"trace.overhead", overhead, "ratio"},
  };
}

Plan halve(Plan p) {
  if (p.systems >= 2)
    p.systems /= 2;
  else
    p.ops_per_system /= 2;
  return p;
}

// ------------------------------------------------------------- self-test

int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "[ OK ]" : "[FAIL]", what);
    if (!ok) ++failures;
  };
  const auto near = [](double a, double b) { return std::abs(a - b) < 1e-9; };

  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(near(quantile_sorted(hundred, 0.5), 50.5), "p50 of 1..100 is 50.5");
  expect(near(quantile_sorted(hundred, 0.99), 99.01),
         "p99 of 1..100 is 99.01");
  expect(near(quantile_sorted({7.0}, 0.99), 7.0), "quantile of one sample");
  expect(near(median({3, 1, 2, 10}), 2.5), "median of an even count");

  Samples tail("tail");
  for (int i = 0; i < 999; ++i) tail.add(i, i);
  bool refused = false;
  try {
    (void)tail.p99();
  } catch (const InsufficientSamples&) {
    refused = true;
  }
  expect(refused, "p99 refused below 1000 samples");
  tail.add(999, 999);
  expect(near(tail.p99(), 989.01), "p99 of 0..999 is 989.01");
  expect(near(tail.p50(), 499.5), "p50 of 0..999 is 499.5");
  Samples burst("burst");
  for (int i = 0; i < 16000; ++i)
    burst.add(i >= 5000 && i < 6000 ? 1000 : 1, i);
  expect(burst.chunks() == 16 && near(burst.p99(), 1.0),
         "a burst confined to one chunk does not move p99");

  // 84 loops of 64 ops group into 8-loop segments (the last 4 loops form
  // a short one); a 1800-op loop is cut into 512, 512 and 776.
  std::vector<std::size_t> short_loops;
  for (std::size_t l = 0; l < 84; ++l) short_loops.push_back(64 * l);
  const std::vector<Segment> grouped = cut_segments(short_loops, 5376);
  expect(grouped.size() == 11 && grouped[0].begin == 0 &&
             grouped[0].end == 512 && grouped[10].begin == 5120 &&
             grouped[10].end == 5376,
         "short loops are grouped into whole-loop segments");
  const std::vector<Segment> cut = cut_segments({0, 1800}, 1900);
  expect(cut.size() == 4 && cut[0].end == 512 && cut[1].end == 1024 &&
             cut[2].begin == 1024 && cut[2].end == 1800 &&
             cut[3].begin == 1800 && cut[3].end == 1900,
         "a long loop is cut into kSegmentOps pieces from its start");

  // 20 segments of 10 samples, each segment's p50 = its index + 1; three
  // slower segments disturbed 100-fold move nothing, a uniform 2x slowdown
  // moves it 2x.
  std::vector<Segment> twenty;
  for (std::size_t g = 0; g < 20; ++g) twenty.push_back({10 * g, 10 * g + 10});
  Samples quiet("quiet"), disturbed("disturbed"), slower("slower");
  for (std::size_t i = 0; i < 200; ++i) {
    const double v = static_cast<double>(i / 10 + 1);
    quiet.add(v, i);
    disturbed.add(i / 10 == 7 || i / 10 == 13 || i / 10 == 19 ? 100 * v : v,
                  i);
    slower.add(2 * v, i);
  }
  const double steady = quiet.steady_p50(twenty);
  expect(near(steady, 2.9), "steady p50 is the 10th percentile of segments");
  expect(near(disturbed.steady_p50(twenty), steady),
         "disturbed segments do not move the steady p50");
  expect(near(slower.steady_p50(twenty), 2 * steady),
         "a uniform slowdown moves the steady p50 by its factor");

  const auto throws = [](const std::function<void()>& fn) {
    try {
      fn();
    } catch (const WrongAnswer&) {
      return true;
    }
    return false;
  };
  Checker honest;
  expect(!throws([&] {
           honest.expect_bool(true, true, "t");
           honest.expect_u64(5, 5, "t");
           honest.expect_opt(false, 0, false, 0, "t");
           honest.expect_opt(true, 9, true, 9, "t");
         }),
         "checker passes right answers");
  expect(throws([&] { honest.expect_bool(false, true, "t"); }),
         "checker fails Verify=false for a signed value");
  expect(throws([&] { honest.expect_u64(4, 5, "t"); }),
         "checker fails a stale read");
  expect(throws([&] { honest.expect_opt(true, 9, false, 0, "t"); }),
         "checker fails a deliver before the broadcast");
  expect(throws([&] { honest.expect_opt(true, 8, true, 9, "t"); }),
         "checker fails a deliver of another value");
  Checker planted(2);
  expect(!throws([&] { planted.expect_u64(1, 1, "t"); }) &&
             throws([&] { planted.expect_u64(1, 1, "t"); }),
         "a planted wrong answer fails the check it lands on");

  // wait = op − helper busy inside it: op [0, 100) with helpers busy on
  // [10, 30) and [20, 50) (union 40) and [90, 120) (10 inside) => 50 ns.
  const std::vector<Span> spans = {
      {0, 100, 1, SpanKind::kRead, 2},
      {10, 30, 1, SpanKind::kHelpRound, 1},
      {20, 50, 1, SpanKind::kHelpRound, 3},
      {90, 120, 1, SpanKind::kHelpRound, 4},
  };
  expect(near(Tracer::wait_us_per_op(spans), 0.05),
         "wait_us_per_op subtracts the union of helper busy time");

  std::printf("%s\n", failures == 0 ? "self-test passed" : "self-test FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--spans-out <file>] "
               "[--git-sha <sha>]\n       e2e_bench --self-test\nworkloads:",
               msg);
  for (const auto& w : workloads()) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return kExitUsage;
}

int run_main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key == "--self-test") return self_test();
    if (key.rfind("--", 0) != 0 || i + 1 >= argc)
      return usage(("bad argument: " + key).c_str());
    args[key.substr(2)] = argv[++i];
  }
  for (const char* required : {"workload", "seed", "seconds", "trace"})
    if (!args.contains(required))
      return usage((std::string("missing --") + required).c_str());
  const auto it = std::find_if(
      workloads().begin(), workloads().end(),
      [&](const Workload& w) { return args["workload"] == w.name; });
  if (it == workloads().end()) return usage("unknown workload");
  const std::uint64_t seed = std::strtoull(args["seed"].c_str(), nullptr, 10);
  const int seconds = std::atoi(args["seconds"].c_str());
  const bool trace = args["trace"] == "1";
  if (seconds < 1) return usage("--seconds must be >= 1");
  const std::uint64_t plant =
      args.contains("plant-wrong-answer")
          ? std::strtoull(args["plant-wrong-answer"].c_str(), nullptr, 10)
          : 0;

  print_fingerprint(args.contains("git-sha") ? args["git-sha"] : "unknown");
  Checker checker(plant);
  const Plan plan = it->plan(seconds);
  std::printf("# workload %s seed %llu plan %d systems x %d ops, n=%d f=%d\n",
              it->name, static_cast<unsigned long long>(seed), plan.systems,
              plan.ops_per_system, kN, kF);

  {
    Checker unmeasured;
    Run warm(seed, unmeasured);
    it->run(warm, it->warmup, seed);
  }
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0, failed = 0;
  if (!trace) {
    Run r(seed, checker);
    it->run(r, plan, seed);
    attempted = r.attempted;
    failed = r.aborts;
    std::printf("# fail_share %.6g (aborts=%llu; a timeout fails the run)\n",
                static_cast<double>(failed) / static_cast<double>(attempted),
                static_cast<unsigned long long>(r.aborts));
    metrics = end_to_end(r);
  } else {
    // Same seed, same first half of the inputs: untraced, then traced.
    const Plan half = halve(plan);
    Run plain(seed, checker);
    it->run(plain, half, seed);
    tracer().set_on(true);
    Run traced(seed, checker);
    it->run(traced, half, seed);
    tracer().set_on(false);
    const std::vector<Span> spans = tracer().merged();
    if (args.contains("spans-out") &&
        !Tracer::write_jsonl(spans, args["spans-out"]))
      std::fprintf(stderr, "e2e_bench: could not write %s\n",
                   args["spans-out"].c_str());
    std::printf("# spans %zu\n", spans.size());
    const double overhead =
        (traced.loop_s() / static_cast<double>(traced.attempted)) /
        (plain.loop_s() / static_cast<double>(plain.attempted));
    attempted = plain.attempted + traced.attempted;
    failed = plain.aborts + traced.aborts;
    metrics = per_layer(traced, spans, overhead);
  }
  std::printf("%s\n", format_result(true, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::run_main(argc, argv);
  } catch (const e2e::WrongAnswer& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_bench: WRONG ANSWER: %s\n", e.what());
    return e2e::kExitWrongAnswer;
  } catch (const e2e::InsufficientSamples& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return e2e::kExitTooFewSamples;
  } catch (const std::exception& e) {
    // An op that throws anything else (e.g. registers::OpTimeout) is a
    // failed run, not a counted failure.
    std::fflush(stdout);
    std::fprintf(stderr, "e2e_bench: error: %s\n", e.what());
    return 1;
  }
}
