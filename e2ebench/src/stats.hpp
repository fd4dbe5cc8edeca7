// Exact per-op latency statistics and the answer checker.
//
// Percentiles come from every recorded sample (sorted, linear interpolation
// between order statistics), never from the obs log-bucket histograms: those
// have 8 buckets per octave, so their percentiles move in ~9% steps and read
// identically across runs that differ.
//
// A tail percentile is the median of per-chunk percentiles: the samples are
// cut, in the order they were taken, into as many chunks of >= 1000 as they
// fill (at most kMaxChunks), and each chunk's exact p99 is taken. A burst of
// outside load then moves one chunk, not the reported figure.
//
// The reported figures (a p50 per op class, ops/s) are steady figures: the
// run is cut into segments that each hold the same op mix (whole systems, or
// whole fault windows; see cut_segments), the statistic is taken per
// segment, and the run reports its least-disturbed tenth — the 10th
// percentile of the segments' p50s, the 90th of their throughputs. On a
// shared host, other tenants only ever add time, and they come and go over
// seconds to minutes; a change that makes the program slower slows every
// segment and still shows.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace e2e {

// A p99 needs at least this many samples, so >= 10 lie beyond it.
inline constexpr std::size_t kMinTailSamples = 1000;
inline constexpr std::size_t kMaxChunks = 16;
// Shortest segment, in ops: one signed log (256 values), and one
// msgpass-faults window (512 op-clock ticks).
inline constexpr std::size_t kSegmentOps = 512;
// Where across segments a steady latency is read; throughput is read at
// 1 - kSteadyQ.
inline constexpr double kSteadyQ = 0.10;

class InsufficientSamples : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// q in [0, 1]; `sorted` ascending and non-empty. Linear interpolation between
// the order statistics around rank q * (count - 1).
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) throw InsufficientSamples("quantile of no samples");
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

inline double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

// q-quantile of unsorted values.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

// An op-position range [begin, end) of a run.
struct Segment {
  std::size_t begin;
  std::size_t end;
};

// Cuts a run of `total` ops, whose systems' op loops start at `loop_starts`
// (ascending op positions), into segments of whole loops: short loops are
// grouped until a segment holds >= kSegmentOps ops (the last group may hold
// fewer), and a loop of at least 2 * kSegmentOps ops is cut into
// kSegmentOps-op pieces from its start, the last piece taking the rest. A
// piece then lines up with one fault window, whose op clock starts with the
// loop.
inline std::vector<Segment> cut_segments(
    const std::vector<std::size_t>& loop_starts, std::size_t total) {
  std::vector<Segment> out;
  std::size_t open = total;  // begin of the group being filled, if any
  for (std::size_t l = 0; l < loop_starts.size(); ++l) {
    const std::size_t begin = loop_starts[l];
    const std::size_t end =
        l + 1 < loop_starts.size() ? loop_starts[l + 1] : total;
    if (end - begin >= 2 * kSegmentOps) {
      if (open != total) out.push_back({open, begin});
      open = total;
      const std::size_t pieces = (end - begin) / kSegmentOps;
      for (std::size_t p = 0; p < pieces; ++p)
        out.push_back({begin + p * kSegmentOps,
                       p + 1 < pieces ? begin + (p + 1) * kSegmentOps : end});
      continue;
    }
    if (open == total) open = begin;
    if (end - open >= kSegmentOps) {
      out.push_back({open, end});
      open = total;
    }
  }
  if (open != total) out.push_back({open, total});
  return out;
}

// Median over consecutive chunks of `v` (each >= min_chunk long, at most
// kMaxChunks of them) of stat(chunk).
template <typename Stat>
double chunked_median(const std::vector<double>& v, std::size_t min_chunk,
                      Stat&& stat) {
  const std::size_t chunks =
      std::clamp<std::size_t>(v.size() / min_chunk, 1, kMaxChunks);
  std::vector<double> per_chunk;
  for (std::size_t c = 0; c < chunks; ++c) {
    std::vector<double> part(v.begin() + static_cast<std::ptrdiff_t>(
                                             c * v.size() / chunks),
                             v.begin() + static_cast<std::ptrdiff_t>(
                                             (c + 1) * v.size() / chunks));
    per_chunk.push_back(stat(part));
  }
  return median(per_chunk);
}

// Latency samples of one op class, in microseconds.
class Samples {
 public:
  explicit Samples(std::string name) : name_(std::move(name)) {}

  // `at` is the op's position in the run (ops before it).
  void add(double us, std::size_t at) {
    us_.push_back(us);
    at_.push_back(at);
  }
  std::size_t count() const { return us_.size(); }
  const std::string& name() const { return name_; }

  std::size_t chunks() const {
    return std::clamp<std::size_t>(us_.size() / kMinTailSamples, 1,
                                   kMaxChunks);
  }

  double p50() const { return quantile(0.50); }

  // The steady p50: the kSteadyQ-quantile over segments of each segment's
  // exact p50. Segments without a sample of this class are skipped.
  double steady_p50(const std::vector<Segment>& segments) const {
    std::vector<double> per_segment;
    std::size_t i = 0;
    for (const Segment& seg : segments) {
      while (i < at_.size() && at_[i] < seg.begin) ++i;
      std::vector<double> part;
      for (; i < at_.size() && at_[i] < seg.end; ++i) part.push_back(us_[i]);
      if (!part.empty()) per_segment.push_back(e2e::quantile(part, 0.5));
    }
    if (per_segment.empty())
      throw InsufficientSamples(name_ + ": no samples in any segment");
    return e2e::quantile(per_segment, kSteadyQ);
  }

  // Refuses a tail percentile backed by fewer than kMinTailSamples.
  double p99() const {
    if (us_.size() < kMinTailSamples)
      throw InsufficientSamples(name_ + ": p99 needs >= " +
                                std::to_string(kMinTailSamples) +
                                " samples, have " +
                                std::to_string(us_.size()));
    return quantile(0.99);
  }

 private:
  double quantile(double q) const {
    return chunked_median(us_, kMinTailSamples, [q](std::vector<double> c) {
      std::sort(c.begin(), c.end());
      return quantile_sorted(c, q);
    });
  }

  std::string name_;
  std::vector<double> us_;
  std::vector<std::size_t> at_;  // op position per sample, ascending
};

// A wrong answer from the library: the run fails instead of counting it.
class WrongAnswer : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Checks every answer the workloads get back. `plant_at` > 0 corrupts the
// plant_at-th observed answer before comparing it — the self-test uses it to
// show that a wrong answer fails the run.
class Checker {
 public:
  explicit Checker(std::uint64_t plant_at = 0) : plant_at_(plant_at) {}

  void expect_bool(bool got, bool want, const std::string& what) {
    if (planted()) got = !got;
    if (got != want)
      fail(what + ": got " + (got ? "true" : "false") + ", want " +
           (want ? "true" : "false"));
  }

  void expect_u64(std::uint64_t got, std::uint64_t want,
                  const std::string& what) {
    if (planted()) got += 1;
    if (got != want)
      fail(what + ": got " + std::to_string(got) + ", want " +
           std::to_string(want));
  }

  // A deliver/read that may be ⊥: `has` false means ⊥.
  void expect_opt(bool has, std::uint64_t got, bool want_has,
                  std::uint64_t want, const std::string& what) {
    if (planted()) has = !has;
    if (has != want_has || (has && got != want))
      fail(what + ": got " + (has ? std::to_string(got) : "⊥") + ", want " +
           (want_has ? std::to_string(want) : "⊥"));
  }

 private:
  bool planted() { return ++seen_ == plant_at_; }
  [[noreturn]] void fail(const std::string& msg) {
    throw WrongAnswer("wrong answer #" + std::to_string(seen_) + " — " + msg);
  }

  std::uint64_t plant_at_;
  std::uint64_t seen_ = 0;
};

}  // namespace e2e
