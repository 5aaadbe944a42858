// Shared plumbing of the benchmark driver: the run context, the metric
// sink, order statistics, host-speed normalisation and span tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "reference_loop.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(Clock::time_point a, Clock::time_point b);

/// Nearest-rank-interpolated quantile, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Named metrics in insertion order, printed as the result's "metrics".
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] std::string json() const;
  /// One "name  value unit" line per metric (human-readable echo).
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

/// Host-speed normalisation against the frozen reference loop. Every slice
/// is short (a few tens of milliseconds); callers alternate slices with
/// the pieces of work they measure and divide each piece by the slices on
/// either side of it, so slow host drift cancels out of the ratio. Callers
/// then take the median over many such ratios, so a hypervisor stall that
/// hits one slice or one piece of work does not leak into the result.
class HostSpeed {
 public:
  /// The reference-loop rate a normalised number is scaled to. A frozen
  /// constant: normalised rate = raw rate x kNominalMops / measured Mops.
  static constexpr double kNominalMops = 5.0;

  /// Warms the loop up (first-touch allocation) with one discarded slice.
  HostSpeed();

  /// Runs one slice and records it; returns its rate in Mops.
  double slice();
  /// Median of every slice so far.
  [[nodiscard]] double median_mops() const { return median(samples_); }
  /// Multiplier turning a raw rate into a normalised rate (its inverse
  /// normalises durations) for work done between slices measuring
  /// `before` and `after` Mops.
  [[nodiscard]] static double factor(double before, double after) {
    return kNominalMops / (0.5 * (before + after));
  }
  /// The same multiplier from the median of every slice so far.
  [[nodiscard]] double median_factor() const {
    return kNominalMops / median_mops();
  }

 private:
  ReferenceLoop loop_;
  std::vector<double> samples_;
};

/// Span recorder (traced runs only). Spans come from the benchmark's own
/// code around calls into a layer; they are kept in memory and written
/// once, as Chrome trace-event JSON, when the run ends.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  int begin(const std::string& name);
  void end(int id);
  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool write_chrome_json(const std::string& path) const;

  class Scope {
   public:
    Scope(Tracer& t, const std::string& name) : t_(t), id_(t.begin(name)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int id_;
  };

 private:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;
  };
  [[nodiscard]] double now_us() const;

  bool enabled_;
  Clock::time_point t0_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Everything one invocation shares across workload code.
struct Context {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string lockd_path;
  std::string out_dir;  // trace files land here

  Metrics metrics;
  HostSpeed host;
  Tracer tracer{false};

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  /// Records a failed output check (counted, and printed on stderr).
  void fail(std::uint64_t ops, const std::string& why);
};

/// Peak resident set of this process, MiB.
[[nodiscard]] double self_peak_rss_mb();
/// User + system CPU seconds of this process.
[[nodiscard]] double self_cpu_seconds();
/// User + system CPU seconds of every child this process has reaped.
[[nodiscard]] double children_cpu_seconds();

}  // namespace perfbench
