// Shared pieces of the ronbench harness: the span recorder of the traced
// runs, sample statistics, failure accounting and the one-line JSON result
// every subcommand prints for perfbench/run.py to read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cli_util.h"
#include "telemetry/clock.h"

namespace ronbench {

using ron::cli::Args;

inline std::uint64_t now_ns() { return ron::real_now_ns(); }

/// One recorded interval: a layer call made from the harness. `parent` is
/// the index of the enclosing span (-1 for a root); spans of one request
/// (one frame, one churn chunk) share `request_id`.
struct Span {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request_id = 0;
};

/// In-memory span store, written out once when the run ends. A disabled
/// tracer records nothing, so untraced phases pay only a branch.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const std::string& name, int parent = -1,
            std::uint64_t request_id = 0);
  void end(int id);
  /// Adds spans recorded by another tracer (parents re-based).
  void append(const std::vector<Span>& spans);
  const std::vector<Span>& spans() const { return spans_; }
  double seconds(int id) const;
  /// Sum of the durations of `id`'s direct children.
  double child_seconds(int id) const;
  /// Writes {"spans":[...]} with start times relative to the first span.
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span and returns its wall seconds (timed whether or
/// not the tracer records).
template <typename Fn>
double timed(Tracer& tracer, const std::string& name, int parent, Fn&& fn) {
  const int id = tracer.begin(name, parent);
  const std::uint64_t t0 = now_ns();
  fn();
  const double s = static_cast<double>(now_ns() - t0) * 1e-9;
  tracer.end(id);
  return s;
}

/// Interpolated quantile of an unsorted sample (q in [0,1]); throws on an
/// empty sample rather than inventing a number.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// Wrong or failed answers by reason. Every failure is counted; the first
/// few are described on stderr so a failing run says what broke.
class Failures {
 public:
  void add(const std::string& reason, const std::string& detail);
  std::uint64_t total() const { return total_; }
  const std::map<std::string, std::uint64_t>& by_reason() const {
    return by_reason_;
  }
  void merge(const Failures& other);

 private:
  std::map<std::string, std::uint64_t> by_reason_;
  std::uint64_t total_ = 0;
  int described_ = 0;
};

/// Flat name -> number result, printed as one JSON line on stdout.
class Report {
 public:
  void set(const std::string& key, double value) { values_[key] = value; }
  void add_failures(const Failures& f, std::uint64_t attempted);
  void print() const;

 private:
  std::map<std::string, double> values_;
};

/// Workload parameters shared by the subcommands, read from the command
/// line run.py builds (the sizes that differ between workloads come from
/// run.py's workload table).
struct Common {
  std::string spec;      // canonical scenario spec (seeds already applied)
  std::string snapshot;  // the generated snapshot served by ron_served
  std::uint16_t port = 0;
  std::uint64_t seed = 1;
  double seconds = 1.0;  // measured load time
  double warmup = 0.0;   // unmeasured load time before it
  std::size_t frame = 0;  // queries per frame
  std::string inject = "none";  // none | holder | estimate (self-test)
  std::string out_dir = ".";

  explicit Common(const Args& args);
};

}  // namespace ronbench
