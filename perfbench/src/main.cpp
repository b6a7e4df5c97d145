// ronbench — the load, check and trace harness behind perfbench/run.py.
//
//   ronbench load   --workload W --port P --spec S --snapshot F ...
//       drives a running ron_served over loopback (closed- or open-loop,
//       with churn on churn-dense), checks every answer, prints one JSON
//       line of measurements and failure counts.
//   ronbench layers --workload W --port P --spec S --snapshot F ...
//       the traced run: calls each layer's public functions in process
//       under spans, checks the stage-by-stage build against
//       ScenarioBuilder's, and writes the spans to --out-dir.
//
// run.py owns the workload table; this binary only receives a spec, a
// snapshot and sizes.
#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "common.h"
#include "common/check.h"
#include "subcommands.h"

namespace ronbench {

int Tracer::begin(const std::string& name, int parent,
                  std::uint64_t request_id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, now_ns(), 0, parent, request_id});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
}

void Tracer::append(const std::vector<Span>& spans) {
  if (!enabled_) return;
  const int offset = static_cast<int>(spans_.size());
  for (Span s : spans) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(std::move(s));
  }
}

double Tracer::seconds(int id) const {
  if (id < 0) return 0.0;
  const Span& s = spans_[static_cast<std::size_t>(id)];
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

double Tracer::child_seconds(int id) const {
  double sum = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) sum += seconds(static_cast<int>(i));
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  RON_CHECK(os.is_open(), "cannot open trace file '" << path << "'");
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  os << "{\"spans\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "" : ",") << "\n{\"id\":" << i << ",\"name\":\""
       << s.name << "\",\"start_ns\":" << (s.start_ns - t0)
       << ",\"end_ns\":" << (s.end_ns - t0) << ",\"parent\":" << s.parent
       << ",\"request_id\":" << s.request_id << "}";
  }
  os << "\n]}\n";
  RON_CHECK(os.good(), "failed writing trace file '" << path << "'");
}

double quantile(std::vector<double> values, double q) {
  RON_CHECK(!values.empty(), "quantile of an empty sample (q=" << q << ")");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

void Failures::add(const std::string& reason, const std::string& detail) {
  ++by_reason_[reason];
  ++total_;
  if (described_ < 5) {
    ++described_;
    std::cerr << "ronbench: FAIL " << reason << ": " << detail << "\n";
  }
}

void Failures::merge(const Failures& other) {
  for (const auto& [reason, count] : other.by_reason_) {
    by_reason_[reason] += count;
  }
  total_ += other.total_;
}

void Report::add_failures(const Failures& f, std::uint64_t attempted) {
  set("attempted", static_cast<double>(attempted));
  set("failed", static_cast<double>(f.total()));
  for (const auto& [reason, count] : f.by_reason()) {
    set("fail." + reason, static_cast<double>(count));
  }
}

void Report::print() const {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "{";
  bool first = true;
  for (const auto& [key, value] : values_) {
    os << (first ? "" : ",") << "\"" << key << "\":";
    if (std::isfinite(value)) {
      os << value;
    } else {
      os << "null";
    }
    first = false;
  }
  os << "}";
  std::cout << os.str() << std::endl;
}

Common::Common(const Args& args)
    : spec(args.get("spec", "")),
      snapshot(args.get("snapshot", "")),
      port(static_cast<std::uint16_t>(
          ron::cli::parse_u64(args.get("port", "0"), "--port"))),
      seed(ron::cli::parse_u64(args.get("seed", "1"), "--seed")),
      seconds(std::stod(args.get("seconds", "1"))),
      warmup(std::stod(args.get("warmup", "0"))),
      frame(ron::cli::parse_u64(args.get("frame", "0"), "--frame")),
      inject(args.get("inject", "none")),
      out_dir(args.get("out-dir", ".")) {
  if (spec.empty()) throw ron::cli::UsageError("--spec is required");
  if (frame == 0) throw ron::cli::UsageError("--frame is required");
  if (inject != "none" && inject != "holder" && inject != "estimate") {
    throw ron::cli::UsageError("--inject must be none, holder or estimate");
  }
}

namespace {

int usage(std::ostream& os) {
  os << "usage: ronbench load|layers --workload W --spec SPEC "
        "[--snapshot F --port P] [--seed N --seconds T ...]\n"
        "perfbench/run.py is the intended caller; see perfbench/NOTES.md.\n";
  return 2;
}

int run(int argc, char** argv) {
  if (argc < 2) throw ron::cli::UsageError("missing subcommand");
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "load") return cmd_load(args);
  if (cmd == "layers") return cmd_layers(args);
  throw ron::cli::UsageError("unknown subcommand '" + cmd + "'");
}

}  // namespace
}  // namespace ronbench

int main(int argc, char** argv) {
  return ron::cli::tool_main(
      "ronbench", [&] { return ronbench::run(argc, argv); },
      [](std::ostream& os) { ronbench::usage(os); });
}
