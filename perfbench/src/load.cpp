// Load drivers and answer checks: closed-loop locate/estimate frames, the
// open-loop locate sender racing churn on churn-dense, and `ronbench load`.
//
// The open-loop sender does not use ron_loadgen's open loop, which stamps
// frames at their actual send, resets its schedule to "now" when behind
// and skips sends past 1024 frames in flight — each of which hides server
// stalls (coordinated omission). Here every frame has a due time fixed in
// advance, is sent as soon as possible once due (never skipped, never
// rescheduled), and its latency runs from the due time.
#include <poll.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <thread>

#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "oracle/snapshot.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_spec.h"
#include "churn/trace_generator.h"
#include "served/client.h"
#include "subcommands.h"

namespace ronbench {

using ron::ChurnOpKind;
using ron::Dist;
using ron::LocateQuery;
using ron::NodeId;
using ron::ObjectId;
using ron::QueryPair;

namespace {

/// The scenario metric rebuilt client-side, so answers are checked
/// against exact distances rather than against the server's own claims.
std::unique_ptr<ron::MetricSpace> make_metric(const std::string& spec) {
  return ron::MetricRegistry::global().make(ron::ScenarioSpec::parse(spec));
}

/// Exact distance from `querier` to the nearest copy of `obj` in `dir`.
Dist nearest_copy(const ron::MetricSpace& metric,
                  const ron::ObjectDirectory& dir, NodeId querier,
                  ObjectId obj) {
  Dist best = ron::kInfDist;
  for (const NodeId h : dir.holders(obj)) {
    best = std::min(best, metric.distance(querier, h));
  }
  return best;
}

}  // namespace

void check_locate(const ron::MetricSpace& metric,
                  const ron::ObjectDirectory* dir, const LocateQuery& q,
                  const ron::ServedLocate& a, Failures& failures) {
  const auto& r = a.result;
  auto where = [&] {
    std::ostringstream os;
    os << "querier " << q.first << " object " << q.second << " holder "
       << r.holder << " hops " << r.hops << " stretch " << r.route_stretch;
    return os.str();
  };
  if (a.status != ron::LocateStatus::kOk) {
    failures.add("zero_holders", where());
    return;
  }
  if (!r.found) {
    failures.add("not_found", where());
    return;
  }
  const std::size_t n = metric.n();
  if (r.hops > ron::location_hop_bound(n)) {
    failures.add("hop_bound", where());
  }
  if (r.hops > 0 && r.route_stretch >= ron::location_stretch_bound(r.hops)) {
    failures.add("stretch_bound", where());
  }
  if (dir == nullptr) return;
  if (r.holder >= n || !dir->is_holder(q.second, r.holder)) {
    failures.add("not_a_holder", where());
    return;
  }
  const Dist best = nearest_copy(metric, *dir, q.first, q.second);
  if (metric.distance(q.first, r.holder) > best) {
    failures.add("not_nearest_copy", where());
  }
}

void check_estimate(const ron::MetricSpace& metric, double delta,
                    const QueryPair& q, Dist upper, Failures& failures) {
  const Dist d = metric.distance(q.first, q.second);
  if (!(upper >= d && upper <= (1.0 + 3.0 * delta) * d)) {
    std::ostringstream os;
    os << "pair (" << q.first << "," << q.second << ") d=" << d
       << " estimate=" << upper << " delta=" << delta;
    failures.add("estimate_bound", os.str());
  }
}

void LoadStats::merge(LoadStats&& o) {
  lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
  late_ms.insert(late_ms.end(), o.late_ms.begin(), o.late_ms.end());
  done.insert(done.end(), o.done.begin(), o.done.end());
  queries += o.queries;
  frames += o.frames;
  wire_bytes += o.wire_bytes;
  attempted += o.attempted;
  churn_ops += o.churn_ops;
  admin_rtt_ms.insert(admin_rtt_ms.end(), o.admin_rtt_ms.begin(),
                      o.admin_rtt_ms.end());
  failures.merge(o.failures);
  const int offset = static_cast<int>(spans.size());
  for (Span& s : o.spans) {
    if (s.parent >= 0) s.parent += offset;
    spans.push_back(std::move(s));
  }
}

double LoadStats::median_qps() const {
  const auto seconds = static_cast<std::size_t>(window_s);
  RON_CHECK(seconds >= 1, "median_qps needs a window of at least 1 s");
  std::vector<double> per_second(seconds, 0.0);
  for (const auto& [at_ns, count] : done) {
    const std::size_t s = at_ns / 1'000'000'000;
    if (s < seconds) per_second[s] += static_cast<double>(count);
  }
  return median(per_second);
}

namespace {

constexpr std::size_t kPoolFrames = 128;

// Settings every run of a workload shares; the sizes that differ between
// workloads (frame, warm-up, objects) come from run.py's workload table.
/// Reader connections (churn-dense adds one admin connection).
constexpr std::size_t kConns = 2;
/// churn-dense: frames per second on each open-loop reader connection,
/// and one admin chunk of kChurnOps ops every kChurnIntervalS. Chosen from
/// the measured share of frames in the Nagle plus delayed-ACK slow mode
/// (perfbench/NOTES.md): it must stay well below half, or p50 jumps
/// between runs.
constexpr double kOpenRate = 4000.0;
constexpr std::size_t kChurnOps = 16;
constexpr double kChurnIntervalS = 0.5;
/// churn-dense's churn plan. The plan is part of the workload, not of the
/// run: a chunk's cost hangs on its join/leave count, and per-seed op
/// mixes spread the admin throughput wider than any bound. The run's seed
/// still moves the overlay, the directory and the read streams.
constexpr std::uint64_t kChurnPlanSeed = 0xc4u;

std::uint64_t to_ns(double seconds) {
  return static_cast<std::uint64_t>(seconds * 1e9);
}

/// Parses a response payload, counting an error frame or a frame of the
/// wrong type or request id as a failure of every query in it. Returns
/// nothing when the frame carries no usable answers.
std::optional<ron::FrameView> open_response(
    const std::vector<std::uint8_t>& payload, std::uint64_t want_id,
    ron::MsgType want_type, std::size_t queries, Failures& failures) {
  ron::FrameView view = ron::parse_frame(payload);
  if (view.type == ron::MsgType::kError) {
    const auto [code, message] = ron::decode_error(view.body);
    for (std::size_t i = 0; i < queries; ++i) {
      failures.add("error_frame", std::string(ron::to_string(code)) + ": " +
                                      message);
    }
    return std::nullopt;
  }
  if (view.type != want_type || view.request_id != want_id) {
    for (std::size_t i = 0; i < queries; ++i) {
      failures.add("wrong_frame", "request " + std::to_string(want_id));
    }
    return std::nullopt;
  }
  return view;
}

/// Runs `body` on `count` threads and rethrows the first exception.
template <typename Body>
void run_threads(std::size_t count, Body&& body) {
  std::vector<std::exception_ptr> errors(count);
  std::vector<std::thread> threads;
  threads.reserve(count);
  for (std::size_t t = 0; t < count; ++t) {
    threads.emplace_back([&, t] {
      try {
        body(t);
      } catch (...) {
        errors[t] = std::current_exception();
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

/// Shared read-only context of the closed-loop threads.
struct ClosedCtx {
  const Common& c;
  const std::string& kind;
  double delta;
  bool traced;
  const ron::MetricSpace& metric;
  const ron::ObjectDirectory* dir;  // locate only
  std::uint64_t measure_start;
  std::uint64_t end;
};

void closed_thread(const ClosedCtx& x, std::size_t t, LoadStats& out) {
  const Common& c = x.c;
  const bool locate = x.kind == "locate";
  const std::size_t n = x.metric.n();
  ron::Rng rng = ron::Rng(c.seed).fork(0xc105ed00 + t);
  std::vector<std::vector<LocateQuery>> lq(kPoolFrames);
  std::vector<std::vector<QueryPair>> eq(kPoolFrames);
  for (std::size_t f = 0; f < kPoolFrames; ++f) {
    for (std::size_t i = 0; i < c.frame; ++i) {
      const auto u = static_cast<NodeId>(rng.index(n));
      if (locate) {
        lq[f].emplace_back(
            u, static_cast<ObjectId>(rng.index(x.dir->num_objects())));
      } else {
        auto v = static_cast<NodeId>(rng.index(n - 1));
        if (v >= u) ++v;  // distinct endpoints: the bound is relative to d
        eq[f].emplace_back(u, v);
      }
    }
  }
  ron::Client client;
  client.connect("127.0.0.1", c.port);
  Tracer tracer(x.traced);
  std::uint64_t injected = 0;
  for (std::uint64_t k = 0;; ++k) {
    if (now_ns() >= x.end) break;
    const std::size_t f = k % kPoolFrames;
    const std::uint64_t id = k + 1;
    const std::vector<std::uint8_t> request =
        locate ? ron::encode_locate_request(id, lq[f])
               : ron::encode_estimate_request(id, eq[f]);
    const int frame_span = tracer.begin("client.frame", -1, id);
    const std::uint64_t t0 = now_ns();
    const int send_span = tracer.begin("client.send", frame_span, id);
    client.send_frame(request);
    tracer.end(send_span);
    const int recv_span = tracer.begin("client.recv", frame_span, id);
    const std::vector<std::uint8_t> response = client.recv_frame();
    tracer.end(recv_span);
    const std::uint64_t t1 = now_ns();
    const int check_span = tracer.begin("client.check", frame_span, id);
    const bool measured = t0 >= x.measure_start;
    // The self-test's fault: one answer of one measured frame is replaced
    // by a wrong one before the checks see it.
    const bool inject = measured && t == 0 && injected == 0 && k > 2 &&
                        c.inject != "none";
    auto view = open_response(response, id,
                              locate ? ron::MsgType::kLocateResult
                                     : ron::MsgType::kEstimateResult,
                              c.frame, out.failures);
    if (view) {
      if (locate) {
        std::vector<ron::ServedLocate> answers =
            ron::decode_locate_result(view->body);
        RON_CHECK(answers.size() == c.frame,
                  "locate frame answered " << answers.size() << " of "
                                           << c.frame << " queries");
        if (inject && c.inject == "holder") {
          answers[0].result.holder =
              static_cast<NodeId>((answers[0].result.holder + 1) % n);
          ++injected;
        }
        for (std::size_t i = 0; i < c.frame; ++i) {
          check_locate(x.metric, x.dir, lq[f][i], answers[i], out.failures);
        }
      } else {
        std::vector<Dist> answers = ron::decode_estimate_result(view->body);
        RON_CHECK(answers.size() == c.frame,
                  "estimate frame answered " << answers.size() << " of "
                                             << c.frame << " queries");
        if (inject && c.inject == "estimate") {
          answers[0] *= 0.5;
          ++injected;
        }
        for (std::size_t i = 0; i < c.frame; ++i) {
          check_estimate(x.metric, x.delta, eq[f][i], answers[i],
                         out.failures);
        }
      }
    }
    tracer.end(check_span);
    tracer.end(frame_span);
    out.attempted += c.frame;
    if (measured) {
      out.lat_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      out.done.emplace_back(t1 - x.measure_start, c.frame);
      out.queries += c.frame;
      ++out.frames;
      out.wire_bytes += request.size() + response.size() +
                        2 * ron::kFrameHeaderBytes;
    }
  }
  out.spans = tracer.spans();
}

}  // namespace

LoadStats run_closed(const Common& c, const std::string& kind,
                     bool traced) {
  const auto metric = make_metric(c.spec);
  // The labeling's quality parameter, which the estimate bound is about.
  const double delta = ron::ScenarioSpec::parse(c.spec).delta;
  std::unique_ptr<ron::ObjectDirectory> dir;
  if (kind == "locate") {
    dir = std::make_unique<ron::ObjectDirectory>(
        ron::load_directory(c.snapshot).directory);
  }
  const std::uint64_t start = now_ns();
  const ClosedCtx ctx{c,
                      kind,
                      delta,
                      traced,
                      *metric,
                      dir.get(),
                      start + to_ns(c.warmup),
                      start + to_ns(c.warmup + c.seconds)};
  std::vector<LoadStats> per(kConns);
  run_threads(kConns, [&](std::size_t t) { closed_thread(ctx, t, per[t]); });
  LoadStats all;
  for (LoadStats& s : per) all.merge(std::move(s));
  all.window_s = c.seconds;
  return all;
}

namespace {

/// Applies one chunk to a tracked state the way OverlayMutator does.
void track_chunk(const ron::ChurnTrace& chunk, std::vector<char>& active,
                 ron::ObjectDirectory& dir) {
  for (const ron::ChurnOp& op : chunk.ops) {
    switch (op.kind) {
      case ChurnOpKind::kJoin:
        active[op.node] = 1;
        break;
      case ChurnOpKind::kLeave:
        active[op.node] = 0;
        dir.unpublish_holder(op.node);
        break;
      case ChurnOpKind::kPublish:
        dir.publish(chunk.objects[op.object], op.node);
        break;
      case ChurnOpKind::kUnpublish:
        dir.unpublish(chunk.objects[op.object], op.node);
        break;
    }
  }
}

}  // namespace

ChurnPlan plan_churn(const ron::ObjectDirectory& initial,
                     std::size_t num_chunks, std::size_t ops_per_chunk,
                     std::uint64_t seed) {
  const std::size_t n = initial.n();
  ChurnPlan plan;
  std::vector<char> active(n, 1);
  std::vector<char> ever_left(n, 0);
  ron::ObjectDirectory dir = initial;
  const std::size_t objects = initial.num_objects();
  std::vector<char> ever_empty(objects, 0);
  ron::ChurnTraceParams params;
  params.ops = ops_per_chunk;
  for (std::size_t k = 0; k < num_chunks; ++k) {
    ron::ChurnTrace chunk = ron::generate_churn_trace(
        n, active, dir, params, ron::Rng(seed).fork(k).uniform_u64(0, ~0ull));
    track_chunk(chunk, active, dir);
    for (const ron::ChurnOp& op : chunk.ops) {
      if (op.kind == ChurnOpKind::kLeave) ever_left[op.node] = 1;
    }
    // Checked after every op of the chunk would be stricter, but readers
    // only ever see chunk boundaries: each admin frame is one epoch.
    for (ObjectId o = 0; o < objects; ++o) {
      if (dir.holders(o).empty()) ever_empty[o] = 1;
    }
    plan.active_after.push_back(
        static_cast<std::uint64_t>(std::count(active.begin(), active.end(), 1)));
    plan.chunks.push_back(std::move(chunk));
  }
  for (NodeId u = 0; u < n; ++u) {
    if (ever_left[u] == 0) plan.safe_nodes.push_back(u);
  }
  for (ObjectId o = 0; o < objects; ++o) {
    if (ever_empty[o] == 0) plan.safe_objects.push_back(o);
  }
  RON_CHECK(!plan.safe_nodes.empty() && !plan.safe_objects.empty(),
            "churn plan leaves no always-active querier ("
                << plan.safe_nodes.size() << ") or always-held object ("
                << plan.safe_objects.size() << ")");
  return plan;
}

namespace {

/// One open-loop reader connection: frame k is due at start + k / rate.
void open_reader(const Common& c, const ron::MetricSpace& metric,
                 const ChurnPlan& plan, std::size_t t,
                 std::uint64_t start, std::uint64_t measure_start,
                 std::uint64_t end, bool traced, LoadStats& out) {
  ron::Rng rng = ron::Rng(c.seed).fork(0x0be17000 + t);
  std::vector<std::vector<LocateQuery>> pool(kPoolFrames);
  for (auto& frame : pool) {
    for (std::size_t i = 0; i < c.frame; ++i) {
      frame.emplace_back(rng.pick(plan.safe_nodes),
                         rng.pick(plan.safe_objects));
    }
  }
  const double period_ns = 1e9 / kOpenRate;
  const auto frames_total = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(end - start) / period_ns));
  auto due = [&](std::uint64_t k) {
    return start + static_cast<std::uint64_t>(static_cast<double>(k) *
                                              period_ns);
  };
  ron::Client client;
  client.connect("127.0.0.1", c.port);
  Tracer tracer(traced);
  std::vector<int> frame_spans(traced ? frames_total : 0, -1);
  std::vector<char> answered(frames_total, 0);
  std::uint64_t next = 0;
  std::uint64_t received = 0;
  std::vector<std::uint8_t> payload;
  const std::uint64_t drain_deadline = end + to_ns(10.0);
  while (received < frames_total) {
    const std::uint64_t now = now_ns();
    if (next < frames_total && now >= due(next)) {
      const std::uint64_t id = next + 1;
      if (traced) frame_spans[next] = tracer.begin("client.frame", -1, id);
      const std::vector<std::uint8_t> request =
          ron::encode_locate_request(id, pool[next % kPoolFrames]);
      client.send_frame(request);
      if (due(next) >= measure_start) {
        out.late_ms.push_back(static_cast<double>(now - due(next)) * 1e-6);
        out.wire_bytes += request.size() + ron::kFrameHeaderBytes;
      }
      out.attempted += c.frame;
      ++next;
      continue;  // catch up on overdue frames before reading
    }
    if (now >= drain_deadline) break;
    const std::uint64_t wake =
        next < frames_total ? due(next) : drain_deadline;
    const std::uint64_t wait_ns = wake > now ? wake - now : 0;
    pollfd pfd{client.fd(), POLLIN, 0};
    const timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                      static_cast<long>(wait_ns % 1'000'000'000)};
    ::ppoll(&pfd, 1, &ts, nullptr);
    while (client.poll_frame(payload)) {
      const std::uint64_t got = now_ns();
      const ron::FrameView head = ron::parse_frame(payload);
      const std::uint64_t k = head.request_id - 1;
      RON_CHECK(head.request_id >= 1 && k < next && answered[k] == 0,
                "open loop: unexpected response id " << head.request_id);
      answered[k] = 1;
      ++received;
      if (traced) tracer.end(frame_spans[k]);
      auto view = open_response(payload, head.request_id,
                                ron::MsgType::kLocateResult, c.frame,
                                out.failures);
      if (view) {
        const std::vector<ron::ServedLocate> answers =
            ron::decode_locate_result(view->body);
        RON_CHECK(answers.size() == c.frame,
                  "locate frame answered " << answers.size() << " of "
                                           << c.frame << " queries");
        const auto& queries = pool[k % kPoolFrames];
        for (std::size_t i = 0; i < c.frame; ++i) {
          // Which epoch answered is unknown while churn races the reads,
          // so only the per-answer guarantees apply here; the exact
          // nearest copy is checked after the churn settles.
          check_locate(metric, nullptr, queries[i], answers[i],
                       out.failures);
        }
      }
      if (due(k) >= measure_start) {
        out.lat_ms.push_back(static_cast<double>(got - due(k)) * 1e-6);
        out.queries += c.frame;
        ++out.frames;
        out.wire_bytes += payload.size() + ron::kFrameHeaderBytes;
      }
    }
  }
  for (std::uint64_t k = 0; k < frames_total; ++k) {
    if (answered[k] == 0) {
      for (std::size_t i = 0; i < c.frame; ++i) {
        out.failures.add("no_answer", "frame " + std::to_string(k + 1));
      }
    }
  }
  out.spans = tracer.spans();
}

}  // namespace

LoadStats run_open_churn(const Common& c, bool traced) {
  const auto metric = make_metric(c.spec);
  const ron::ObjectDirectory initial =
      ron::load_directory(c.snapshot).directory;
  const double total_s = c.warmup + c.seconds;
  const auto num_chunks =
      static_cast<std::size_t>(std::ceil(total_s / kChurnIntervalS));
  const ChurnPlan plan =
      plan_churn(initial, num_chunks, kChurnOps, kChurnPlanSeed);

  const std::uint64_t start = now_ns() + to_ns(0.05);
  const std::uint64_t measure_start = start + to_ns(c.warmup);
  const std::uint64_t end = start + to_ns(total_s);
  std::vector<LoadStats> per(kConns + 1);
  std::size_t acked_chunks = 0;
  run_threads(kConns + 1, [&](std::size_t t) {
    if (t < kConns) {
      open_reader(c, *metric, plan, t, start, measure_start, end, traced,
                  per[t]);
      return;
    }
    // The admin connection: chunk k is due at start + k * interval and
    // waits for its acknowledgement (one epoch per chunk).
    LoadStats& out = per[t];
    Tracer tracer(traced);
    ron::Client admin;
    admin.connect("127.0.0.1", c.port);
    std::uint64_t last_epoch = 0;
    for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
      const std::uint64_t due =
          start + to_ns(kChurnIntervalS * static_cast<double>(k));
      if (due >= end) break;
      while (now_ns() < due) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      const int span = tracer.begin("client.churn", -1, k + 1);
      const std::uint64_t t0 = now_ns();
      const ron::ChurnResult res = admin.churn(plan.chunks[k]);
      const std::uint64_t t1 = now_ns();
      tracer.end(span);
      ++acked_chunks;
      const std::size_t ops = plan.chunks[k].ops.size();
      if (res.ops_applied != ops || res.epoch_id <= last_epoch ||
          res.active_count != plan.active_after[k]) {
        std::ostringstream os;
        os << "chunk " << k << ": applied " << res.ops_applied << "/" << ops
           << ", epoch " << res.epoch_id << " after " << last_epoch
           << ", active " << res.active_count << " want "
           << plan.active_after[k];
        out.failures.add("churn_ack", os.str());
      }
      last_epoch = res.epoch_id;
      out.attempted += ops;
      if (due >= measure_start) {
        out.churn_ops += ops;
        out.admin_rtt_ms.push_back(static_cast<double>(t1 - t0) * 1e-6);
      }
    }
    out.spans = tracer.spans();
  });
  LoadStats all;
  for (LoadStats& s : per) all.merge(std::move(s));
  all.window_s = c.seconds;
  all.churn_chunk_ops = kChurnOps;
  all.slow_after_ms = 1e3 / kOpenRate;

  // Quiescent check: with every chunk acknowledged the server serves the
  // tracked state, so each sampled holder must be the exact nearest copy.
  std::vector<char> active(initial.n(), 1);
  ron::ObjectDirectory dir = initial;
  for (std::size_t k = 0; k < acked_chunks; ++k) {
    track_chunk(plan.chunks[k], active, dir);
  }
  ron::Rng rng = ron::Rng(c.seed).fork(0x9e1f);
  ron::Client client;
  client.connect("127.0.0.1", c.port);
  for (int f = 0; f < 64; ++f) {
    std::vector<LocateQuery> queries;
    for (std::size_t i = 0; i < c.frame; ++i) {
      queries.emplace_back(rng.pick(plan.safe_nodes),
                           rng.pick(plan.safe_objects));
    }
    const std::vector<ron::ServedLocate> answers = client.locate(queries);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      check_locate(*metric, &dir, queries[i], answers[i], all.failures);
    }
    all.attempted += queries.size();
  }
  return all;
}

LoadStats run_load(const Common& c, const std::string& workload,
                   bool traced) {
  if (workload == "locate-sparse") {
    return run_closed(c, "locate", traced);
  }
  if (workload == "estimate-labels") {
    return run_closed(c, "estimate", traced);
  }
  if (workload == "churn-dense") {
    return run_open_churn(c, traced);
  }
  throw ron::cli::UsageError("unknown --workload '" + workload + "'");
}

int cmd_load(const Args& args) {
  args.expect_known({"workload", "spec", "snapshot", "port", "seed",
                     "seconds", "warmup", "frame", "inject", "out-dir"});
  const Common c(args);
  const LoadStats s = run_load(c, args.get("workload", ""), false);
  RON_CHECK(!s.lat_ms.empty(), "load: no frame completed in the window");
  Report r;
  r.add_failures(s.failures, s.attempted);
  r.set("frames", static_cast<double>(s.frames));
  r.set("qps", s.median_qps());
  r.set("qps_mean", static_cast<double>(s.queries) / s.window_s);
  r.set("p50_ms", median(s.lat_ms));
  r.set("p99_ms", quantile(s.lat_ms, 0.99));
  r.set("wire_bytes_per_op",
        static_cast<double>(s.wire_bytes) / static_cast<double>(s.queries));
  if (!s.late_ms.empty()) r.set("late_p99_ms", quantile(s.late_ms, 0.99));
  if (s.slow_after_ms > 0.0) {
    // Share of frames later than one schedule period: the Nagle plus
    // delayed-ACK mode. p50 stays put only while this is well below 0.5.
    const auto slow = std::count_if(
        s.lat_ms.begin(), s.lat_ms.end(),
        [&](double ms) { return ms > s.slow_after_ms; });
    r.set("slow_frac", static_cast<double>(slow) /
                           static_cast<double>(s.lat_ms.size()));
  }
  if (s.admin_rtt_ms.empty()) {
    r.set("ops_per_s", s.median_qps());
  } else {
    // Ops per second of admin-channel time, as the median over chunks: a
    // chunk's cost hangs on its join/leave count, and the median keeps
    // one slow chunk from moving the figure.
    std::vector<double> rate;
    for (const double ms : s.admin_rtt_ms) {
      rate.push_back(static_cast<double>(s.churn_chunk_ops) / (ms * 1e-3));
    }
    r.set("ops_per_s", median(rate));
    r.set("churn_ops", static_cast<double>(s.churn_ops));
    r.set("admin_rtt_p50_ms", median(s.admin_rtt_ms));
  }
  r.print();
  return 0;
}

}  // namespace ronbench
