// The sim layer, measured inside churn-dense's traced run over the same
// n=512 geoline overlay: the overlay is carved into per-node state and the
// message-passing simulator runs 5000 locates racing a 200-op churn trace,
// repeatedly, cycling through a few simulator seeds drawn from the run's
// seed. Every run is checked: zero lost messages, zero hop-bound and
// stretch violations. One run writes the event log the per-type message
// counts come from.
#include <algorithm>
#include <map>
#include <sstream>

#include "churn/trace_generator.h"
#include "common/check.h"
#include "common/rng.h"
#include "location/location_service.h"
#include "sim/partition.h"
#include "sim/simulator.h"
#include "subcommands.h"

namespace ronbench {

namespace {

constexpr std::size_t kSimLocates = 5000;
constexpr std::size_t kSimChurnOps = 200;
constexpr std::uint64_t kSimSpacingNs = 10000;
constexpr std::size_t kSimSchedules = 4;

struct RunOutcome {
  double wall_s = 0.0;
  std::uint64_t locates = 0;
  std::uint64_t churn_ops = 0;
  std::uint64_t found = 0;
  double messages = 0.0;  // summed over found locates
  double bytes = 0.0;
};

/// One simulator run over a copy of the carved network, with the schedule
/// ron_sim uses: locates at a fixed spacing, churn ops spread over the
/// same horizon.
RunOutcome run_once(const ron::sim::SimNetwork& net,
                    const ron::ObjectDirectory& dir, std::uint64_t sim_seed,
                    std::ostream* event_log, Failures& fails) {
  ron::sim::SimOptions opts;
  opts.seed = sim_seed;
  ron::sim::Simulator sim(net, opts);
  if (event_log != nullptr) sim.set_event_log(event_log);
  const std::size_t n = sim.n();
  ron::Rng sched = ron::Rng(sim_seed).fork(0x5c4ed01e);
  const std::uint64_t horizon =
      kSimSpacingNs * std::max(kSimLocates, kSimChurnOps);
  for (std::size_t i = 0; i < kSimLocates; ++i) {
    const auto origin = static_cast<ron::NodeId>(sched.index(n));
    const auto obj =
        static_cast<ron::ObjectId>(sched.index(dir.num_objects()));
    sim.schedule_locate((i + 1) * kSimSpacingNs, origin, obj);
  }
  ron::ChurnTraceParams cp;
  cp.ops = kSimChurnOps;
  const std::vector<char> all_active(n, 1);
  const ron::ChurnTrace trace =
      ron::generate_churn_trace(n, all_active, dir, cp, sim_seed ^ 0xc4);
  std::vector<ron::ObjectId> objmap;
  for (const std::string& name : trace.objects) {
    objmap.push_back(sim.register_object(name));
  }
  for (std::size_t j = 0; j < trace.ops.size(); ++j) {
    ron::ChurnOp op = trace.ops[j];
    if (op.kind == ron::ChurnOpKind::kPublish ||
        op.kind == ron::ChurnOpKind::kUnpublish) {
      op.object = objmap[op.object];
    }
    sim.schedule_churn(
        (j + 1) * horizon / (trace.ops.size() + 1) + kSimSpacingNs / 2, op);
  }
  RunOutcome out;
  const std::uint64_t t0 = now_ns();
  sim.run();
  out.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;

  const ron::sim::SimTotals& t = sim.totals();
  out.locates = t.locates_issued;
  out.churn_ops = t.joins + t.leaves + t.publishes + t.unpublishes;
  const std::uint64_t lost = t.sent - t.delivered - t.bounced;
  if (lost != 0) {
    fails.add("lost_messages", std::to_string(lost) + " message(s) lost");
  }
  for (const ron::sim::SimLocateResult& r : sim.results()) {
    if (!r.found) continue;
    ++out.found;
    out.messages += static_cast<double>(r.messages);
    out.bytes += static_cast<double>(r.bytes);
    if (r.hops > sim.hop_bound()) {
      fails.add("hop_bound", "sim locate " + std::to_string(r.locate_id));
    }
    if (r.hops > 0 &&
        r.route_stretch >= ron::location_stretch_bound(r.hops)) {
      fails.add("stretch_bound",
                "sim locate " + std::to_string(r.locate_id));
    }
  }
  return out;
}

/// Per-type message counts from the event log: one line per delivery
/// ("deliver TYPE") or bounce ("bounce TYPE!").
std::map<std::string, double> count_types(const std::string& log) {
  std::map<std::string, double> counts;
  std::istringstream is(log);
  std::string stamp;
  std::string verb;
  std::string type;
  std::string rest;
  while (is >> stamp >> verb >> type) {
    std::getline(is, rest);
    if (verb != "deliver" && verb != "bounce") continue;
    if (!type.empty() && type.back() == '!') type.pop_back();
    counts[type] += 1.0;
  }
  return counts;
}

}  // namespace

void measure_sim(const ron::ProximityIndex& prox,
                 const ron::RingsOfNeighbors& rings,
                 const ron::ObjectDirectory& dir, std::uint64_t seed,
                 double seconds, Tracer& tr, Report& r, Failures& fails,
                 std::uint64_t& attempted) {
  const int span = tr.begin("sim");
  ron::sim::SimNetwork net;
  r.set("sim.partition_s", timed(tr, "sim.partition", span, [&] {
          net = ron::sim::partition_overlay(prox, rings, dir);
        }));
  std::vector<std::uint64_t> sim_seeds;
  for (std::size_t k = 0; k < kSimSchedules; ++k) {
    sim_seeds.push_back(
        ron::Rng(seed).fork(0x51 + k).uniform_u64(0, ~std::uint64_t{0}));
  }
  {
    std::ostringstream log;
    const RunOutcome o = run_once(net, dir, sim_seeds[0], &log, fails);
    attempted += o.locates + o.churn_ops;
    for (const auto& [type, count] : count_types(log.str())) {
      r.set("sim.messages." + type, count);
    }
  }
  std::vector<double> run_s;
  std::vector<double> rate;  // locates per wall second, per run
  double found = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  const std::uint64_t end =
      now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  for (std::size_t i = 0; run_s.empty() || now_ns() < end; ++i) {
    const int run_span = tr.begin("sim.run", span, i + 1);
    const RunOutcome o =
        run_once(net, dir, sim_seeds[i % kSimSchedules], nullptr, fails);
    tr.end(run_span);
    attempted += o.locates + o.churn_ops;
    run_s.push_back(o.wall_s);
    rate.push_back(static_cast<double>(o.locates) / o.wall_s);
    found += static_cast<double>(o.found);
    messages += o.messages;
    bytes += o.bytes;
  }
  tr.end(span);
  r.set("sim.run_s", median(run_s));
  r.set("sim.locates_per_s", median(rate));
  r.set("sim.messages_per_locate", messages / found);
  r.set("sim.bytes_per_locate", bytes / found);
}

}  // namespace ronbench
