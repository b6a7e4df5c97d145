// The two ronbench subcommands, the answer checks they share, the load
// drivers the traced run reuses and the traced run's layer helpers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "churn/churn_trace.h"
#include "common.h"
#include "location/object_directory.h"
#include "metric/metric_space.h"
#include "metric/sparse_proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "oracle/engine.h"
#include "scenario/scenario_spec.h"
#include "served/protocol.h"
#include "smallworld/rings_model.h"

namespace ronbench {

int cmd_load(const Args& args);
int cmd_layers(const Args& args);

/// Theorem 5.2 checks on one served locate: found, hops within
/// location_hop_bound(n), route stretch below location_stretch_bound(hops);
/// with `dir` non-null also that the holder is the exact nearest copy.
void check_locate(const ron::MetricSpace& metric,
                  const ron::ObjectDirectory* dir, const ron::LocateQuery& q,
                  const ron::ServedLocate& a, Failures& failures);

/// Theorem 3.2 check on one estimate: d <= upper <= (1 + 3 delta) d.
void check_estimate(const ron::MetricSpace& metric, double delta,
                    const ron::QueryPair& q, ron::Dist upper,
                    Failures& failures);

/// What one load phase measured (one connection or all of them merged).
struct LoadStats {
  std::vector<double> lat_ms;   // per frame: RTT, or latency from due time
  std::vector<double> late_ms;  // open loop: how late each send ran
  // Completion time (ns since the measured window opened) and size of
  // every measured frame, for the per-second throughput windows.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> done;
  std::uint64_t queries = 0;    // answered inside the measured window
  std::uint64_t frames = 0;
  std::uint64_t wire_bytes = 0;  // framed request + response bytes
  std::uint64_t attempted = 0;   // every query sent, warm-up included
  double window_s = 0.0;
  std::uint64_t churn_ops = 0;  // acknowledged inside the window
  std::size_t churn_chunk_ops = 0;
  double slow_after_ms = 0.0;  // open loop: one schedule period
  std::vector<double> admin_rtt_ms;
  Failures failures;
  std::vector<Span> spans;  // per-frame spans when traced

  void merge(LoadStats&& other);
  /// Median over the whole seconds of the window of the queries answered
  /// in each — a rate that one stalled second cannot drag.
  double median_qps() const;
};

/// Closed loop: 2 connections, one frame of `c.frame` queries in
/// flight on each, for warm-up then `c.seconds`. `kind` is "locate" or
/// "estimate"; `traced` records client.frame spans per frame. Estimates
/// are checked against the spec's delta.
LoadStats run_closed(const Common& c, const std::string& kind, bool traced);

/// churn-dense: open-loop locate frames on 2 connections at a fixed rate,
/// timed from each frame's scheduled send, while one admin connection
/// sends a churn chunk at a fixed interval; ends with an exact
/// nearest-copy check against the tracked post-churn directory.
LoadStats run_open_churn(const Common& c, bool traced);

/// The load of `workload`.
LoadStats run_load(const Common& c, const std::string& workload,
                   bool traced);

/// The churn the benchmark sends and the overlay state it implies: chunks
/// generated from the tracked (active, directory) state, and the nodes and
/// objects that stay active / hold a copy through every chunk.
struct ChurnPlan {
  std::vector<ron::ChurnTrace> chunks;
  std::vector<std::uint64_t> active_after;  // active count after chunk k
  std::vector<ron::NodeId> safe_nodes;
  std::vector<ron::ObjectId> safe_objects;
};
ChurnPlan plan_churn(const ron::ObjectDirectory& initial,
                     std::size_t num_chunks, std::size_t ops_per_chunk,
                     std::uint64_t seed);

/// The overlay built stage by stage through the public constructors —
/// metric, prox, nets, measure, rings, and seal on the sparse backend —
/// each stage timed in a build.<stage> span under `parent` and recorded in
/// `r` (build.<stage>_s, build.structure_s).
struct StagedOverlay {
  std::unique_ptr<ron::MetricSpace> metric;
  std::unique_ptr<ron::ProximityIndex> prox;
  std::unique_ptr<ron::NetHierarchy> nets;
  std::unique_ptr<ron::MeasureView> mu;
  std::unique_ptr<ron::RingsSmallWorld> model;
};
StagedOverlay build_staged_overlay(const ron::ScenarioSpec& spec,
                                   ron::ProxBackend backend, Tracer& tr,
                                   int parent, Report& r);

/// The sim layer over an overlay the traced run built: carves it, runs the
/// simulator for about `seconds` (5000 locates racing 200 churn ops per
/// run) and records sim.* metrics; lost messages and hop or stretch
/// violations are failures.
void measure_sim(const ron::ProximityIndex& prox,
                 const ron::RingsOfNeighbors& rings,
                 const ron::ObjectDirectory& dir, std::uint64_t seed,
                 double seconds, Tracer& tr, Report& r, Failures& fails,
                 std::uint64_t& attempted);

/// Counts a not_identical failure unless files `a` and `b` hold the same
/// bytes.
void compare_files(const std::string& a, const std::string& b,
                   const std::string& what, Failures& fails);

}  // namespace ronbench
