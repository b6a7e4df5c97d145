// `ronbench layers`: the traced run of a served workload. Every layer is
// called through its public functions from here, inside spans:
//
//   setup   metric -> prox -> {nets -> measure -> rings [-> seal]} or
//           {neighbor system -> labeling} -> snapshot save -> snapshot
//           load -> engine ready -> first engine batch
//
// then the layers the serving path crosses per frame (walk or label join,
// engine batch, frame codec, socket round trip; on churn-dense also the
// mutator's apply/commit, the engine's epoch swap and the message-passing
// simulator over the same overlay), then one traced pass of the
// workload's own load against the running ron_served.
//
// Checks: the stage-by-stage build must equal ScenarioBuilder's (rings
// snapshot bytes) and the served snapshot must equal the one rebuilt here
// (file bytes). The sum of the setup's stage spans is reported for run.py
// to hold against the served set-up of the same run.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "churn/overlay_mutator.h"
#include "common/check.h"
#include "common/rng.h"
#include "labeling/distance_labels.h"
#include "labeling/neighbor_system.h"
#include "location/location_service.h"
#include "metric/sparse_proximity.h"
#include "net/doubling_measure.h"
#include "net/nets.h"
#include "oracle/snapshot.h"
#include "oracle/wire.h"
#include "scenario/metric_registry.h"
#include "scenario/scenario_builder.h"
#include "served/client.h"
#include "smallworld/rings_model.h"
#include "subcommands.h"

namespace ronbench {

using ron::LocateQuery;
using ron::NodeId;
using ron::ObjectId;
using ron::QueryPair;

namespace {

/// Samples per in-process layer measurement.
constexpr int kLayerFrames = 200;
constexpr int kRttFrames = 2000;
/// Simulator time of churn-dense's traced run.
constexpr double kSimSeconds = 3.0;

std::uint64_t file_digest(const std::string& path, std::uint64_t* bytes) {
  std::ifstream is(path, std::ios::binary);
  RON_CHECK(is.is_open(), "cannot open '" << path << "' to hash it");
  std::vector<std::uint8_t> buf(1 << 20);
  std::uint64_t h = ron::fnv1a64({});
  std::uint64_t total = 0;
  while (is) {
    is.read(reinterpret_cast<char*>(buf.data()),
            static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(is.gcount());
    h = ron::fnv1a64_continue(h, {buf.data(), got});
    total += got;
  }
  if (bytes != nullptr) *bytes = total;
  return h;
}

/// Median per-call wall time, in microseconds, of `fn(i)` over `count`
/// calls.
template <typename Fn>
double median_us(int count, Fn&& fn) {
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const std::uint64_t t0 = now_ns();
    fn(i);
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  return median(us);
}

/// Mean per-call microseconds of `fn(i)`, called until at least `seconds`
/// have passed (and at least 1000 times).
template <typename Fn>
double mean_us(double seconds, Fn&& fn) {
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  std::uint64_t calls = 0;
  while (calls < 1000 || now_ns() - t0 < budget) {
    for (int i = 0; i < 100; ++i) fn(calls++);
  }
  return static_cast<double>(now_ns() - t0) * 1e-3 /
         static_cast<double>(calls);
}

/// Median socket round trip, in ms, of `count` frames cycling through
/// `requests`, one in flight.
double socket_rtt_ms(const Common& c,
                     const std::vector<std::vector<std::uint8_t>>& requests,
                     std::size_t count) {
  ron::Client client;
  client.connect("127.0.0.1", c.port);
  std::vector<double> ms;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t t0 = now_ns();
    client.send_frame(requests[i % requests.size()]);
    (void)client.recv_frame();
    ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  }
  return median(ms);
}

/// The layers a served frame crosses, on the traced run's frames: the
/// engine's batch path, the frame codec (request and response, encode and
/// decode) and the socket round trip. The frames hold LocateQuery or
/// QueryPair — one pair type when NodeId and ObjectId coincide, hence the
/// explicit kLocate.
template <bool kLocate, typename Q>
void measure_frame_path(const Common& c, ron::OracleEngine& engine,
                        const std::vector<std::vector<Q>>& frames,
                        Tracer& tr, Report& r) {
  auto batch = [&](const std::vector<Q>& f) {
    if constexpr (kLocate) {
      return engine.locate_batch(f);
    } else {
      return engine.estimate_batch(f);
    }
  };
  auto encode_request = [](std::uint64_t id, const std::vector<Q>& f) {
    if constexpr (kLocate) {
      return ron::encode_locate_request(id, f);
    } else {
      return ron::encode_estimate_request(id, f);
    }
  };

  const std::string batch_name =
      kLocate ? "engine.locate_batch" : "engine.estimate_batch";
  std::vector<double> batch_ms;
  {
    const int span = tr.begin(batch_name);
    for (const auto& f : frames) {
      const std::uint64_t t0 = now_ns();
      (void)batch(f);
      batch_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
    }
    tr.end(span);
    r.set(batch_name + "_ms", median(batch_ms));
  }

  std::vector<std::vector<std::uint8_t>> requests;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    requests.push_back(encode_request(i + 1, frames[i]));
  }
  const auto results = batch(frames[0]);
  std::vector<ron::ServedLocate> served;  // locate results as served
  if constexpr (kLocate) {
    for (const auto& res : results) {
      served.push_back({ron::LocateStatus::kOk, res});
    }
  }
  auto encode_result = [&](std::uint64_t id) {
    if constexpr (kLocate) {
      return ron::encode_locate_result(id, served);
    } else {
      return ron::encode_estimate_result(id, results);
    }
  };
  const int codec_span = tr.begin("codec");
  r.set("codec.encode_us", median_us(kLayerFrames, [&](int i) {
          (void)encode_request(static_cast<std::uint64_t>(i), frames[0]);
          (void)encode_result(static_cast<std::uint64_t>(i));
        }));
  const std::vector<std::uint8_t> result_payload = encode_result(1);
  r.set("codec.decode_us", median_us(kLayerFrames, [&](int) {
          ron::FrameView req = ron::parse_frame(requests[0]);
          ron::FrameView res = ron::parse_frame(result_payload);
          if constexpr (kLocate) {
            (void)ron::decode_locate_request(req.body, c.frame);
            (void)ron::decode_locate_result(res.body);
          } else {
            (void)ron::decode_estimate_request(req.body, c.frame);
            (void)ron::decode_estimate_result(res.body);
          }
        }));
  tr.end(codec_span);

  const int socket_span = tr.begin("socket");
  r.set("frame.overhead_ms",
        socket_rtt_ms(c, requests, requests.size()) - median(batch_ms));
  const std::vector<Q> one{frames[0][0]};
  r.set("frame.rtt_us.b1",
        socket_rtt_ms(c, {encode_request(1, one)}, kRttFrames) * 1e3);
  tr.end(socket_span);
}

/// Closes the traced set-up span and records the sum of its direct child
/// spans (build, snapshot and engine stages), which run.py compares with
/// the served set-up of the same run.
void finish_setup(Tracer& tr, int setup, Report& r) {
  tr.end(setup);
  r.set("setup.spans_s", tr.child_seconds(setup));
}

/// Shared tail of the served workloads: the traced load pass. run.py
/// prices the spans against an untraced pass of the same load.
void traced_load(const Common& c, const std::string& workload, Tracer& tr,
                 Report& r, Failures& fails, std::uint64_t& attempted) {
  LoadStats s = run_load(c, workload, true);
  RON_CHECK(!s.lat_ms.empty(), "traced load: no frame completed");
  r.set("p99_ms", quantile(s.lat_ms, 0.99));
  r.set("p50_ms.traced", median(s.lat_ms));
  r.set("wire.bytes_per_op",
        static_cast<double>(s.wire_bytes) / static_cast<double>(s.queries));
  if (!s.late_ms.empty()) r.set("gen.late_p99_ms", quantile(s.late_ms, 0.99));
  if (!s.admin_rtt_ms.empty()) {
    r.set("churn.admin_rtt_ms", median(s.admin_rtt_ms));
  }
  fails.merge(s.failures);
  attempted += s.attempted;
  // Client spans join the trace; each frame is a root of its own request.
  for (Span& span : s.spans) span.name = "load." + span.name;
  tr.append(s.spans);
  r.set("trace.load_spans", static_cast<double>(s.spans.size()));
}

/// A flag run.py always passes (its workload table is the one source).
std::string required(const Args& args, const std::string& key) {
  if (!args.has(key)) throw ron::cli::UsageError("--" + key + " is required");
  return args.get(key, "");
}

void layers_overlay(const Common& c, const Args& args,
                    const std::string& workload, Tracer& tr, Report& r,
                    Failures& fails, std::uint64_t& attempted) {
  const ron::ProxBackend backend =
      ron::parse_prox_backend(required(args, "backend"));
  const std::size_t objects =
      ron::cli::parse_u64(required(args, "objects"), "--objects");
  const std::size_t replicas =
      ron::cli::parse_u64(required(args, "replicas"), "--replicas");
  const std::string ref_rings = c.out_dir + "/rings.builder.ron";
  const std::string staged_rings = c.out_dir + "/rings.staged.ron";
  const std::string staged_dir = c.out_dir + "/directory.staged.ron";

  // The reference: ScenarioBuilder's rings and directory, built untraced.
  ron::ScenarioSpec spec = ron::ScenarioSpec::parse(c.spec);
  ron::ObjectDirectory published(1);
  {
    ron::ScenarioBuilder ref(spec, 1, backend);
    spec = ref.spec();
    ron::save_rings(ref.rings(), ref_rings, spec);
    published = ref.make_directory(objects, replicas);
  }

  const int setup = tr.begin("setup");
  StagedOverlay staged = build_staged_overlay(spec, backend, tr, setup, r);
  const ron::ProximityIndex& prox = *staged.prox;
  r.set("snapshot.save_s", timed(tr, "snapshot.save", setup, [&] {
          ron::save_directory(spec, published, staged_dir);
        }));
  ron::ObjectDirectory dir(1);
  r.set("snapshot.load_s", timed(tr, "snapshot.load", setup, [&] {
          dir = ron::load_directory(staged_dir).directory;
        }));
  const ron::RingsOfNeighbors& rings = staged.model->rings();
  const ron::LocationService service(prox, rings, dir);
  ron::OracleOptions opts;
  opts.num_threads = 2;
  std::unique_ptr<ron::OracleEngine> engine;
  timed(tr, "engine.ready", setup, [&] {
    engine = std::make_unique<ron::OracleEngine>(service, opts);
  });
  const std::size_t n = prox.n();
  ron::Rng rng = ron::Rng(c.seed).fork(0x1a7e5);
  std::vector<std::vector<LocateQuery>> frames(kLayerFrames);
  for (auto& f : frames) {
    for (std::size_t i = 0; i < c.frame; ++i) {
      f.emplace_back(static_cast<NodeId>(rng.index(n)),
                     static_cast<ObjectId>(rng.index(objects)));
    }
  }
  timed(tr, "engine.first_batch", setup,
        [&] { (void)engine->locate_batch(frames[0]); });
  finish_setup(tr, setup, r);

  ron::save_rings(rings, staged_rings, spec);
  compare_files(ref_rings, staged_rings, "stage-by-stage rings", fails);
  compare_files(c.snapshot, staged_dir, "served directory snapshot", fails);
  attempted += 2;
  std::uint64_t snapshot_bytes = 0;
  file_digest(staged_dir, &snapshot_bytes);
  r.set("snapshot.bytes", static_cast<double>(snapshot_bytes));
  std::remove(ref_rings.c_str());
  std::remove(staged_rings.c_str());
  std::remove(staged_dir.c_str());

  r.set("rings.avg_out_degree", rings.avg_out_degree());
  r.set("structure.bytes_per_node", static_cast<double>(rings.memory_bytes()) /
                                        static_cast<double>(n));

  // location: the ring walk alone, one thread.
  {
    const int span = tr.begin("walk");
    double hops = 0.0;
    std::uint64_t walks = 0;
    const double us = mean_us(0.5, [&](std::uint64_t i) {
      const LocateQuery& q = frames[(i / c.frame) % frames.size()][i % c.frame];
      const ron::LocateResult res = service.locate(q.first, q.second);
      hops += static_cast<double>(res.hops);
      ++walks;
    });
    tr.end(span);
    r.set("query.us_per_op", us);
    r.set("walk.hops_mean", hops / static_cast<double>(walks));
  }
  measure_frame_path<true>(c, *engine, frames, tr, r);
  // churn (dense only): the mutator and the epoch swap, per op kind.
  if (workload == "churn-dense") {
    ron::OverlayMutator mutator(prox, spec, dir);
    ron::OracleEngine epoch_engine(mutator.commit(), opts);
    const ChurnPlan plan = plan_churn(dir, 20, 8, c.seed ^ 0x1a7e5c);
    std::map<std::string, std::vector<double>> apply_us;
    std::vector<double> commit_ms;
    std::vector<double> swap_ms;
    const int span = tr.begin("churn");
    for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
      const ron::ChurnTrace& chunk = plan.chunks[k];
      for (const ron::ChurnOp& op : chunk.ops) {
        ron::ChurnTrace one{chunk.objects, {op}};
        const int s = tr.begin(std::string("churn.apply.") +
                                   ron::to_string(op.kind),
                               span, k + 1);
        const std::uint64_t t0 = now_ns();
        mutator.apply(one);
        apply_us[ron::to_string(op.kind)].push_back(
            static_cast<double>(now_ns() - t0) * 1e-3);
        tr.end(s);
      }
      std::shared_ptr<const ron::LocationEpoch> epoch;
      commit_ms.push_back(
          timed(tr, "churn.commit", span, [&] { epoch = mutator.commit(); }) *
          1e3);
      swap_ms.push_back(timed(tr, "engine.apply", span,
                              [&] { epoch_engine.apply(epoch); }) *
                        1e3);
    }
    tr.end(span);
    for (const auto& [kind, us] : apply_us) {
      r.set("churn.apply_us." + kind, median(us));
    }
    r.set("churn.commit_ms", median(commit_ms));
    r.set("engine.apply_ms", median(swap_ms));
    // sim: the same overlay and directory, carved and simulated.
    measure_sim(prox, rings, dir, c.seed, kSimSeconds, tr, r, fails,
                attempted);
  }
  traced_load(c, workload, tr, r, fails, attempted);
}

void layers_labels(const Common& c, Tracer& tr, Report& r, Failures& fails,
                   std::uint64_t& attempted) {
  const std::string staged = c.out_dir + "/oracle.staged.ron";
  ron::ScenarioSpec spec = ron::ScenarioSpec::parse(c.spec);
  const int setup = tr.begin("setup");
  std::unique_ptr<ron::MetricSpace> metric;
  std::unique_ptr<ron::ProximityIndex> prox;
  std::unique_ptr<ron::NeighborSystem> sys;
  std::unique_ptr<ron::DistanceLabeling> labeling;
  r.set("build.metric_s", timed(tr, "build.metric", setup, [&] {
          metric = ron::MetricRegistry::global().make(spec);
        }));
  spec.n = metric->n();
  r.set("build.prox_s", timed(tr, "build.prox", setup, [&] {
          prox = ron::make_proximity_index(*metric, ron::ProxBackend::kDense,
                                           1);
        }));
  const double sys_s = timed(tr, "build.neighbor_system", setup, [&] {
    sys = std::make_unique<ron::NeighborSystem>(*prox, spec.delta);
  });
  const double labels_s = timed(tr, "build.labeling", setup, [&] {
    labeling = std::make_unique<ron::DistanceLabeling>(*sys);
  });
  r.set("build.neighbor_system_s", sys_s);
  r.set("build.labeling_s", labels_s);
  r.set("build.structure_s", sys_s + labels_s);
  r.set("snapshot.save_s", timed(tr, "snapshot.save", setup, [&] {
          ron::save_oracle(spec, metric->name(), *labeling, staged);
        }));
  std::unique_ptr<ron::DistanceLabeling> loaded;
  r.set("snapshot.load_s", timed(tr, "snapshot.load", setup, [&] {
          loaded = std::make_unique<ron::DistanceLabeling>(
              ron::load_oracle(staged).labeling);
        }));
  ron::OracleOptions opts;
  opts.num_threads = 2;
  std::unique_ptr<ron::OracleEngine> engine;
  timed(tr, "engine.ready", setup, [&] {
    engine = std::make_unique<ron::OracleEngine>(std::move(*loaded), opts);
  });
  const std::size_t n = prox->n();
  ron::Rng rng = ron::Rng(c.seed).fork(0x1abe1);
  std::vector<std::vector<QueryPair>> frames(kLayerFrames);
  for (auto& f : frames) {
    for (std::size_t i = 0; i < c.frame; ++i) {
      const auto u = static_cast<NodeId>(rng.index(n));
      auto v = static_cast<NodeId>(rng.index(n - 1));
      if (v >= u) ++v;
      f.emplace_back(u, v);
    }
  }
  timed(tr, "engine.first_batch", setup,
        [&] { (void)engine->estimate_batch(frames[0]); });
  finish_setup(tr, setup, r);

  compare_files(c.snapshot, staged, "served oracle snapshot", fails);
  attempted += 1;
  std::uint64_t snapshot_bytes = 0;
  file_digest(staged, &snapshot_bytes);
  r.set("snapshot.bytes", static_cast<double>(snapshot_bytes));
  std::remove(staged.c_str());

  double bits = 0.0;
  for (NodeId u = 0; u < n; ++u) {
    bits += static_cast<double>(labeling->label_bits(u));
  }
  r.set("structure.bytes_per_node", bits / 8.0 / static_cast<double>(n));
  {
    const int span = tr.begin("labels.estimate");
    double sink = 0.0;
    const double us = mean_us(0.5, [&](std::uint64_t i) {
      const QueryPair& q = frames[(i / c.frame) % frames.size()][i % c.frame];
      sink += ron::DistanceLabeling::estimate(labeling->label(q.first),
                                              labeling->label(q.second))
                  .upper;
    });
    RON_CHECK(sink > 0.0, "label joins summed to " << sink);
    for (const auto& f : frames) {
      for (const QueryPair& q : f) {
        check_estimate(*metric, spec.delta, q,
                       ron::DistanceLabeling::estimate(
                           labeling->label(q.first), labeling->label(q.second))
                           .upper,
                       fails);
        ++attempted;
      }
    }
    tr.end(span);
    r.set("query.us_per_op", us);
  }
  measure_frame_path<false>(c, *engine, frames, tr, r);
  traced_load(c, "estimate-labels", tr, r, fails, attempted);
}

}  // namespace

StagedOverlay build_staged_overlay(const ron::ScenarioSpec& spec,
                                   ron::ProxBackend backend, Tracer& tr,
                                   int parent, Report& r) {
  StagedOverlay o;
  r.set("build.metric_s", timed(tr, "build.metric", parent, [&] {
          o.metric = ron::MetricRegistry::global().make(spec);
        }));
  r.set("build.prox_s", timed(tr, "build.prox", parent, [&] {
          o.prox = ron::make_proximity_index(*o.metric, backend, 1);
        }));
  // The scale range LocationOverlay uses: the top net level spans the
  // diameter.
  const int l_max =
      static_cast<int>(std::ceil(std::log2(o.prox->aspect_ratio()))) + 1;
  const double nets_s = timed(tr, "build.nets", parent, [&] {
    o.nets = std::make_unique<ron::NetHierarchy>(*o.prox, l_max);
  });
  const double measure_s = timed(tr, "build.measure", parent, [&] {
    o.mu = std::make_unique<ron::MeasureView>(*o.prox,
                                              ron::doubling_measure(*o.nets));
  });
  const double rings_s = timed(tr, "build.rings", parent, [&] {
    o.model = std::make_unique<ron::RingsSmallWorld>(
        *o.prox, *o.mu, spec.ring_params(), spec.overlay_seed);
  });
  double structure = nets_s + measure_s + rings_s;
  // ScenarioBuilder seals exactly the sparse-backend rings.
  if (!o.prox->has_full_rows()) {
    const double seal_s =
        timed(tr, "build.seal", parent, [&] { o.model->seal_rings(); });
    r.set("build.seal_s", seal_s);
    structure += seal_s;
  }
  r.set("build.nets_s", nets_s);
  r.set("build.measure_s", measure_s);
  r.set("build.rings_s", rings_s);
  r.set("build.structure_s", structure);
  return o;
}

void compare_files(const std::string& a, const std::string& b,
                   const std::string& what, Failures& fails) {
  std::uint64_t na = 0;
  std::uint64_t nb = 0;
  const std::uint64_t ha = file_digest(a, &na);
  const std::uint64_t hb = file_digest(b, &nb);
  if (ha != hb || na != nb) {
    std::ostringstream os;
    os << what << ": " << a << " (" << na << " B, " << std::hex << ha
       << ") differs from " << b << " (" << std::dec << nb << " B, "
       << std::hex << hb << ")";
    fails.add("not_identical", os.str());
  }
}

int cmd_layers(const Args& args) {
  args.expect_known({"workload", "spec", "snapshot", "port", "seed",
                     "seconds", "warmup", "frame", "out-dir", "backend",
                     "objects", "replicas"});
  const Common c(args);
  const std::string workload = args.get("workload", "");
  Tracer tr(true);
  Report r;
  Failures fails;
  std::uint64_t attempted = 0;
  if (workload == "locate-sparse" || workload == "churn-dense") {
    layers_overlay(c, args, workload, tr, r, fails, attempted);
  } else if (workload == "estimate-labels") {
    layers_labels(c, tr, r, fails, attempted);
  } else {
    throw ron::cli::UsageError("layers: unknown --workload '" + workload +
                               "'");
  }
  tr.write_json(c.out_dir + "/" + workload + ".trace.json");
  r.add_failures(fails, attempted);
  r.print();
  return 0;
}

}  // namespace ronbench
