#include "bench.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <thread>

#include "core/stats.hpp"
#include "graph/generators.hpp"
#include "harness/checkpoint.hpp"
#include "harness/fabric.hpp"
#include "harness/sweep.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "sim/fault_cli.hpp"
#include "trial.hpp"

namespace perfbench {

using namespace mtm;

namespace {

constexpr NodeId kDegree = 8;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 21;
constexpr std::uint64_t kGraphSeedTag = 0x746f706fULL;   // "topo"
constexpr std::uint64_t kTrialSeedTag = 0x747269616cULL;  // "trial"
constexpr std::uint64_t kPointSeedTag = 0x706f696e74ULL;  // "point"
constexpr std::uint64_t kStaggerSeedTag = 0x737467ULL;    // "stg"

/// Trial threads stay within this budget, capped at 4 so that a larger host
/// runs the same shape of workload. Results do not depend on it: they are
/// bit-identical at any thread count.
std::size_t lane_budget() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload. A *result* is what a user waits for: the graph generated
/// from the seed, the trials run on it, and their outputs checked. A run
/// cycles through `inputs` distinct trial-seed sets on the same graph, so
/// that its metrics average over more trials than one result holds, until
/// --seconds have passed and every input has run and input 0 has run twice
/// (the repetition must reproduce its aggregates exactly). A workload whose
/// result is too long to run twice repeats its first trial inside the
/// result instead, so that a run may hold a single result.
struct Workload {
  const char* name;
  NodeId n;                 ///< graph size
  std::size_t points;       ///< sweep points per result (1 unless fabric)
  std::size_t trials;       ///< trials per point
  std::size_t workers;      ///< fabric worker processes; 0 = in-process
  std::size_t threads;      ///< in-process trial threads
  std::size_t inputs;       ///< distinct trial-seed sets per run
  bool repeat_first_trial;  ///< repeat trial 0 in every result, not input 0
  /// The experiment on graph `g` (the self-test passes a smaller graph).
  std::function<LeaderExperiment(Graph g, std::uint64_t seed)> experiment;
};

LeaderExperiment base_experiment(LeaderAlgo algo, NodeId n) {
  LeaderExperiment spec;
  spec.algo = algo;
  spec.node_count = n;
  return spec;
}

std::vector<Workload> make_workloads() {
  const std::size_t lanes = lane_budget();
  std::vector<Workload> w;

  // One blind-gossip trial (b = 0) at n = 10^6 on the sync scheduler,
  // monitor off, no journal: the engine phases and the graph generator are
  // the only layers doing work. The engine runs unsharded. On a shared
  // virtual host, time stolen from any one vCPU stalls every round barrier
  // of a sharded engine, and four shards made the run phase vary by +-30%
  // between runs; one shard varied by +-3% in the same minutes. A trial at
  // this size varies by +-10% on the same seed, and stabilization time by
  // +-8% between seeds, so a result runs four trials one after another on
  // its graph (and the first again) and the run holds that single result.
  w.push_back({"large_static", 1000000, 1, 4, 0, 1, 1, true,
               [](Graph g, std::uint64_t) {
                 auto spec = base_experiment(LeaderAlgo::kBlindGossip,
                                             g.node_count());
                 spec.topology = static_topology(std::move(g));
                 spec.controls.max_rounds = 4096;
                 return spec;
               }});

  // Blind gossip at n = 10^5 with the record-only invariant monitor that
  // mtm_sim attaches by default; trials fan out one per lane, unsharded.
  // The topology never changes, so the monitor's work is the same every
  // round.
  w.push_back({"monitored_static", 100000, 1, 4, 0, lanes, 4, false,
               [](Graph g, std::uint64_t) {
                 auto spec = base_experiment(LeaderAlgo::kBlindGossip,
                                             g.node_count());
                 spec.topology = static_topology(std::move(g));
                 spec.controls.max_rounds = 4096;
                 spec.check_invariants = true;
                 return spec;
               }});

  // The harness workload: many small stable-leader trials under churn,
  // periodic partitions and mild burst loss on a graph relabelled every
  // 8 rounds, monitor on, journaled (default batch:8 fsync policy) and run
  // through FabricRunner with two forked workers. The churn rate is
  // mtm_soak's (about 0.64 crashes per round network-wide). The epoch
  // timeout is 64 rather than the default 24: under burst loss, 24 rounds
  // are too few for liveness gossip to cross 512 nodes, spurious
  // re-elections follow and most trials never stabilize.
  w.push_back({"fault_sweep", 512, 2, 64, 2, 1, 8, false,
               [](Graph g, std::uint64_t) {
                 const NodeId n = g.node_count();
                 auto spec =
                     base_experiment(LeaderAlgo::kStableLeader, n);
                 spec.topology = relabeling_topology(std::move(g), 8);
                 spec.controls.max_rounds = 8192;
                 spec.epoch_timeout = 64;
                 spec.check_invariants = true;
                 FaultPlanConfig& f = spec.controls.faults;
                 f.crash_prob = std::min(0.02, 0.64 / static_cast<double>(n));
                 f.recovery_prob = 0.3;
                 f.min_alive = std::max<NodeId>(n / 2, 1);
                 f.burst = burst_preset(1);
                 f.partition.mode = PartitionMode::kPeriodic;
                 f.partition.parts = 2;
                 f.partition.start = 8;
                 f.partition.duration = 8;
                 f.partition.period = 32;
                 return spec;
               }});

  // Async bit convergence (the E22 setting) on the event scheduler:
  // exponential latency with mean 0.5 round, clock drift 0.1, activations
  // staggered over 16 rounds; trials fan out one per lane, monitor off.
  w.push_back({"event_async", 1024, 1, 16, 0, lanes, 4, false,
               [](Graph g, std::uint64_t seed) {
                 const NodeId n = g.node_count();
                 auto spec =
                     base_experiment(LeaderAlgo::kAsyncBitConvergence, n);
                 spec.topology = static_topology(std::move(g));
                 spec.controls.max_rounds = Round{1} << 20;
                 SchedulerSpec& s = spec.controls.scheduler;
                 s.kind = SchedulerKind::kEvent;
                 s.latency_dist = LatencyDist::kExponential;
                 s.latency_mean = 0.5;
                 s.clock_drift = 0.1;
                 Rng rng(derive_seed(seed, {kStaggerSeedTag}));
                 spec.activation_rounds.assign(n, 1);
                 for (Round& r : spec.activation_rounds) {
                   r = 1 + rng.uniform(16);
                 }
                 return spec;
               }});
  return w;
}

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

std::uint64_t read_hwm_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6));
    }
  }
  return 0;
}

/// Peak RSS of this process across VmHWM resets: every reset first folds
/// the high-water mark reached so far into `peak_kb`.
struct PeakRss {
  std::uint64_t peak_kb = 0;

  /// Resets VmHWM to the current RSS.
  void reset() {
    peak_kb = std::max(peak_kb, read_hwm_kb());
    std::ofstream("/proc/self/clear_refs") << "5";
  }
  std::uint64_t self_kb() const { return std::max(peak_kb, read_hwm_kb()); }
};

double seconds_of(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec);
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Seed-deterministic outputs of one result; equal across repetitions.
struct Aggregates {
  std::uint64_t rounds = 0;
  std::uint64_t node_rounds = 0;
  std::uint64_t connections = 0;
  std::uint64_t proposals = 0;
  std::uint64_t violations = 0;
  std::uint64_t split_brain_rounds = 0;
  std::uint64_t crashes = 0;
  std::uint64_t fault_dropped = 0;

  friend bool operator==(const Aggregates&, const Aggregates&) = default;
  Aggregates& operator+=(const Aggregates& o) {
    rounds += o.rounds;
    node_rounds += o.node_rounds;
    connections += o.connections;
    proposals += o.proposals;
    violations += o.violations;
    split_brain_rounds += o.split_brain_rounds;
    crashes += o.crashes;
    fault_dropped += o.fault_dropped;
    return *this;
  }
};

struct ResultRecord {
  bool traced = false;
  double wall_s = 0.0;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double generate_hwm_mb = 0.0;
  std::size_t lanes = 1;
  std::vector<RunResult> trials;
  Aggregates aggregates;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  // fabric only
  bool fabric = false;
  FabricStats fabric_stats;
  double children_cpu_s = 0.0;
};

// ---------------------------------------------------------------------------
// Layer accounting (spans folded after every result)
// ---------------------------------------------------------------------------

struct LayerTotals {
  std::vector<double> trial_ms;  ///< every trial, any result kind
  // traced results only
  std::vector<double> step_ms, event_step_ms, observe_ms, relabel_ms,
      append_ms, fsync_ms;
  double trial_s = 0, step_s = 0, event_step_s = 0, observe_s = 0,
         relabel_s = 0, graph_at_s = 0, trial_setup_s = 0, journal_s = 0;
  std::uint64_t events = 0, event_steps = 0, queue_depth_max = 0, shards = 0;
  std::vector<double> fsyncs, journal_bytes;  ///< per result
};

void fold_spans(const SpanStore& store, bool traced, LayerTotals& t) {
  std::uint64_t fsyncs = 0, bytes = 0;
  for (const Span& s : store.spans()) {
    const double ms = static_cast<double>(s.dur_ns) * 1e-6;
    const double self_s = static_cast<double>(s.self_ns) * 1e-9;
    if (s.kind == SpanKind::kTrial) t.trial_ms.push_back(ms);
    if (!traced) continue;
    switch (s.kind) {
      case SpanKind::kTrial:
        t.trial_s += ms * 1e-3;
        t.trial_setup_s += self_s;
        break;
      case SpanKind::kStep:
        t.step_ms.push_back(self_s * 1e3);
        t.step_s += self_s;
        break;
      case SpanKind::kEventStep:
        t.event_step_ms.push_back(self_s * 1e3);
        t.event_step_s += self_s;
        t.events += s.value;
        ++t.event_steps;
        break;
      case SpanKind::kGraphAt:
        t.graph_at_s += self_s;
        break;
      case SpanKind::kRelabel:
        t.relabel_ms.push_back(ms);
        t.relabel_s += self_s;
        break;
      case SpanKind::kObserve:
        t.observe_ms.push_back(ms);
        t.observe_s += self_s;
        break;
      case SpanKind::kJournalAppend:
        t.append_ms.push_back(ms);
        t.journal_s += self_s;
        bytes += s.value;
        break;
      case SpanKind::kJournalFsync:
        t.fsync_ms.push_back(ms);
        t.journal_s += self_s;
        ++fsyncs;
        break;
      case SpanKind::kJournalMeta:
        t.journal_s += self_s;
        break;
    }
  }
  if (traced) {
    t.fsyncs.push_back(static_cast<double>(fsyncs));
    t.journal_bytes.push_back(static_cast<double>(bytes));
  }
}

/// Quantile of unsorted samples; 0 for a layer that recorded none.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed,
                        const std::vector<Metric>& metrics) {
  obs::JsonValue values = obs::JsonValue::object();
  for (const Metric& m : metrics) {
    obs::JsonValue value = obs::JsonValue::object();
    value.set("value", obs::JsonValue::number(m.value));
    value.set("unit", obs::JsonValue::string(m.unit));
    values.set(m.name, std::move(value));
  }
  obs::JsonValue result = obs::JsonValue::object();
  result.set("correct", obs::JsonValue::boolean(correct));
  result.set("attempted", obs::JsonValue::unsigned_number(attempted));
  result.set("failed", obs::JsonValue::unsigned_number(failed));
  result.set("metrics", std::move(values));
  return result.dump();
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

class WorkloadRun {
 public:
  WorkloadRun(const Workload& workload, const Options& options)
      : w_(workload), o_(options), store_(kSpanCapacity) {}

  int run();

 private:
  ResultRecord run_result(bool traced, std::size_t input);
  void run_in_process(const LeaderExperiment& spec, const Probe& probe,
                      ResultRecord& rec);
  void run_fabric(LeaderExperiment spec, const Probe& probe,
                  ResultRecord& rec);
  std::string self_test();
  void check(ResultRecord& rec, std::size_t input);
  std::vector<Metric> end_to_end(const std::vector<ResultRecord>& recs) const;
  std::vector<Metric> per_layer(const std::vector<ResultRecord>& recs) const;
  void print_shares(const std::vector<ResultRecord>& recs) const;

  const Workload& w_;
  const Options& o_;
  SpanStore store_;
  PeakRss rss_;
  LayerTotals layers_;
  std::vector<std::optional<Aggregates>> expected_;
  std::string journal_dir_;
};

std::string WorkloadRun::self_test() {
  // The workload's own configuration at a size that runs in well under a
  // second (fault_sweep is small already).
  const NodeId n = std::min<NodeId>(w_.n, 512);
  Rng rng(derive_seed(o_.seed, {kGraphSeedTag, 1}));
  LeaderExperiment spec = w_.experiment(make_random_regular(n, kDegree, rng),
                                        o_.seed);
  spec.controls.trials = 4;
  spec.controls.threads = 2;
  return check_path_equivalence(spec, store_);
}

void WorkloadRun::run_in_process(const LeaderExperiment& spec,
                                 const Probe& probe, ResultRecord& rec) {
  TrialSpec trial_spec;
  trial_spec.controls = spec.controls;
  trial_spec.controls.trials = w_.trials;
  trial_spec.controls.threads = w_.threads;
  rec.lanes = w_.threads;
  rec.trials = run_trials(trial_spec, [&](std::uint64_t seed) {
    return run_probed_trial(spec, seed, probe);
  });
  if (w_.repeat_first_trial) {
    // The first trial again: it must reproduce its result exactly.
    RunResult again = run_probed_trial(
        spec, trial_seed(trial_spec.controls.seed, 0), probe);
    if (!same_result(again, rec.trials.front())) {
      rec.failures.push_back("trial 0 differs when run again");
      rec.failed = rec.trials.size() + 1;
    }
    rec.trials.push_back(again);
  }
}

void WorkloadRun::run_fabric(LeaderExperiment spec, const Probe& probe,
                             ResultRecord& rec) {
  rec.fabric = true;
  rec.lanes = w_.workers;
  const std::string journal = journal_dir_ + "/journal.jsonl";
  TracedStorage traced_storage(default_storage(), store_);
  FabricOptions options;
  options.workers = w_.workers;
  options.resilience.journal_path = journal;
  if (probe.traced) options.resilience.storage = &traced_storage;

  obs::RunManifest manifest =
      obs::make_run_manifest("mtm_perfbench", o_.seed, w_.workers);
  manifest.config.set("workload", obs::JsonValue::string(w_.name));
  std::vector<SweepPoint> points;
  auto shared = std::make_shared<const LeaderExperiment>(std::move(spec));
  for (std::size_t p = 0; p < w_.points; ++p) {
    SweepPoint point;
    point.label = "point" + std::to_string(p);
    point.trials = w_.trials;
    point.master_seed = derive_seed(shared->controls.seed, {kPointSeedTag, p});
    point.body = [shared, probe](std::uint64_t seed,
                                 const TrialCancel* cancel) {
      return run_probed_trial(*shared, seed, probe, cancel);
    };
    points.push_back(std::move(point));
  }

  rusage before{}, after{};
  getrusage(RUSAGE_CHILDREN, &before);
  FabricRunner runner(manifest, options);
  const SweepReport report = runner.run(points);
  getrusage(RUSAGE_CHILDREN, &after);
  rec.children_cpu_s = seconds_of(after) - seconds_of(before);
  rec.fabric_stats = runner.stats();

  for (const auto& point : report.points) {
    rec.trials.insert(rec.trials.end(), point.begin(), point.end());
  }
  auto fail = [&](const std::string& why) {
    rec.failures.push_back(why);
    rec.failed = w_.points * w_.trials;
  };
  if (report.interrupted || report.points.size() != w_.points) {
    fail("fabric sweep incomplete");
  }
  if (!report.quarantined.empty()) fail("fabric quarantined trials");
  if (rec.fabric_stats.trials_requeued != 0) {
    fail("fabric requeued " +
         std::to_string(rec.fabric_stats.trials_requeued) + " trial(s)");
  }
  // The merged journal must hold exactly the in-memory report.
  const TrialJournal::Contents contents = TrialJournal::load(journal);
  std::vector<std::vector<std::optional<RunResult>>> replay(
      w_.points, std::vector<std::optional<RunResult>>(w_.trials));
  for (const JournalRecord& r : contents.records) {
    if (r.point < w_.points && r.trial < w_.trials &&
        !replay[r.point][r.trial]) {
      replay[r.point][r.trial] = r.result;
    }
  }
  const bool journal_matches = [&] {
    for (std::size_t p = 0; p < report.points.size(); ++p) {
      for (std::size_t t = 0; t < report.points[p].size(); ++t) {
        if (!replay[p][t] ||
            !same_result(*replay[p][t], report.points[p][t])) {
          return false;
        }
      }
    }
    return true;
  }();
  if (!journal_matches) fail("merged journal differs from the sweep report");
  std::filesystem::remove_all(journal_dir_);
  std::filesystem::create_directories(journal_dir_);
}

ResultRecord WorkloadRun::run_result(bool traced, std::size_t input) {
  store_.reset();
  ResultRecord rec;
  rec.traced = traced;
  const Probe probe{&store_, traced};

  rss_.reset();
  const std::int64_t start = now_ns();
  Rng rng(derive_seed(o_.seed, {kGraphSeedTag}));
  Graph graph = make_random_regular(w_.n, kDegree, rng);
  const std::int64_t generated = now_ns();
  rec.generate_s = static_cast<double>(generated - start) * 1e-9;
  rec.generate_hwm_mb = static_cast<double>(read_hwm_kb()) / 1024.0;

  {
    LeaderExperiment spec = w_.experiment(std::move(graph), o_.seed);
    spec.controls.seed = derive_seed(o_.seed, {kTrialSeedTag, input});
    if (w_.workers > 0) {
      run_fabric(std::move(spec), probe, rec);
    } else {
      run_in_process(spec, probe, rec);
    }
  }
  const std::int64_t end = now_ns();
  rec.wall_s = static_cast<double>(end - start) * 1e-9;
  const std::int64_t first_round = store_.counters().first_round_ns.load();
  rec.setup_s = first_round > 0
                    ? static_cast<double>(first_round - start) * 1e-9
                    : rec.wall_s;

  const SharedCounters& c = store_.counters();
  rec.aggregates.crashes = c.crashes.load();
  rec.aggregates.fault_dropped = c.fault_dropped.load();
  layers_.queue_depth_max =
      std::max(layers_.queue_depth_max, c.queue_depth_max.load());
  layers_.shards = std::max(layers_.shards, c.shards.load());
  if (c.dropped_spans.load() != 0) {
    rec.failures.push_back("span store overflow");
    rec.failed = rec.trials.size();
  }
  fold_spans(store_, traced, layers_);
  check(rec, input);
  return rec;
}

void WorkloadRun::check(ResultRecord& rec, std::size_t input) {
  std::size_t bad = 0;
  for (const RunResult& r : rec.trials) {
    Aggregates& a = rec.aggregates;
    a.rounds += r.rounds;
    a.node_rounds += r.rounds * w_.n;
    a.connections += r.connections;
    a.proposals += r.proposals;
    a.violations += r.invariant_violations;
    a.split_brain_rounds += r.split_brain_rounds;
    if (!r.converged || r.cancelled || r.invariant_violations != 0) ++bad;
  }
  if (bad != 0) {
    rec.failures.push_back(std::to_string(bad) +
                           " trial(s) censored or with a hard violation");
  }
  expected_.resize(w_.inputs);
  if (!expected_[input]) {
    expected_[input] = rec.aggregates;
  } else if (!(*expected_[input] == rec.aggregates)) {
    rec.failures.push_back("aggregates of input " + std::to_string(input) +
                           " differ between repetitions");
    bad = rec.trials.size();
  }
  rec.failed = std::max(rec.failed, bad);
}

std::vector<Metric> WorkloadRun::end_to_end(
    const std::vector<ResultRecord>& recs) const {
  // Medians over the run's results, so that a slow spell on a shared host
  // moves one result rather than the run's figure. A run of large_static
  // usually holds one result; its trial_ms_p50 is a median over five trials.
  std::vector<double> setup, wall, node_rounds, trials;
  for (const ResultRecord& r : recs) {
    const double run_s = r.wall_s - r.setup_s;
    setup.push_back(r.setup_s);
    wall.push_back(r.wall_s);
    node_rounds.push_back(
        ratio(static_cast<double>(r.aggregates.node_rounds), run_s));
    trials.push_back(ratio(static_cast<double>(r.trials.size()), run_s));
  }
  rusage children{};
  getrusage(RUSAGE_CHILDREN, &children);
  const double peak_kb = static_cast<double>(rss_.self_kb()) +
                         static_cast<double>(children.ru_maxrss);
  return {
      {"setup_s", median(setup), "s"},
      {"wall_s", median(wall), "s"},
      {"node_rounds_per_s", median(node_rounds), "1/s"},
      {"trials_per_s", median(trials), "1/s"},
      {"trial_ms_p50", median(layers_.trial_ms), "ms"},
      {"peak_rss_mb", peak_kb / 1024.0, "MB"},
  };
}

std::vector<Metric> WorkloadRun::per_layer(
    const std::vector<ResultRecord>& recs) const {
  std::vector<double> generate, hwm, leases, heartbeats, requeued, per_lease,
      worker_busy;
  double wall_traced = 0.0, wall_plain = 0.0, lane_s = 0.0;
  Aggregates a;  // summed over the traced results: one per input
  double n_trials = 0.0;
  for (const ResultRecord& r : recs) {
    (r.traced ? wall_traced : wall_plain) += r.wall_s;
    if (!r.traced) continue;
    a += r.aggregates;
    n_trials += static_cast<double>(r.trials.size());
    generate.push_back(r.generate_s);
    hwm.push_back(r.generate_hwm_mb);
    lane_s += static_cast<double>(r.lanes) * (r.wall_s - r.generate_s);
    if (r.fabric) {
      const FabricStats& f = r.fabric_stats;
      leases.push_back(static_cast<double>(f.leases_granted));
      heartbeats.push_back(static_cast<double>(f.heartbeats));
      requeued.push_back(static_cast<double>(f.trials_requeued));
      per_lease.push_back(ratio(static_cast<double>(r.trials.size()),
                                static_cast<double>(f.leases_granted)));
      worker_busy.push_back(ratio(
          r.children_cpu_s, static_cast<double>(r.lanes) * r.wall_s));
    }
  }
  const LayerTotals& t = layers_;
  return {
      {"graph.generate_s", median(generate), "s"},
      {"graph.generate_peak_rss_mb", median(hwm), "MB"},
      {"graph.relabel_ms_p50", median(t.relabel_ms), "ms"},
      {"graph.relabel_busy_frac", ratio(t.relabel_s, t.trial_s), "ratio"},
      {"sim.step_ms_p50", median(t.step_ms), "ms"},
      {"sim.step_ms_p99", quantile(t.step_ms, 0.99), "ms"},
      {"sim.step_busy_frac", ratio(t.step_s, t.trial_s), "ratio"},
      {"sim.shards", static_cast<double>(t.shards), "count"},
      {"sim.proposals_per_node_round",
       ratio(static_cast<double>(a.proposals),
             static_cast<double>(a.node_rounds)),
       "ratio"},
      {"sim.connections_per_proposal",
       ratio(static_cast<double>(a.connections),
             static_cast<double>(a.proposals)),
       "ratio"},
      {"sim.rounds_mean", ratio(static_cast<double>(a.rounds), n_trials),
       "count"},
      {"sim.event.step_ms_p50", median(t.event_step_ms), "ms"},
      {"sim.event.events_per_s",
       ratio(static_cast<double>(t.events), t.event_step_s), "1/s"},
      {"sim.event.events_per_window",
       ratio(static_cast<double>(t.events),
             static_cast<double>(t.event_steps)),
       "count"},
      {"sim.event.queue_depth_max", static_cast<double>(t.queue_depth_max),
       "count"},
      {"sim.invariants.observe_ms_p50", median(t.observe_ms), "ms"},
      {"sim.invariants.busy_frac", ratio(t.observe_s, t.trial_s), "ratio"},
      {"sim.invariants.violations", static_cast<double>(a.violations),
       "count"},
      {"sim.invariants.split_brain_rounds",
       static_cast<double>(a.split_brain_rounds), "count"},
      {"sim.faults.crashes", static_cast<double>(a.crashes), "count"},
      {"sim.faults.fault_dropped", static_cast<double>(a.fault_dropped),
       "count"},
      {"harness.pool_busy_frac", ratio(t.trial_s, lane_s), "ratio"},
      {"harness.journal.append_ms_p50", median(t.append_ms), "ms"},
      {"harness.journal.fsync_ms_p50", median(t.fsync_ms), "ms"},
      {"harness.journal.fsyncs", median(t.fsyncs), "count"},
      {"harness.journal.bytes", median(t.journal_bytes), "bytes"},
      {"harness.journal.busy_frac", ratio(t.journal_s, wall_traced),
       "ratio"},
      {"harness.fabric.worker_busy_frac", median(worker_busy), "ratio"},
      {"harness.fabric.leases_granted", median(leases), "count"},
      {"harness.fabric.trials_per_lease", median(per_lease), "ratio"},
      {"harness.fabric.heartbeats", median(heartbeats), "count"},
      {"harness.fabric.requeued", median(requeued), "count"},
      {"obs.trace_overhead_frac",
       ratio(wall_traced, wall_plain) - 1.0, "ratio"},
  };
}

void WorkloadRun::print_shares(const std::vector<ResultRecord>& recs) const {
  double wall = 0.0, generate = 0.0;
  for (const ResultRecord& r : recs) {
    if (!r.traced) continue;
    wall += r.wall_s;
    generate += r.generate_s;
  }
  const LayerTotals& t = layers_;
  std::cout << "shares of traced result wall: graph.generate "
            << ratio(generate, wall) << ", harness.journal "
            << ratio(t.journal_s, wall) << "\n";
  std::cout << "shares of trial time: sim.step "
            << ratio(t.step_s, t.trial_s) << ", sim.event "
            << ratio(t.event_step_s, t.trial_s) << ", sim.invariants "
            << ratio(t.observe_s, t.trial_s) << ", graph.relabel "
            << ratio(t.relabel_s, t.trial_s) << ", graph.graph_at "
            << ratio(t.graph_at_s, t.trial_s)
            << ", trial set-up " << ratio(t.trial_setup_s, t.trial_s)
            << "\n";
}

int WorkloadRun::run() {
  journal_dir_ = o_.work_dir + "/" + w_.name + "-" + std::to_string(getpid());
  std::filesystem::create_directories(journal_dir_);

  std::cout << "host: nproc=" << std::thread::hardware_concurrency()
            << " lanes=" << lane_budget() << " compiler=" << PERFBENCH_COMPILER
            << " build_type=" << PERFBENCH_BUILD_TYPE
            << " revision=" << o_.revision << "\n"
            << "workload: " << w_.name << " seed=" << o_.seed
            << " seconds=" << o_.seconds << " trace=" << (o_.trace ? 1 : 0)
            << "\n";

  const std::string self_test_error = self_test();
  std::cout << "self-test (path equivalence): "
            << (self_test_error.empty() ? "pass" : self_test_error) << "\n";

  std::vector<ResultRecord> recs;
  const std::int64_t start = now_ns();
  auto elapsed = [&] { return static_cast<double>(now_ns() - start) * 1e-9; };
  if (!o_.trace) {
    const std::size_t min_results =
        w_.inputs + (w_.repeat_first_trial ? 0 : 1);
    for (std::size_t k = 0; k < min_results || elapsed() < o_.seconds; ++k) {
      recs.push_back(run_result(false, k % w_.inputs));
    }
  } else {
    // One untraced and one traced result per input, in alternating order,
    // so that the trace overhead compares like with like and the traced
    // counts cover a fixed set of trials.
    for (std::size_t k = 0; k < w_.inputs; ++k) {
      const bool traced_first = k % 2 == 1;
      recs.push_back(run_result(traced_first, k));
      recs.push_back(run_result(!traced_first, k));
    }
  }
  std::filesystem::remove_all(journal_dir_);

  std::size_t attempted = 0, failed = 0;
  for (std::size_t k = 0; k < recs.size(); ++k) {
    const ResultRecord& r = recs[k];
    std::cout << "result " << k << (r.traced ? " traced" : "")
              << ": wall_s=" << r.wall_s << " setup_s=" << r.setup_s
              << " generate_s=" << r.generate_s
              << " trials=" << r.trials.size()
              << " rounds=" << r.aggregates.rounds << "\n";
  }
  for (const ResultRecord& r : recs) {
    attempted += r.trials.size();
    failed += r.failed;
    for (const std::string& why : r.failures) {
      std::cout << "check failed: " << why << "\n";
    }
  }
  if (!self_test_error.empty()) failed = std::max<std::size_t>(failed, 1);
  const bool correct = failed == 0;

  const std::vector<Metric> metrics =
      o_.trace ? per_layer(recs) : end_to_end(recs);
  std::cout << "results: " << recs.size() << ", trials: " << attempted
            << ", failed_frac = "
            << ratio(static_cast<double>(failed),
                     static_cast<double>(attempted))
            << " ratio\n";
  if (!o_.trace && layers_.trial_ms.size() >= 100) {
    std::cout << "trial_ms_p90 = " << quantile(layers_.trial_ms, 0.9)
              << " ms (" << layers_.trial_ms.size() << " trials)\n";
  }
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  if (o_.trace) print_shares(recs);
  std::cout << result_json(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : make_workloads()) names.emplace_back(w.name);
  return names;
}

int run_workload(const Options& options) {
  for (const Workload& w : make_workloads()) {
    if (options.workload == w.name) return WorkloadRun(w, options).run();
  }
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace perfbench
