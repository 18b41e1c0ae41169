#include "trial.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "protocols/async_bit_convergence.hpp"
#include "protocols/blind_gossip.hpp"
#include "protocols/stable_leader.hpp"
#include "sim/engine.hpp"
#include "sim/event_scheduler.hpp"
#include "sim/invariants.hpp"

namespace perfbench {

using namespace mtm;

namespace {

// Stream tag of the per-trial fault plan seed. It must equal the one in
// harness/experiment.cpp; the path-equivalence self-test fails otherwise.
constexpr std::uint64_t kTrialFaultSeedTag = 0x7472666c74ULL;  // "trflt"

struct ProtocolBundle {
  std::unique_ptr<LeaderElectionProtocol> protocol;
  int tag_bits = 0;
  std::vector<Uid> uids;
};

ProtocolBundle make_protocol(const LeaderExperiment& spec,
                             std::uint64_t seed) {
  const NodeId n = spec.node_count;
  ProtocolBundle bundle;
  bundle.uids = BlindGossip::shuffled_uids(n, seed);
  auto uids = bundle.uids;
  switch (spec.algo) {
    case LeaderAlgo::kBlindGossip:
      bundle.protocol = std::make_unique<BlindGossip>(std::move(uids));
      break;
    case LeaderAlgo::kAsyncBitConvergence: {
      AsyncBitConvergenceConfig cfg;
      cfg.network_size_bound =
          spec.network_size_bound != 0 ? spec.network_size_bound : n;
      cfg.max_degree_bound = spec.max_degree_bound != 0
                                 ? spec.max_degree_bound
                                 : std::max<NodeId>(n - 1, 1);
      auto proto = std::make_unique<AsyncBitConvergence>(std::move(uids), cfg);
      bundle.tag_bits = proto->required_advertisement_bits();
      bundle.protocol = std::move(proto);
      break;
    }
    case LeaderAlgo::kStableLeader:
      bundle.protocol =
          std::make_unique<StableLeader>(std::move(uids), spec.epoch_timeout);
      bundle.tag_bits = 1;
      break;
    default:
      throw std::invalid_argument(std::string("perfbench: unsupported algo ") +
                                  leader_algo_name(spec.algo));
  }
  return bundle;
}

}  // namespace

RunResult run_probed_trial(const LeaderExperiment& spec, std::uint64_t seed,
                           const Probe& probe, const TrialCancel* cancel) {
  if (spec.byzantine.enabled()) {
    throw std::invalid_argument("perfbench: Byzantine plans are unsupported");
  }
  SpanStore& store = *probe.store;
  const std::int64_t trial_start = now_ns();

  std::unique_ptr<DynamicGraphProvider> topology = spec.topology(seed);
  TracedTopology* traced_topology = nullptr;
  if (probe.traced) {
    auto traced = std::make_unique<TracedTopology>(std::move(topology), store);
    traced_topology = traced.get();
    topology = std::move(traced);
  }
  ProtocolBundle bundle = make_protocol(spec, seed);
  EngineConfig cfg;
  cfg.tag_bits = bundle.tag_bits;
  cfg.seed = seed;
  cfg.activation_rounds = spec.activation_rounds;
  cfg.connection_failure_prob = spec.controls.connection_failure_prob;
  cfg.scheduler = spec.controls.scheduler;
  cfg.intra_round_threads = spec.controls.engine_threads;
  if (spec.controls.faults.enabled()) {
    cfg.faults = spec.controls.faults;
    cfg.faults.seed = derive_seed(seed, {kTrialFaultSeedTag});
  }
  std::unique_ptr<Scheduler> engine =
      make_scheduler(*topology, *bundle.protocol, cfg);
  InvariantMonitor monitor(InvariantConfig{
      false, spec.settle_rounds > 0
                 ? spec.settle_rounds
                 : std::max<Round>(64, 8 * spec.node_count)});
  if (spec.check_invariants) {
    monitor.set_expected_uids(bundle.uids);
    // Traced trials drive the monitor from the observer below so that its
    // time is separated from the step's; the monitor only reads state, so
    // the two attachments give the same results.
    if (!probe.traced) engine->set_invariant_monitor(&monitor);
  }

  SharedCounters& counters = store.counters();
  const auto* sync = dynamic_cast<const Engine*>(engine.get());
  const auto* event = dynamic_cast<const EventScheduler*>(engine.get());
  const std::uint64_t shards = sync != nullptr ? sync->shard_count() : 1;
  if (counters.shards.load() < shards) counters.shards.store(shards);

  std::function<void(const Scheduler&)> observer;
  std::int64_t mark = 0;
  std::uint64_t events_seen = 0;
  if (probe.traced) {
    observer = [&](const Scheduler& scheduler) {
      const std::int64_t gap = now_ns() - mark;
      const std::int64_t self = gap - take_child_ns();
      if (event != nullptr) {
        const std::uint64_t events = event->events_dispatched() - events_seen;
        events_seen = event->events_dispatched();
        store.record(SpanKind::kEventStep, gap, self, events);
        const std::uint64_t depth = event->queue_depth();
        if (counters.queue_depth_max.load() < depth) {
          counters.queue_depth_max.store(depth);
        }
      } else {
        store.record(SpanKind::kStep, gap, self);
      }
      if (spec.check_invariants) {
        const std::int64_t start = now_ns();
        monitor.observe_round(scheduler, traced_topology->last_graph());
        const std::int64_t dur = now_ns() - start;
        store.record(SpanKind::kObserve, dur, dur);
      }
      mark = now_ns();
    };
  }

  take_child_ns();
  const std::int64_t loop_start = now_ns();
  store.note_first_round(loop_start);
  mark = loop_start;
  RunResult result = run_until_stabilized(*engine, spec.controls.max_rounds,
                                          observer, cancel);
  const std::int64_t loop_ns = now_ns() - loop_start;
  if (spec.check_invariants) {
    result.invariant_violations = monitor.report().violations();
    result.split_brain_rounds = monitor.report().split_brain_rounds;
  }
  counters.crashes.fetch_add(engine->telemetry().crashes());
  counters.fault_dropped.fetch_add(engine->telemetry().fault_dropped());

  engine.reset();
  // The trial's self time is its construction and teardown: everything
  // outside the round loop, whose steps and observer calls are its children.
  const std::int64_t trial_ns = now_ns() - trial_start;
  store.record(SpanKind::kTrial, trial_ns, trial_ns - loop_ns);
  return result;
}

bool same_result(const RunResult& a, const RunResult& b) {
  return a.rounds == b.rounds && a.converged == b.converged &&
         a.rounds_after_last_activation == b.rounds_after_last_activation &&
         a.connections == b.connections && a.proposals == b.proposals &&
         a.invariant_violations == b.invariant_violations &&
         a.split_brain_rounds == b.split_brain_rounds &&
         a.cancelled == b.cancelled;
}

std::string check_path_equivalence(const LeaderExperiment& spec,
                                   SpanStore& scratch) {
  const std::vector<RunResult> reference = run_leader_experiment(spec);
  TrialSpec trial_spec;
  trial_spec.controls = spec.controls;
  for (const bool traced : {false, true}) {
    const Probe probe{&scratch, traced};
    const std::vector<RunResult> probed =
        run_trials(trial_spec, [&](std::uint64_t seed) {
          return run_probed_trial(spec, seed, probe);
        });
    for (std::size_t t = 0; t < reference.size(); ++t) {
      if (!same_result(reference[t], probed[t])) {
        return std::string(traced ? "traced" : "untraced") +
               " trial body differs from run_leader_trial at trial " +
               std::to_string(t);
      }
    }
  }
  scratch.reset();
  return "";
}

}  // namespace perfbench
