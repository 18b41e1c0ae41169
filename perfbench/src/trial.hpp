// The benchmark's own trial body: the same sequence of public calls as
// run_leader_trial, with timers around it and, when traced, a forwarding
// topology decorator and the invariant monitor driven from the per-round
// observer so each layer can be timed. The path-equivalence self-test
// proves both variants give byte-identical RunResults to the library's.
#pragma once

#include <cstdint>
#include <string>

#include "harness/experiment.hpp"
#include "probe.hpp"

namespace perfbench {

/// One trial of `spec` under the fully derived trial `seed`. Supports the
/// leader algorithms the workloads use (blind gossip, async bit
/// convergence, stable leader) and no Byzantine plan.
mtm::RunResult run_probed_trial(const mtm::LeaderExperiment& spec,
                                std::uint64_t seed, const Probe& probe,
                                const mtm::TrialCancel* cancel = nullptr);

/// Runs spec.controls.trials trials three ways: run_leader_experiment, and
/// run_trials over run_probed_trial untraced and traced (recording into
/// `scratch`). Returns "" when every RunResult is identical, otherwise a
/// description of the first difference.
std::string check_path_equivalence(const mtm::LeaderExperiment& spec,
                                   SpanStore& scratch);

/// Field-by-field equality of two trial results.
bool same_result(const mtm::RunResult& a, const mtm::RunResult& b);

}  // namespace perfbench
