// mtm_perfbench: runs one benchmark workload and prints its metrics.
//
//   mtm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                 [--revision=REV] [--work-dir=DIR]
//
// perfbench/run.py builds this program and is the entry point; see
// perfbench/README.md for the workloads and metrics.
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/cli.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    const mtm::CliArgs args(argc, argv);
    options.workload = args.get_string("workload", "");
    options.seed = args.get_u64("seed", 1);
    options.seconds = args.get_double("seconds", 10.0);
    const std::uint64_t trace = args.get_u64("trace", 0);
    options.revision = args.get_string("revision", "unknown");
    options.work_dir = args.get_string("work-dir", ".");
    args.check_unused();
    if (options.workload.empty()) {
      throw std::invalid_argument("--workload is required");
    }
    if (!(options.seconds > 0.0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    if (trace > 1) throw std::invalid_argument("--trace must be 0 or 1");
    options.trace = trace == 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "mtm_perfbench: " << e.what() << "\nworkloads:";
    for (const std::string& name : perfbench::workload_names()) {
      std::cerr << " " << name;
    }
    std::cerr << "\n";
    return 2;
  }
  try {
    return perfbench::run_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "mtm_perfbench: " << e.what() << "\n";
    return 1;
  }
}
