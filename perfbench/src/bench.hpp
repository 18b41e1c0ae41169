// The four benchmark workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Revision of the measured source tree, echoed in the host record.
  std::string revision = "unknown";
  /// Directory for the fault_sweep journal (removed again at exit).
  std::string work_dir = ".";
};

std::vector<std::string> workload_names();

/// Runs one workload and prints its report; the last line of standard
/// output is the JSON result. Returns the process exit code: 0 when every
/// output check passed, 1 otherwise.
int run_workload(const Options& options);

}  // namespace perfbench
