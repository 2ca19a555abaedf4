// The three workloads. Each returns the run's operation counts, its check
// verdict and the metrics of the requested mode (end-to-end untraced,
// per-layer traced).

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include "harness/common.h"

namespace perfbench {

/// search-serial (threads = 1) and search-parallel (threads = 2).
RunResult RunSearchWorkload(const RunConfig& cfg, uint32_t threads);

/// serve-mixed: an in-process KtgServer driven through HandleLine.
RunResult RunServeWorkload(const RunConfig& cfg);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
