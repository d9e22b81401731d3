// Metric derivations of the repository benchmark.
//
// Everything here is a pure function of finished simulation results or of
// host-time samples, so it is unit-tested on hand-built inputs
// (metrics_test.cc). "Exact" metrics come from RunResult fields and repeat
// bit-for-bit for a given seed; host-time metrics are medians of samples.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "moca/classifier.h"
#include "sim/config.h"
#include "sim/system.h"

namespace perfbench {

/// Metric name -> value, ordered by name for stable output.
using MetricMap = std::map<std::string, double>;

/// `count` per thousand instructions; 0 when `instructions` is 0.
[[nodiscard]] double per_kinstr(double count, std::uint64_t instructions);

/// `num / den`; 0 when `den` is 0.
[[nodiscard]] double share(double num, double den);

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Geometric mean of strictly positive values; 0 for an empty sample.
[[nodiscard]] double geomean(const std::vector<double>& values);

/// Data buses of each module of `memsys`, in module order: attached
/// controllers times the device's channels per controller (HBM > 1).
[[nodiscard]] std::vector<std::uint32_t> module_channels(
    const moca::sim::MemSystemConfig& memsys);

/// One finished cell plus the data-bus count of each of its modules, in
/// RunResult::modules order.
struct CellRecord {
  const moca::sim::RunResult* result = nullptr;
  std::vector<std::uint32_t> channels;
};

/// The exact per-layer metrics of the cpu, cache, dram, os and adaptive
/// layers, summed over `cells` and normalised per kilo-instruction of the
/// measured (post-warm-up) window where the name says so.
[[nodiscard]] MetricMap exact_layer_metrics(
    const std::vector<CellRecord>& cells);

/// MOCA and Homogen-DDR3 runs of the same app set.
struct SetPair {
  const moca::sim::RunResult* ddr3 = nullptr;
  const moca::sim::RunResult* moca = nullptr;
};

/// Geometric mean over `pairs` of MOCA's total memory access time divided
/// by Homogen-DDR3's (Figs. 8/10).
[[nodiscard]] double mem_time_ratio(const std::vector<SetPair>& pairs);

/// The same ratio for memory EDP (Figs. 9/11).
[[nodiscard]] double mem_edp_ratio(const std::vector<SetPair>& pairs);

/// Residual host time of the core model: the simulation's host time minus
/// the isolated self times of the replayed layers. A residual, not a
/// measured span; it can only be as good as the replay estimates.
[[nodiscard]] double cpu_self_s(double run_s,
                                const std::vector<double>& replayed_self_s);

/// Objects of each class (moca.objects_L/B/N) in the classification of
/// `apps`, counting each distinct app once.
[[nodiscard]] MetricMap object_class_counts(
    const std::map<std::string, moca::core::ClassifiedApp>& db,
    const std::vector<std::string>& apps);

}  // namespace perfbench
