// A fixed host-speed reference for the benchmark's host-time metrics.
//
// The benchmark runs on shared hosts whose speed drifts by up to 1.7x over
// minutes as other tenants come and go. The reference is a fixed piece of
// work built from this directory alone, with no simulator code, so no change
// to the simulator can change its time. Timed between rounds on the thread
// that runs the cells, it tracks the host's speed of the moment; host-time
// metrics are scaled by kReferenceNominalS over its measured time.
#pragma once

#include <cstdint>

namespace perfbench {

/// The reference time that host-time metrics are scaled to: about what the
/// reference takes on an idle Intel Xeon (Sapphire Rapids) core.
inline constexpr double kReferenceNominalS = 0.05;

struct ReferenceRun {
  double seconds = 0;          // host time of the timed work
  std::uint64_t checksum = 0;  // the same on every run
};

/// Runs the reference once: a chase through a fixed random cycle over a
/// 1 MiB table that feeds a bounded min-heap. The table fits the L2 cache of
/// current server cores, and the branches depend on the data, as in the
/// simulator's inner loops. The table is built on the first call, before
/// the timed part.
ReferenceRun run_reference();

}  // namespace perfbench
