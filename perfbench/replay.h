// Layer replay of the traced run.
//
// After the traced cells, each cell's inputs are re-driven through one layer
// at a time, each stage under its own span, so every layer's host cost can
// be read in isolation. Every stack, code and object page is first touched
// outside any span, in the simulator's pre-touch order, so frames are placed
// as in the simulated cell and no stage times first-touch faults.
//
//   workload.next          AppStream::next for the cell's whole op budget
//   os.translate           Os::translate of every load/store address
//   cache.issue            MemHierarchy::issue_load/issue_store against a
//                          fixed-latency memory; every EventQueue::run_until
//                          call is its own child span event_queue.run_until
//   dram.access            the resulting miss + writeback stream sent to
//                          MemoryModule::access on the module owning each
//                          frame, with at most one L2 MSHR file's worth of
//                          reads in flight per core
//   moca.find              ObjectRegistry::find on each LLC-missing access
//
// These are isolated-layer costs, not the layers' self time inside a full
// simulation: the replay skips the core model and feeds each layer the
// previous stage's output instead of the live interleaving.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/runner.h"
#include "spans.h"

namespace perfbench {

/// Work counts of one replayed cell.
struct ReplayCounts {
  std::uint64_t ops = 0;             // micro-ops generated, warm-up included
  std::uint64_t translations = 0;    // load/store addresses translated
  std::uint64_t cache_accesses = 0;  // loads + stores issued
  std::uint64_t events = 0;          // events the cache stage's queue ran
  std::uint64_t dram_requests = 0;   // reads + writebacks sent to DRAM
  std::uint64_t finds = 0;           // registry lookups (LLC misses)

  ReplayCounts& operator+=(const ReplayCounts& o);
};

/// Replays the cell (`apps` on `choice`, the reference inputs of
/// `experiment`) one layer at a time, recording the stage spans as children
/// of `parent` under `cell`.
[[nodiscard]] ReplayCounts replay_cell(
    const std::vector<std::string>& apps, moca::sim::SystemChoice choice,
    const std::map<std::string, moca::core::ClassifiedApp>& db,
    const moca::sim::Experiment& experiment, SpanRecorder& spans,
    std::uint32_t cell, std::uint32_t parent);

}  // namespace perfbench
