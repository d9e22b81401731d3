// Unit tests of the benchmark's metric derivations and span checks, on
// hand-built inputs, and of the host-speed reference.
#include <gtest/gtest.h>

#include "metrics.h"
#include "reference.h"
#include "spans.h"

namespace perfbench {
namespace {

moca::sim::RunResult hand_built_result() {
  moca::sim::RunResult r;
  moca::sim::CoreResult c;
  c.core.committed = 2000;
  c.core.cycles = 4000;
  c.core.rob_head_stall_cycles = 1000;
  c.core.mshr_reject_cycles = 200;
  c.core.tlb_misses = 10;
  c.hierarchy.loads = 500;
  c.hierarchy.l1_load_hits = 400;
  c.hierarchy.l2_accesses = 150;
  c.hierarchy.l2_hits = 90;
  c.hierarchy.llc_misses = 60;
  c.hierarchy.writebacks = 20;
  r.cores = {c, c};  // two identical cores
  r.total_instructions = 4000;
  r.exec_time = 1'000'000;  // 1 us

  moca::sim::ModuleResult a;
  a.stats.reads = 90;
  a.stats.writes = 30;
  a.stats.row_hits = 60;
  a.stats.row_misses = 40;
  a.stats.row_conflicts = 20;
  a.stats.queue_time_ps = 120 * 5'000;  // 5 ns each
  a.stats.bus_busy_ps = 400'000;
  for (int i = 0; i < 99; ++i) a.stats.record_latency(30'000);  // 30 ns
  a.stats.record_latency(500'000);                              // 500 ns
  moca::sim::ModuleResult b;
  b.stats.reads = 10;
  b.stats.row_hits = 10;
  b.stats.bus_busy_ps = 200'000;
  r.modules = {a, b};

  r.os_stats.page_faults = 7;
  r.os_stats.fallback_allocations = 3;
  r.os_stats.last_resort_allocations = 1;
  r.adaptive.reclassifications = 5;
  r.adaptive.moved_pages = 4;
  r.adaptive.copied_lines = 256;
  return r;
}

TEST(Metrics, ExactLayerMetricsNormalisePerKinstr) {
  const moca::sim::RunResult r = hand_built_result();
  // Two cells of the same result: sums double, ratios stay.
  const MetricMap m =
      exact_layer_metrics({{&r, {2, 1}}, {&r, {2, 1}}});
  EXPECT_DOUBLE_EQ(m.at("cpu.cycles_per_kinstr"), 2000.0);
  EXPECT_DOUBLE_EQ(m.at("cpu.rob_head_stall_share"), 0.25);
  EXPECT_DOUBLE_EQ(m.at("cpu.mshr_reject_share"), 0.05);
  EXPECT_DOUBLE_EQ(m.at("cache.l1_hit_ratio"), 0.8);
  EXPECT_DOUBLE_EQ(m.at("cache.l2_hit_ratio"), 0.6);
  EXPECT_DOUBLE_EQ(m.at("cache.llc_mpki"), 30.0);
  EXPECT_DOUBLE_EQ(m.at("cache.writebacks_per_kinstr"), 10.0);
  EXPECT_DOUBLE_EQ(m.at("os.tlb_misses_per_kinstr"), 5.0);
  // 130 requests per 4000 instructions.
  EXPECT_DOUBLE_EQ(m.at("dram.requests_per_kinstr"), 32.5);
  EXPECT_DOUBLE_EQ(m.at("dram.write_share"), 30.0 / 130.0);
  EXPECT_DOUBLE_EQ(m.at("dram.row_hit_ratio"), 70.0 / 130.0);
  EXPECT_DOUBLE_EQ(m.at("dram.queue_ns_mean"), 600.0 / 130.0);
  // 100 samples: 99 in the 16-32 ns bucket, one above; p99 stays in it.
  EXPECT_DOUBLE_EQ(m.at("dram.latency_p99_ns"), 32.0);
  // 0.6 us busy over 1 us x 3 buses, per cell.
  EXPECT_DOUBLE_EQ(m.at("dram.bus_util"), 0.2);
  EXPECT_DOUBLE_EQ(m.at("os.page_faults"), 14.0);
  EXPECT_DOUBLE_EQ(m.at("os.fallback_allocations"), 6.0);
  EXPECT_DOUBLE_EQ(m.at("os.last_resort_allocations"), 2.0);
  EXPECT_DOUBLE_EQ(m.at("moca.adaptive.reclassifications"), 10.0);
  EXPECT_DOUBLE_EQ(m.at("moca.adaptive.moved_pages"), 8.0);
  EXPECT_DOUBLE_EQ(m.at("moca.adaptive.copied_lines"), 512.0);
}

TEST(Metrics, ZeroDenominatorsGiveZero) {
  EXPECT_EQ(per_kinstr(5, 0), 0.0);
  EXPECT_EQ(share(5, 0), 0.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(geomean({}), 0.0);
}

TEST(Metrics, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Metrics, MocaVsDdr3RatiosAreGeometricMeans) {
  moca::sim::RunResult ddr3_a, moca_a, ddr3_b, moca_b;
  ddr3_a.total_mem_access_time = 1000;
  moca_a.total_mem_access_time = 500;   // 0.5
  ddr3_b.total_mem_access_time = 1000;
  moca_b.total_mem_access_time = 2000;  // 2.0
  ddr3_a.memory_energy_j = 1.0;
  moca_a.memory_energy_j = 0.5;  // EDP ratio 0.25
  ddr3_b.memory_energy_j = 1.0;
  moca_b.memory_energy_j = 0.5;  // EDP ratio 1.0
  const std::vector<SetPair> pairs = {{&ddr3_a, &moca_a}, {&ddr3_b, &moca_b}};
  EXPECT_DOUBLE_EQ(mem_time_ratio(pairs), 1.0);
  EXPECT_DOUBLE_EQ(mem_edp_ratio(pairs), 0.5);
}

TEST(Metrics, CpuSelfTimeIsTheResidual) {
  EXPECT_DOUBLE_EQ(cpu_self_s(10.0, {1.0, 2.0, 3.0}), 4.0);
  EXPECT_DOUBLE_EQ(cpu_self_s(1.0, {}), 1.0);
}

TEST(Metrics, ObjectClassCountsEachAppOnce) {
  std::map<std::string, moca::core::ClassifiedApp> db;
  db["a"].object_class = {{1, moca::os::MemClass::kLatency},
                          {2, moca::os::MemClass::kNonIntensive}};
  db["b"].object_class = {{3, moca::os::MemClass::kBandwidth}};
  const MetricMap m = object_class_counts(db, {"a", "b", "a"});
  EXPECT_EQ(m.at("moca.objects_L"), 1.0);
  EXPECT_EQ(m.at("moca.objects_B"), 1.0);
  EXPECT_EQ(m.at("moca.objects_N"), 1.0);
}

Span span(const char* name, std::uint32_t id, std::uint32_t parent,
          std::int64_t start, std::int64_t end, std::uint32_t cell = 1) {
  Span s;
  s.name = name;
  s.cell = cell;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(Spans, SelfTimeSubtractsDirectChildren) {
  const std::vector<Span> spans = {
      span("cache.issue", 1, 0, 0, 1000),
      span("event_queue.run_until", 2, 1, 100, 300),
      span("event_queue.run_until", 3, 1, 500, 600),
  };
  EXPECT_TRUE(validate_spans(spans).empty());
  EXPECT_DOUBLE_EQ(total_s(spans, "cache.issue", true), 700e-9);
  EXPECT_DOUBLE_EQ(total_s(spans, "event_queue.run_until"), 300e-9);
}

TEST(Spans, ValidationFlagsBadNesting) {
  EXPECT_FALSE(validate_spans({span("replay", 1, 0, 0, 100),
                               span("os.translate", 2, 1, 50, 150)})
                   .empty());  // child ends after its parent
  EXPECT_FALSE(validate_spans({span("replay", 1, 0, 0, 100),
                               span("os.translate", 2, 1, 0, 60),
                               span("moca.find", 3, 1, 0, 60)})
                   .empty());  // overlapping children: negative self time
  EXPECT_FALSE(validate_spans({span("replay", 1, 0, 0, 100),
                               span("os.translate", 2, 1, 10, 20, 2)})
                   .empty());  // child in another cell
  EXPECT_FALSE(validate_spans({span("replay", 1, 0, 0, -1)}).empty());
}

TEST(Reference, DoesTheSameWorkEveryRun) {
  const ReferenceRun a = run_reference();
  const ReferenceRun b = run_reference();
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_NE(a.checksum, 0u);
  EXPECT_GT(a.seconds, 0.0);
}

}  // namespace
}  // namespace perfbench
