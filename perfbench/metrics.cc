#include "metrics.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "dram/timings.h"

namespace perfbench {

double per_kinstr(double count, std::uint64_t instructions) {
  return instructions == 0
             ? 0.0
             : count * 1000.0 / static_cast<double>(instructions);
}

double share(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<std::uint32_t> module_channels(
    const moca::sim::MemSystemConfig& memsys) {
  std::vector<std::uint32_t> out;
  for (const moca::sim::ModuleSpec& spec : memsys.modules) {
    out.push_back(spec.attached_channels *
                  moca::dram::make_device(spec.kind)
                      .geometry.channels_per_controller);
  }
  return out;
}

MetricMap exact_layer_metrics(const std::vector<CellRecord>& cells) {
  // Sums over every cell and core/module.
  double instr = 0, cycles = 0, stall = 0, mshr_reject = 0, tlb_misses = 0;
  double loads = 0, l1_hits = 0, l2_accesses = 0, l2_hits = 0;
  double llc_misses = 0, writebacks = 0;
  double reads = 0, writes = 0, row_hits = 0, row_total = 0, queue_ps = 0;
  double bus_busy_ps = 0, bus_capacity_ps = 0;
  double page_faults = 0, fallbacks = 0, last_resort = 0;
  double reclass = 0, moved_pages = 0, copied_lines = 0;
  moca::dram::ChannelStats latency;  // merged histogram only
  for (const CellRecord& cell : cells) {
    const moca::sim::RunResult& r = *cell.result;
    instr += static_cast<double>(r.total_instructions);
    for (const moca::sim::CoreResult& c : r.cores) {
      cycles += static_cast<double>(c.core.cycles);
      stall += static_cast<double>(c.core.rob_head_stall_cycles);
      mshr_reject += static_cast<double>(c.core.mshr_reject_cycles);
      tlb_misses += static_cast<double>(c.core.tlb_misses);
      loads += static_cast<double>(c.hierarchy.loads);
      l1_hits += static_cast<double>(c.hierarchy.l1_load_hits);
      l2_accesses += static_cast<double>(c.hierarchy.l2_accesses);
      l2_hits += static_cast<double>(c.hierarchy.l2_hits);
      llc_misses += static_cast<double>(c.hierarchy.llc_misses);
      writebacks += static_cast<double>(c.hierarchy.writebacks);
    }
    for (std::size_t m = 0; m < r.modules.size(); ++m) {
      const moca::dram::ChannelStats& s = r.modules[m].stats;
      reads += static_cast<double>(s.reads);
      writes += static_cast<double>(s.writes);
      row_hits += static_cast<double>(s.row_hits);
      row_total +=
          static_cast<double>(s.row_hits + s.row_misses + s.row_conflicts);
      queue_ps += static_cast<double>(s.queue_time_ps);
      bus_busy_ps += static_cast<double>(s.bus_busy_ps);
      const std::uint32_t buses = m < cell.channels.size() ? cell.channels[m]
                                                           : 1;
      bus_capacity_ps += static_cast<double>(r.exec_time) * buses;
      for (std::size_t b = 0; b < s.latency_hist.size(); ++b) {
        latency.latency_hist[b] += s.latency_hist[b];
      }
    }
    page_faults += static_cast<double>(r.os_stats.page_faults);
    fallbacks += static_cast<double>(r.os_stats.fallback_allocations);
    last_resort += static_cast<double>(r.os_stats.last_resort_allocations);
    reclass += static_cast<double>(r.adaptive.reclassifications);
    moved_pages += static_cast<double>(r.adaptive.moved_pages);
    copied_lines += static_cast<double>(r.adaptive.copied_lines);
  }
  const auto instructions = static_cast<std::uint64_t>(instr);
  const double requests = reads + writes;
  return {
      {"cpu.cycles_per_kinstr", per_kinstr(cycles, instructions)},
      {"cpu.rob_head_stall_share", share(stall, cycles)},
      {"cpu.mshr_reject_share", share(mshr_reject, cycles)},
      {"cache.l1_hit_ratio", share(l1_hits, loads)},
      {"cache.l2_hit_ratio", share(l2_hits, l2_accesses)},
      {"cache.llc_mpki", per_kinstr(llc_misses, instructions)},
      {"cache.writebacks_per_kinstr", per_kinstr(writebacks, instructions)},
      {"dram.requests_per_kinstr", per_kinstr(requests, instructions)},
      {"dram.write_share", share(writes, requests)},
      {"dram.row_hit_ratio", share(row_hits, row_total)},
      {"dram.queue_ns_mean", share(queue_ps, requests) / 1000.0},
      {"dram.latency_p99_ns", latency.latency_percentile(0.99)},
      {"dram.bus_util", share(bus_busy_ps, bus_capacity_ps)},
      {"os.tlb_misses_per_kinstr", per_kinstr(tlb_misses, instructions)},
      {"os.page_faults", page_faults},
      {"os.fallback_allocations", fallbacks},
      {"os.last_resort_allocations", last_resort},
      {"moca.adaptive.reclassifications", reclass},
      {"moca.adaptive.moved_pages", moved_pages},
      {"moca.adaptive.copied_lines", copied_lines},
  };
}

namespace {

template <typename Metric>
double pair_ratio(const std::vector<SetPair>& pairs, Metric metric) {
  std::vector<double> ratios;
  for (const SetPair& p : pairs) {
    ratios.push_back(metric(*p.moca) / metric(*p.ddr3));
  }
  return geomean(ratios);
}

}  // namespace

double mem_time_ratio(const std::vector<SetPair>& pairs) {
  return pair_ratio(pairs, [](const moca::sim::RunResult& r) {
    return static_cast<double>(r.total_mem_access_time);
  });
}

double mem_edp_ratio(const std::vector<SetPair>& pairs) {
  return pair_ratio(pairs, [](const moca::sim::RunResult& r) {
    return r.memory_edp();
  });
}

double cpu_self_s(double run_s, const std::vector<double>& replayed_self_s) {
  double rest = run_s;
  for (const double s : replayed_self_s) rest -= s;
  return rest;
}

MetricMap object_class_counts(
    const std::map<std::string, moca::core::ClassifiedApp>& db,
    const std::vector<std::string>& apps) {
  double counts[3] = {0, 0, 0};
  for (const std::string& app : std::set<std::string>(apps.begin(),
                                                      apps.end())) {
    for (const auto& [name, cls] : db.at(app).object_class) {
      ++counts[static_cast<int>(cls)];
    }
  }
  return {{"moca.objects_L", counts[0]},
          {"moca.objects_B", counts[1]},
          {"moca.objects_N", counts[2]}};
}

}  // namespace perfbench
