#include "replay.h"

#include <functional>
#include <memory>

#include "cache/cache.h"
#include "cache/hierarchy.h"
#include "common/check.h"
#include "common/event_queue.h"
#include "common/units.h"
#include "dram/module.h"
#include "dram/timings.h"
#include "moca/allocator.h"
#include "moca/object_registry.h"
#include "os/os.h"
#include "os/physical_memory.h"
#include "workload/app_stream.h"
#include "workload/suite.h"

namespace perfbench {

ReplayCounts& ReplayCounts::operator+=(const ReplayCounts& o) {
  ops += o.ops;
  translations += o.translations;
  cache_accesses += o.cache_accesses;
  events += o.events;
  dram_requests += o.dram_requests;
  finds += o.finds;
  return *this;
}

namespace {

using moca::EventQueue;
using moca::TimePs;

// Memory latency the cache stage sees: a typical loaded DRAM access.
constexpr TimePs kFixedMemoryLatencyPs = 80'000;
// Accesses issued between two run_until calls of the cache stage, which
// advances simulated time by one cycle per op.
constexpr std::size_t kIssueGroup = 64;
// A load refused for want of an L1 MSHR waits half a memory latency before
// retrying, so one wait returns several fills and costs one span.
constexpr TimePs kNoMshrWaitPs = kFixedMemoryLatencyPs / 2;

struct Access {
  std::uint64_t paddr = 0;
  std::uint64_t vaddr = 0;
  std::uint64_t object = 0;
  std::uint64_t op_index = 0;
  bool is_load = true;
};

struct Request {
  TimePs when = 0;
  std::uint64_t paddr = 0;
  bool is_write = false;
};

struct Miss {
  moca::os::ProcessId pid = 0;
  std::uint64_t vaddr = 0;
};

struct CoreReplay {
  moca::os::ProcessId pid = 0;
  std::unique_ptr<moca::core::MocaAllocator> allocator;
  std::unique_ptr<moca::workload::AppStream> stream;
  std::vector<moca::cpu::MicroOp> ops;
  std::vector<Access> accesses;
};

void load_done(void* /*obj*/, std::uint64_t /*arg*/, TimePs /*when*/) {}

}  // namespace

ReplayCounts replay_cell(
    const std::vector<std::string>& apps, moca::sim::SystemChoice choice,
    const std::map<std::string, moca::core::ClassifiedApp>& db,
    const moca::sim::Experiment& experiment, SpanRecorder& spans,
    std::uint32_t cell, std::uint32_t parent) {
  namespace os = moca::os;
  ReplayCounts counts;

  // The machine of the cell, assembled from the same public pieces the
  // simulator uses. The modules run on their own queue, idle until the DRAM
  // stage.
  EventQueue dram_events;
  const moca::sim::MemSystemConfig memsys =
      moca::sim::memsys_for(choice, experiment);
  std::vector<std::unique_ptr<moca::dram::MemoryModule>> modules;
  os::PhysicalMemory phys;
  for (const moca::sim::ModuleSpec& spec : memsys.modules) {
    moca::dram::DeviceConfig device = moca::dram::make_device(spec.kind);
    if (spec.interleave_granule_bytes != 0) {
      device.geometry.interleave_granule_bytes = spec.interleave_granule_bytes;
    }
    modules.push_back(std::make_unique<moca::dram::MemoryModule>(
        std::move(device), spec.capacity_bytes, spec.attached_channels,
        dram_events, spec.name));
    phys.add_module(modules.back().get());
  }
  const std::unique_ptr<os::AllocationPolicy> policy =
      moca::sim::make_policy(choice);
  os::Os os_model(phys, *policy);
  moca::core::ObjectRegistry registry;

  // Per-core inputs exactly as sim::run_workload derives them: reference
  // scale, seed ref_seed + 7919 * (core + 1), the app's classification.
  const std::uint64_t ops_per_core =
      experiment.instructions + experiment.effective_warmup();
  std::vector<CoreReplay> cores(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    CoreReplay& c = cores[i];
    const auto cls = db.find(apps[i]);
    const moca::core::ClassifiedApp* classes =
        cls == db.end() ? nullptr : &cls->second;
    c.pid = os_model.create_process();
    if (classes != nullptr) os_model.set_app_class(c.pid, classes->app_class);
    c.allocator = std::make_unique<moca::core::MocaAllocator>(
        os_model.address_space(c.pid), registry, classes);
    c.stream = std::make_unique<moca::workload::AppStream>(
        moca::workload::app_by_name(apps[i]), experiment.ref_scale,
        experiment.ref_seed + 7919 * (i + 1), *c.allocator,
        os_model.address_space(c.pid));
    c.ops.reserve(ops_per_core);
  }

  // First touch of every stack, code and object page, outside any span and
  // in System::pretouch_pages' order (one page per process in turn), so
  // frames land where the simulated cell puts them and the translate stage
  // times lookups, not page faults.
  {
    std::vector<std::vector<os::VirtAddr>> pages(cores.size());
    for (std::size_t i = 0; i < cores.size(); ++i) {
      const moca::workload::AppSpec& spec =
          moca::workload::app_by_name(apps[i]);
      for (std::uint64_t off = 0; off < spec.stack_bytes;
           off += moca::kPageBytes) {
        pages[i].push_back(os::kStackBase + off);
      }
      for (std::uint64_t off = 0; off < spec.code_bytes;
           off += moca::kPageBytes) {
        pages[i].push_back(os::kCodeBase + off);
      }
    }
    for (const moca::core::ObjectInstance& inst : registry.all()) {
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cores[i].pid != inst.pid) continue;
        for (std::uint64_t off = 0; off < inst.bytes;
             off += moca::kPageBytes) {
          pages[i].push_back(inst.base + off);
        }
      }
    }
    std::vector<std::size_t> cursor(cores.size(), 0);
    for (bool remaining = true; remaining;) {
      remaining = false;
      for (std::size_t i = 0; i < cores.size(); ++i) {
        if (cursor[i] < pages[i].size()) {
          (void)os_model.translate(cores[i].pid, pages[i][cursor[i]++]);
          remaining = true;
        }
      }
    }
  }

  {
    ScopedSpan span(&spans, "workload.next", cell, parent);
    for (CoreReplay& c : cores) {
      for (std::uint64_t n = 0; n < ops_per_core; ++n) {
        c.ops.push_back(c.stream->next());
      }
      counts.ops += ops_per_core;
    }
  }

  for (CoreReplay& c : cores) c.accesses.reserve(c.ops.size());
  {
    ScopedSpan span(&spans, "os.translate", cell, parent);
    for (CoreReplay& c : cores) {
      for (std::uint64_t n = 0; n < c.ops.size(); ++n) {
        const moca::cpu::MicroOp& op = c.ops[n];
        if (op.kind == moca::cpu::OpKind::kAlu) continue;
        c.accesses.push_back(
            Access{os_model.translate(c.pid, op.vaddr).paddr, op.vaddr,
                   op.object, n, op.kind == moca::cpu::OpKind::kLoad});
      }
      counts.translations += c.accesses.size();
    }
  }

  // Cache stage. Events are counted through the queue's size: every event
  // is scheduled either by an issue call (outside run_until) or by the
  // memory completion this stage installs (inside run_until), and the queue
  // is drained at the end, so the sum of those size deltas is the number of
  // events it ran.
  EventQueue cache_events;
  std::vector<Request> requests;
  std::vector<Miss> misses;
  std::uint64_t scheduled = 0;
  const auto run_until = [&](ScopedSpan& stage, TimePs until) {
    ScopedSpan span(&spans, "event_queue.run_until", cell, stage.id());
    cache_events.run_until(until);
  };
  {
    ScopedSpan stage(&spans, "cache.issue", cell, parent);
    const moca::cache::MemHierarchy::Backend memory =
        [&](std::uint64_t paddr, bool is_write,
            std::function<void(TimePs)> on_complete) {
          requests.push_back(Request{cache_events.now(), paddr, is_write});
          if (!on_complete) return;
          ++scheduled;
          const TimePs done = cache_events.now() + kFixedMemoryLatencyPs;
          cache_events.schedule(done, [&, done, cb = std::move(on_complete)] {
            const std::size_t before = cache_events.size();
            cb(done);
            scheduled += cache_events.size() - before;
          });
        };
    std::vector<std::unique_ptr<moca::cache::MemHierarchy>> hierarchies;
    for (std::size_t i = 0; i < cores.size(); ++i) {
      hierarchies.push_back(std::make_unique<moca::cache::MemHierarchy>(
          moca::cache::default_l1d(), moca::cache::default_l2(),
          cache_events, memory));
      hierarchies.back()->set_llc_miss_observer(
          [&misses](const moca::cache::AccessContext& ctx) {
            misses.push_back(Miss{ctx.process, ctx.vaddr});
          });
    }
    for (std::size_t i = 0; i < cores.size(); ++i) {
      moca::cache::MemHierarchy& h = *hierarchies[i];
      const TimePs start = cache_events.now();
      const std::vector<Access>& accesses = cores[i].accesses;
      for (std::size_t k = 0; k < accesses.size(); ++k) {
        const Access& a = accesses[k];
        moca::cache::AccessContext ctx;
        ctx.core = static_cast<std::uint32_t>(i);
        ctx.process = static_cast<std::uint32_t>(cores[i].pid);
        ctx.object = a.object;
        ctx.vaddr = a.vaddr;
        ctx.is_load = a.is_load;
        std::size_t before = cache_events.size();
        if (a.is_load) {
          // kNoMshr records nothing: let fills return, then retry.
          while (h.issue_load(a.paddr, ctx, {&load_done, nullptr, 0}) ==
                 moca::cache::IssueResult::kNoMshr) {
            run_until(stage, cache_events.now() + kNoMshrWaitPs);
            before = cache_events.size();
          }
        } else {
          h.issue_store(a.paddr, ctx);
        }
        scheduled += cache_events.size() - before;
        if ((k + 1) % kIssueGroup == 0) {
          run_until(stage, start + a.op_index * moca::kCpuCyclePs);
        }
      }
      counts.cache_accesses += accesses.size();
    }
    while (!cache_events.empty()) run_until(stage, cache_events.next_time());
    counts.events = scheduled;
  }

  // DRAM stage: closed loop with at most one L2 MSHR file's worth of reads
  // in flight, the back-pressure the simulated core would apply.
  {
    ScopedSpan span(&spans, "dram.access", cell, parent);
    const std::uint64_t max_in_flight = moca::cache::default_l2().mshrs;
    std::uint64_t in_flight = 0;
    for (const Request& r : requests) {
      while (in_flight >= max_in_flight) {
        dram_events.run_until(dram_events.next_time());
      }
      if (r.when > dram_events.now()) dram_events.run_until(r.when);
      const os::PhysicalMemory::Location loc = phys.locate(r.paddr);
      if (r.is_write) {
        modules[loc.module_index]->access(loc.local_addr, true, nullptr);
      } else {
        ++in_flight;
        modules[loc.module_index]->access(
            loc.local_addr, false, [&in_flight](TimePs) { --in_flight; });
      }
    }
    while (in_flight > 0) dram_events.run_until(dram_events.next_time());
    counts.dram_requests = requests.size();
  }

  {
    ScopedSpan span(&spans, "moca.find", cell, parent);
    for (const Miss& m : misses) (void)registry.find(m.pid, m.vaddr);
    counts.finds = misses.size();
  }
  return counts;
}

}  // namespace perfbench
