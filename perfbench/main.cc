// The repository benchmark (see README.md in this directory).
//
//   perfbench --workload <mem-1core|compute-1core|mix-4core> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--expect-digests <hex,...>] [--print-digests]
//
// A workload is a fixed batch of simulation cells. Each run derives a few
// input sets from --seed; one closed-loop client per input set sets the
// batch up (profiles and classifies its apps) and then runs it in rounds,
// one cell per worker at a time. The clients take turns on one thread until
// --seconds have passed. Every cell is checked with the ref:: stat checks
// and by its deterministic-report digest. With --trace 0 the last stdout
// line carries the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a traced run (one client) plus a layer replay.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "metrics.h"
#include "moca/adaptive.h"
#include "ref/stat_check.h"
#include "reference.h"
#include "replay.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/sweep.h"
#include "spans.h"
#include "workload/suite.h"

namespace {

namespace sim = moca::sim;
using perfbench::MetricMap;
using perfbench::ScopedSpan;
using perfbench::SpanRecorder;
using Clock = std::chrono::steady_clock;

// An untraced run repeats a set-up this many times, spread evenly over the
// measured rounds, on top of each client's first set-up.
constexpr int kSetupRepeats = 8;

struct Cell {
  std::vector<std::string> apps;
  sim::SystemChoice choice = sim::SystemChoice::kHomogenDdr3;
  bool adaptive = false;
  std::string label;
};

struct Workload {
  std::string name;
  std::uint64_t instructions = 0;  // measured instructions per core
  /// Input sets per run, each run by its own client (see run_clients()).
  /// MOCA's classification of an object near a threshold flips with the
  /// train seed, so one input set alone makes the simulated ratios jump
  /// from seed to seed; several per run average the flips.
  unsigned inputs = 4;
  bool sweep = false;  // cells run through SweepRunner::run
  std::vector<Cell> cells;
  std::vector<std::string> apps;  // every app the cells run (profiled)
  /// Cell-index pairs (Homogen-DDR3, MOCA) of the same app set.
  std::vector<std::pair<std::size_t, std::size_t>> ddr3_moca;
  double paper_time_ratio = 0;  // 0 = the paper states no such figure
  double paper_edp_ratio = 0;
};

// Instruction budgets keep one round of each batch near a second or two on
// a 4-vCPU host, so a 30 s run measures many rounds.
Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  std::vector<std::pair<std::string, std::vector<std::string>>> sets;
  std::vector<std::pair<sim::SystemChoice, bool>> systems = {
      {sim::SystemChoice::kHomogenDdr3, false},
      {sim::SystemChoice::kMoca, false}};
  if (name == "mem-1core") {
    w.instructions = 150'000;
    for (const char* app : {"mcf", "milc", "libquantum", "disparity", "lbm",
                            "mser", "tracking"}) {
      sets.push_back({app, {app}});
    }
    w.paper_time_ratio = 0.49;  // Fig. 8: MOCA -51% vs Homogen-DDR3
    w.paper_edp_ratio = 0.57;   // Fig. 9: -43%
  } else if (name == "compute-1core") {
    w.instructions = 300'000;
    for (const char* app : {"gcc", "sift", "stitch"}) {
      sets.push_back({app, {app}});
    }
    // Figs. 8/9 give whole-suite averages only: no figure for this subset.
  } else if (name == "mix-4core") {
    w.instructions = 100'000;
    w.inputs = 2;
    w.sweep = true;
    for (const moca::workload::WorkloadSet& s :
         moca::workload::standard_sets()) {
      if (s.name == "4L" || s.name == "2B2N") sets.push_back({s.name, s.apps});
    }
    systems = {{sim::SystemChoice::kHomogenDdr3, false},
               {sim::SystemChoice::kHeterApp, false},
               {sim::SystemChoice::kMoca, false},
               {sim::SystemChoice::kMoca, true}};
    w.paper_edp_ratio = 0.37;  // Fig. 11: MOCA -63% vs Homogen-DDR3
  } else {
    return w;
  }
  for (const auto& [set_name, apps] : sets) {
    std::pair<std::size_t, std::size_t> pair;
    for (const auto& [choice, adaptive] : systems) {
      if (choice == sim::SystemChoice::kHomogenDdr3) pair.first = w.cells.size();
      if (choice == sim::SystemChoice::kMoca && !adaptive) {
        pair.second = w.cells.size();
      }
      w.cells.push_back(Cell{apps, choice, adaptive,
                             set_name + "/" + sim::to_string(choice) +
                                 (adaptive ? "+adaptive" : "")});
    }
    w.ddr3_moca.push_back(pair);
    for (const std::string& app : apps) {
      if (std::find(w.apps.begin(), w.apps.end(), app) == w.apps.end()) {
        w.apps.push_back(app);
      }
    }
  }
  return w;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::vector<std::string> expect_digests;
  bool print_digests = false;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "error: " << error << "\n"
            << "usage: perfbench --workload mem-1core|compute-1core|"
               "mix-4core --seed N --seconds S --trace 0|1\n"
               "                 [--trace-out FILE] [--expect-digests HEX,...]"
               " [--print-digests]\n";
  std::exit(2);
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::stringstream in(s);
  for (std::string item; std::getline(in, item, sep);) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--print-digests") {
      o.print_digests = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value, &used);
        if (!(o.seconds > 0)) usage("--seconds must be positive");
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else if (flag == "--expect-digests") {
        o.expect_digests = split(value, ',');
      } else {
        usage("unknown flag " + flag);
      }
      if (used != 0 && used != value.size()) usage("bad number " + value);
    } catch (const std::logic_error&) {
      usage("bad number " + value);
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Input set `input` of the benchmark seed: its train and reference seeds
// both derive from --seed; the simulator only ever sees the derived
// experiment.
sim::Experiment experiment_for(const Workload& w, std::uint64_t seed,
                               unsigned input) {
  sim::Experiment e;
  e.instructions = w.instructions;
  const std::uint64_t base = moca::splitmix64(seed) + 2 * input;
  e.train_seed = moca::splitmix64(base + 1);
  e.ref_seed = moca::splitmix64(base + 2);
  return e;
}

sim::Experiment cell_experiment(const Cell& cell,
                                const sim::Experiment& base) {
  sim::Experiment e = base;
  if (cell.adaptive) e.adaptive = moca::core::parse_adaptive_spec("on");
  return e;
}

using ProfileDb = std::map<std::string, moca::core::ClassifiedApp>;

bool same_db(const ProfileDb& a, const ProfileDb& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, cls] : a) {
    const auto it = b.find(name);
    if (it == b.end() || it->second.app_class != cls.app_class ||
        it->second.object_class != cls.object_class) {
      return false;
    }
  }
  return true;
}

ProfileDb build_db(const Workload& w, const sim::Experiment& e,
                   sim::SweepRunner& runner) {
  return w.sweep ? sim::build_profile_db(w.apps, e, runner)
                 : sim::build_profile_db(w.apps, e);
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct CellRun {
  sim::SweepOutcome outcome;
  double host_s = 0;
};

struct Round {
  std::vector<CellRun> cells;
  double makespan_s = 0;
};

// Runs every cell of the batch once. Spans (traced rounds only) wrap each
// public call: sim.run around run_workload, sim.sweep around
// SweepRunner::run.
Round run_round(const Workload& w, const ProfileDb& db,
                const sim::Experiment& base, sim::SweepRunner& runner,
                SpanRecorder* spans) {
  Round round;
  const Clock::time_point start = Clock::now();
  if (w.sweep) {
    std::vector<sim::SweepJob> jobs;
    for (const Cell& c : w.cells) {
      jobs.push_back(
          sim::SweepJob{c.apps, c.choice, cell_experiment(c, base), c.label});
    }
    std::vector<sim::SweepOutcome> outcomes;
    {
      ScopedSpan span(spans, "sim.sweep", 0, 0);
      outcomes = runner.run(jobs, db);
    }
    round.makespan_s = seconds_since(start);
    for (sim::SweepOutcome& o : outcomes) {
      const double host_s = o.wall_ms / 1000.0;
      round.cells.push_back(CellRun{std::move(o), host_s});
    }
    return round;
  }
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const Cell& c = w.cells[i];
    CellRun run;
    run.outcome.job_id = i;
    run.outcome.label = c.label;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan span(spans, "sim.run", static_cast<std::uint32_t>(i + 1), 0);
      run.outcome.result =
          sim::run_workload(c.apps, c.choice, db, cell_experiment(c, base));
      run.outcome.ok = true;
    } catch (const std::exception& e) {
      run.outcome.kind = sim::SweepOutcome::FailureKind::kFailed;
      run.outcome.error = e.what();
    }
    run.host_s = seconds_since(t0);
    round.cells.push_back(std::move(run));
  }
  round.makespan_s = seconds_since(start);
  return round;
}

// The correctness gate of one cell: ref stat checks, report round-trip, and
// its deterministic-report digest against the first round and, when given,
// the expected digest. Returns the failure reasons (empty = pass).
std::vector<std::string> check_cell(const CellRun& run,
                                    std::uint64_t& digest,
                                    SpanRecorder* spans) {
  ScopedSpan span(spans, "sim.report",
                  static_cast<std::uint32_t>(run.outcome.job_id + 1), 0);
  if (!run.outcome.ok) return {"threw: " + run.outcome.error};
  std::vector<std::string> issues = moca::ref::check_run_result(
      run.outcome.result);
  for (std::string& s : moca::ref::check_report_json(
           sim::to_json(run.outcome.result), run.outcome.result)) {
    issues.push_back(std::move(s));
  }
  digest = fnv1a(sim::to_deterministic_json(run.outcome));
  return issues;
}

struct Gate {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::uint64_t> digests;  // first round, cell order

  /// `expected` holds this input set's expected digests (empty = none).
  void check_round(const Round& round,
                   const std::vector<std::string>& expected,
                   SpanRecorder* spans) {
    const bool first = digests.empty();
    for (std::size_t i = 0; i < round.cells.size(); ++i) {
      std::uint64_t digest = 0;
      std::vector<std::string> issues =
          check_cell(round.cells[i], digest, spans);
      if (first) digests.push_back(digest);
      if (issues.empty() && digest != digests[i]) {
        issues.push_back("digest " + hex(digest) +
                         " differs from the first round's " +
                         hex(digests[i]));
      }
      if (issues.empty() && !expected.empty() &&
          (i >= expected.size() || expected[i] != hex(digest))) {
        issues.push_back("digest " + hex(digest) +
                         " differs from the expected digest");
      }
      ++attempted;
      if (!issues.empty()) {
        ++failed;
        for (const std::string& s : issues) {
          std::cerr << "cell " << round.cells[i].outcome.label
                    << " failed: " << s << "\n";
        }
      }
    }
  }
};

double sim_instructions(const Workload& w, const sim::Experiment& e) {
  double total = 0;
  for (const Cell& c : w.cells) {
    total += static_cast<double>(c.apps.size() *
                                 (e.instructions + e.effective_warmup()));
  }
  return total;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Geometric means over every app set of every input set.
MetricMap simulated_ratios(const Workload& w,
                           const std::vector<const Round*>& firsts) {
  std::vector<perfbench::SetPair> pairs;
  for (const Round* first : firsts) {
    for (const auto& [ddr3, moca_cell] : w.ddr3_moca) {
      pairs.push_back({&first->cells[ddr3].outcome.result,
                       &first->cells[moca_cell].outcome.result});
    }
  }
  return {{"sim_mem_time_moca_vs_ddr3", perfbench::mem_time_ratio(pairs)},
          {"sim_mem_edp_moca_vs_ddr3", perfbench::mem_edp_ratio(pairs)}};
}

bool all_ok(const Round& round) {
  return std::all_of(round.cells.begin(), round.cells.end(),
                     [](const CellRun& c) { return c.outcome.ok; });
}

// The result line. Units come from BENCHMARK.json, which run.py also uses
// to check that the metric set is complete; a non-finite value prints as
// null, which that check rejects.
void print_result(bool correct, const Gate& gate, const MetricMap& metrics) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << gate.attempted
      << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    out << (first ? "" : ", ") << '"' << name << "\": ";
    if (std::isfinite(value)) {
      out << value;
    } else {
      out << "null";
    }
    first = false;
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

// One closed-loop client: one input set, its profile db and the samples
// of its rounds. A traced run alternates untraced and traced rounds so the
// tracing overhead compares rounds taken in the same host state.
struct Client {
  sim::Experiment base;
  std::vector<std::string> expected;  // digests of the input set, if known
  ProfileDb db;
  Gate gate;
  std::vector<Round> first;  // the first round; its results feed the metrics
  std::vector<std::vector<double>> cell_times;  // [cell] -> untraced rounds
  std::vector<double> makespans, busy;
  std::vector<double> traced_run_s, overhead;
  double untraced_s = 0;  // the last untraced round's summed cell time
};

// Builds the client's profile db and records the time it took. A repeat
// must classify every app as the first set-up did.
void set_up(const Workload& w, sim::SweepRunner& runner, SpanRecorder* spans,
            Client& c, std::vector<double>& times) {
  const Clock::time_point t0 = Clock::now();
  ProfileDb built;
  {
    ScopedSpan span(spans, "moca.profile", 0, 0);
    built = build_db(w, c.base, runner);
  }
  times.push_back(seconds_since(t0));
  if (c.db.empty()) {
    c.db = std::move(built);
  } else if (!same_db(c.db, built)) {
    throw std::runtime_error("set-up is not deterministic: profile dbs differ");
  }
}

void measure_round(const Workload& w, sim::SweepRunner& runner,
                   unsigned workers, SpanRecorder* traced, Client& c) {
  Round round = run_round(w, c.db, c.base, runner, traced);
  c.gate.check_round(round, c.expected, traced);
  double sum = 0;
  for (const CellRun& cell : round.cells) sum += cell.host_s;
  if (traced != nullptr) {
    c.traced_run_s.push_back(sum);
    c.overhead.push_back(sum / c.untraced_s);
  } else {
    c.untraced_s = sum;
    c.cell_times.resize(round.cells.size());
    for (std::size_t i = 0; i < round.cells.size(); ++i) {
      c.cell_times[i].push_back(round.cells[i].host_s);
    }
    c.makespans.push_back(round.makespan_s);
    c.busy.push_back(sum / (workers * round.makespan_s));
  }
  if (c.first.empty()) c.first.push_back(std::move(round));
}

// Host-time samples of a run that belong to no client.
struct HostSamples {
  std::vector<double> setup;      // build_profile_db seconds
  std::vector<double> reference;  // run_reference seconds
};

// Sets every client up once, then gives the clients a round each in turn
// until --seconds have passed; an untraced run times the reference after
// each round. An untraced run repeats kSetupRepeats set-ups between rounds, so
// set-up samples span the run as round samples do. One thread runs
// everything but the sweep's own workers: more busy threads than the
// host's few vCPUs would time the scheduler.
void run_clients(const Workload& w, const Options& opt, unsigned workers,
                 SpanRecorder* spans, std::vector<Client>& cs,
                 HostSamples& host) {
  sim::SweepRunner runner(workers);
  for (Client& c : cs) set_up(w, runner, spans, c, host.setup);
  const std::uint64_t checksum = perfbench::run_reference().checksum;
  const double setup_every = opt.seconds / kSetupRepeats;
  double next_setup = setup_every;
  std::size_t repeats = 0;
  const Clock::time_point start = Clock::now();
  for (int r = 0; r == 0 || seconds_since(start) < opt.seconds ||
                  (spans != nullptr && r < 2);
       ++r) {
    SpanRecorder* traced = spans != nullptr && r % 2 == 1 ? spans : nullptr;
    for (Client& c : cs) {
      measure_round(w, runner, workers, traced, c);
      if (spans != nullptr) continue;
      const perfbench::ReferenceRun ref = perfbench::run_reference();
      if (ref.checksum != checksum) {
        throw std::runtime_error("the host-speed reference is not repeatable");
      }
      host.reference.push_back(ref.seconds);
    }
    if (spans == nullptr && seconds_since(start) >= next_setup) {
      set_up(w, runner, nullptr, cs[repeats++ % cs.size()], host.setup);
      next_setup += setup_every;
    }
  }
}

// Layer replay of every cell plus the per-layer metrics of a traced client.
MetricMap per_layer_metrics(const Workload& w, const Client& c,
                            SpanRecorder& recorder) {
  const sim::Experiment& base = c.base;
  const Round& first = c.first.front();
  perfbench::ReplayCounts counts;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const auto id = static_cast<std::uint32_t>(i + 1);
    ScopedSpan span(&recorder, "replay", id, 0);
    counts += perfbench::replay_cell(w.cells[i].apps, w.cells[i].choice, c.db,
                                     cell_experiment(w.cells[i], base),
                                     recorder, id, span.id());
  }
  const std::vector<perfbench::Span>& all = recorder.spans();
  const auto ns_per = [](double s, std::uint64_t n) {
    return perfbench::share(s * 1e9, static_cast<double>(n));
  };
  const double gen_s = perfbench::total_s(all, "workload.next");
  const double translate_s = perfbench::total_s(all, "os.translate");
  const double cache_s = perfbench::total_s(all, "cache.issue", true);
  const double queue_s = perfbench::total_s(all, "event_queue.run_until");
  const double dram_s = perfbench::total_s(all, "dram.access");
  const double find_s = perfbench::total_s(all, "moca.find");
  std::vector<perfbench::CellRecord> records;
  for (std::size_t i = 0; i < first.cells.size(); ++i) {
    records.push_back(
        {&first.cells[i].outcome.result,
         perfbench::module_channels(sim::memsys_for(w.cells[i].choice, base))});
  }
  MetricMap m = perfbench::exact_layer_metrics(records);
  m.merge(perfbench::object_class_counts(c.db, w.apps));
  m["workload.gen_ns_per_op"] = ns_per(gen_s, counts.ops);
  m["os.translate_ns"] = ns_per(translate_s, counts.translations);
  m["cache.ns_per_access"] = ns_per(cache_s, counts.cache_accesses);
  m["event_queue.events_per_kinstr"] =
      perfbench::per_kinstr(static_cast<double>(counts.events), counts.ops);
  m["event_queue.ns_per_event"] = ns_per(queue_s, counts.events);
  m["dram.ns_per_request"] = ns_per(dram_s, counts.dram_requests);
  m["moca.find_ns"] = ns_per(find_s, counts.finds);
  m["moca.profile_s"] = perfbench::total_s(all, "moca.profile");
  const double run_s = perfbench::median(c.traced_run_s);
  m["sim.run_s"] = run_s;
  m["sim.report_s"] = perfbench::total_s(all, "sim.report") /
                      static_cast<double>(c.traced_run_s.size());
  m["sim.worker_busy_share"] = perfbench::median(c.busy);
  m["sim.trace_overhead"] = perfbench::median(c.overhead);
  m["cpu.self_s"] = perfbench::cpu_self_s(
      run_s, {gen_s, translate_s, cache_s, queue_s, dram_s, find_s});
  std::cout << "workload " << w.name << ": traced " << c.traced_run_s.size()
            << " of " << c.traced_run_s.size() + c.makespans.size()
            << " rounds; replayed " << counts.ops << " ops; " << all.size()
            << " spans; cpu.self_s is a residual\n";
  return m;
}

int run(const Options& opt) {
  const Workload w = make_workload(opt.workload);
  if (w.cells.empty()) usage("unknown workload " + opt.workload);
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  // Traced runs use one client (input set 0). Clients take turns, so the
  // sweep of the one running gets every vCPU.
  const unsigned clients = opt.trace ? 1u : w.inputs;
  const unsigned workers =
      w.sweep ? std::clamp(cpus, 1u, static_cast<unsigned>(w.cells.size()))
              : 1u;
  const std::size_t n = w.cells.size();
  SpanRecorder recorder;
  std::vector<Client> cs(clients);
  for (unsigned k = 0; k < clients; ++k) {
    cs[k].base = experiment_for(w, opt.seed, k);
    if (opt.expect_digests.size() >= (k + 1) * n) {
      cs[k].expected.assign(opt.expect_digests.begin() + k * n,
                            opt.expect_digests.begin() + (k + 1) * n);
    }
  }
  HostSamples samples;
  bool correct = true;
  try {
    run_clients(w, opt, workers, opt.trace ? &recorder : nullptr, cs, samples);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    correct = false;
  }

  Gate gate;
  std::vector<std::uint64_t> digests;
  std::vector<const Round*> firsts;
  for (const Client& c : cs) {
    if (c.first.empty() || !all_ok(c.first.front())) {
      std::cerr << "a first round did not complete; its input set is left "
                   "out of the simulated ratios\n";
      correct = false;
    } else {
      firsts.push_back(&c.first.front());
    }
    gate.attempted += c.gate.attempted;
    gate.failed += c.gate.failed;
    digests.insert(digests.end(), c.gate.digests.begin(),
                   c.gate.digests.end());
  }
  if (!opt.expect_digests.empty() && !opt.trace &&
      opt.expect_digests.size() != cs.size() * n) {
    std::cerr << "expected " << opt.expect_digests.size()
              << " digests, the run has " << cs.size() * n << " cells\n";
    correct = false;
  }
  if (opt.print_digests) {
    std::string list;
    for (const std::uint64_t d : digests) {
      list += (list.empty() ? "" : ",") + hex(d);
    }
    std::cerr << "digests: " << list << "\n";
  }

  MetricMap metrics;
  if (opt.trace) {
    if (!correct) return 1;
    metrics = per_layer_metrics(w, cs[0], recorder);
    const std::vector<std::string> issues =
        perfbench::validate_spans(recorder.spans());
    if (!opt.trace_out.empty()) {
      std::ofstream(opt.trace_out) << perfbench::chrome_trace(recorder.spans());
    }
    if (!issues.empty()) {
      for (const std::string& s : issues) {
        std::cerr << "trace validation: " << s << "\n";
      }
      return 3;
    }
  } else {
    // Host-time metrics are medians of samples spread over the whole run,
    // scaled by the median reference time to the reference's nominal speed
    // (reference.h): other tenants slow the shared host down by up to 1.7x,
    // for seconds at a time and over minutes, and the reference slows down
    // with it. A cell's host time is the median of its rounds. A 1-core
    // round runs its cells one after another, so its time is their sum; a
    // sweep round's time is its makespan.
    const double ref_s = perfbench::median(samples.reference);
    const double scale = perfbench::share(perfbench::kReferenceNominalS, ref_s);
    const auto host = [scale](const std::vector<double>& v) {
      return scale * perfbench::median(v);
    };
    std::vector<double> cell_s;
    double wall_s = 0, cells_s = 0, instr = 0;
    std::size_t rounds = 0;
    for (const Client& c : cs) {
      double sum = 0;
      for (const std::vector<double>& times : c.cell_times) {
        cell_s.push_back(host(times));
        sum += cell_s.back();
      }
      wall_s += w.sweep ? host(c.makespans) : sum;
      cells_s += sum;
      instr += sim_instructions(w, c.base);
      rounds += c.makespans.size();
    }
    metrics["setup_s"] = host(samples.setup);
    metrics["wall_s"] = wall_s / static_cast<double>(cs.size());
    metrics["sim_minstr_per_s"] = perfbench::share(instr, cells_s) / 1e6;
    metrics["cell_s_p50"] = perfbench::median(cell_s);
    metrics["peak_rss_mb"] = peak_rss_mib();
    metrics["pass_share"] =
        1.0 - perfbench::share(static_cast<double>(gate.failed),
                               static_cast<double>(gate.attempted));
    // A cell that threw leaves its input set out; the result line still
    // prints, with pass_share below 1 and correct false.
    if (!firsts.empty()) metrics.merge(simulated_ratios(w, firsts));
    std::cout << "workload " << w.name << ": " << w.cells.size()
              << " cells x " << rounds << " rounds of " << clients
              << " client(s) x " << workers << " worker(s), "
              << samples.setup.size() << " set-ups; cell_s_p50 over "
              << cell_s.size() << " cells\nhost speed: reference " << ref_s
              << " s (median of " << samples.reference.size()
              << "), host times x " << scale
              << " to its nominal " << perfbench::kReferenceNominalS
              << " s\n";
    if (!firsts.empty()) {
      const auto paper = [](double v) {
        return v > 0 ? std::to_string(v).substr(0, 4) : "not stated";
      };
      std::cout << "sim_mem_time_moca_vs_ddr3 "
                << metrics["sim_mem_time_moca_vs_ddr3"]
                << " (paper: " << paper(w.paper_time_ratio)
                << ")\nsim_mem_edp_moca_vs_ddr3 "
                << metrics["sim_mem_edp_moca_vs_ddr3"]
                << " (paper: " << paper(w.paper_edp_ratio) << ")\n";
    }
  }
  print_result(correct && gate.failed == 0, gate, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
