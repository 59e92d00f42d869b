// misbench: the repository's end-to-end benchmark program (one workload per
// process, so peak RSS is per workload). run.py builds this binary and calls
//
//   misbench --workload W --seed S --seconds T --trace 0|1 --workdir DIR
//            [--small]
//
// It repeats the workload until T seconds are used (at least a minimum
// number of repetitions), prints one fingerprint line per repetition, and
// ends with one JSON object {"correct", "attempted", "failed", "metrics"}
// whose metrics are plain numbers; run.py attaches the units from
// BENCHMARK.json. --trace 1 runs the same inputs with spans and prints the
// per-layer metrics instead of the end-to-end ones. --small shrinks the
// inputs for the benchmark's own tests.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/ssg.hpp"
#include "harness/registry.hpp"
#include "pipeline.hpp"
#include "support/resource.hpp"

using namespace misbench;
using ssmis::Process;

namespace {

constexpr int kThreads = 4;
constexpr int kStableSteps = 2000;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool small = false;
  std::string workdir = ".";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
      return argv[++i];
    };
    if (key == "--workload") a.workload = value();
    else if (key == "--seed") a.seed = std::stoull(value());
    else if (key == "--seconds") a.seconds = std::stod(value());
    else if (key == "--trace") a.trace = value() != "0";
    else if (key == "--workdir") a.workdir = value();
    else if (key == "--small") a.small = true;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double peak_rss_mb() {
  return static_cast<double>(ssmis::peak_rss_bytes()) / (1024.0 * 1024.0);
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

// Repetition policy: at least `min_reps`, then more while the next one is
// expected to finish inside the time budget.
bool another_rep(std::size_t done, std::size_t min_reps, Clock::time_point start,
                 double seconds, double typical_rep_s) {
  if (done < min_reps) return true;
  return seconds_between(start, Clock::now()) + typical_rep_s <= seconds;
}

struct Result {
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;
  // Peak RSS after the first repetition: later repetitions reuse memory the
  // allocator kept (per-thread arenas), so the lifetime peak would depend on
  // how many repetitions a run fitted and on thread timing.
  double peak_rss_mb = 0.0;

  void fail(const std::string& why, int count = 1) {
    failed += count;
    errors.push_back(why);
  }
};

void print_result(const Result& r) {
  for (const std::string& e : r.errors) std::cout << "# FAILURE: " << e << "\n";
  std::cout << "{\"correct\": " << (r.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : r.metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    std::cout << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  std::cout << "}}" << std::endl;
}

void add_self_times(const Tracer& tracer, Result& r) {
  for (const char* layer : {"graph", "core", "harness"})
    r.metrics[std::string(layer) + ".self_s"] = 0.0;
  for (const auto& [layer, secs] : tracer.self_seconds()) {
    std::printf("# self time %-8s %.4f s\n", layer.c_str(), secs);
    if (r.metrics.count(layer + ".self_s")) r.metrics[layer + ".self_s"] = secs;
  }
}

// save → mmap → compare of `g` through a scratch file: the graph layer's
// file round trip, for workloads whose pipeline does not include it.
struct IoProbe {
  double save_s = 0.0, mmap_s = 0.0, compare_s = 0.0;
  bool same = true;
};

IoProbe io_probe(const Graph& g, const std::string& path, Tracer& tracer, int parent) {
  IoProbe p;
  auto timed = [&](const char* name, auto&& f) {
    const ScopedSpan s(&tracer, name, parent, -1);
    const auto a = Clock::now();
    f();
    return seconds_between(a, Clock::now());
  };
  p.save_s = timed("graph.save", [&] { ssmis::io::save_ssg(path, g); });
  Graph mapped;
  p.mmap_s = timed("graph.mmap", [&] { mapped = ssmis::io::mmap_ssg(path); });
  p.compare_s = timed("graph.compare", [&] { p.same = mapped == g; });
  mapped = Graph();
  std::filesystem::remove(path);
  return p;
}

void add_graph_probes(const std::vector<const Graph*>& graphs, std::uint64_t seed,
                      Tracer& tracer, int parent, Result& r) {
  std::int64_t sweep_endpoints = 0, seek_endpoints = 0;
  double sweep_s = 0.0, seek_s = 0.0;
  for (const Graph* g : graphs) {
    {
      const ScopedSpan s(&tracer, "graph.sweep", parent, -1);
      const SweepProbe probe = sweep_rows(*g);
      sweep_endpoints += probe.endpoints;
      sweep_s += probe.seconds;
    }
    {
      const ScopedSpan s(&tracer, "graph.seek", parent, -1);
      const SeekProbe probe = seek_rows(*g, sub_seed(seed, 7));
      seek_endpoints += probe.endpoints;
      seek_s += probe.seconds;
    }
  }
  r.metrics["graph.sweep_endpoints_per_s"] = static_cast<double>(sweep_endpoints) / sweep_s;
  r.metrics["graph.seek_endpoints_per_s"] = static_cast<double>(seek_endpoints) / seek_s;
}

// Timed steps (seconds each) → the core layer's per-round metrics.
void add_step_metrics(const std::vector<double>& step_s, std::int64_t rounds,
                      std::int64_t active_total, Result& r) {
  std::vector<double> step_ms;
  for (const double s : step_s) step_ms.push_back(s * 1e3);
  r.metrics["core.round_ms_p50"] = median(step_ms);
  r.metrics["core.round_ms_max"] = *std::max_element(step_ms.begin(), step_ms.end());
  r.metrics["core.rounds"] = static_cast<double>(rounds);
  r.metrics["core.active_total"] = static_cast<double>(active_total);
  r.metrics["core.ns_per_active"] = sum(step_s) * 1e9 / static_cast<double>(active_total);
}

// Per-trial records → the harness layer's metrics.
void add_trial_metrics(const std::vector<TrialRecord>& trials, double wall_s, Result& r) {
  std::vector<double> make_ms, trial_ms;
  double busy_s = 0.0;
  for (const TrialRecord& t : trials) {
    make_ms.push_back(t.make_s * 1e3);
    trial_ms.push_back(t.total_s * 1e3);
    busy_s += t.total_s;
  }
  r.metrics["harness.make_ms_p50"] = median(make_ms);
  r.metrics["harness.trial_ms_p50"] = median(trial_ms);
  r.metrics["harness.trial_ms_p90"] = quantile(trial_ms, 0.9);
  r.metrics["harness.busy_frac"] = busy_s / (kThreads * wall_s);
}

// ---------------------------------------------------------------- scale ---

ScaleConfig scale_config(const Args& a, bool compressed) {
  ScaleConfig c;
  c.compressed = compressed;
  c.seed = a.seed;
  c.shards = kThreads;
  if (a.small) c.n = 20000;
  if (!compressed) c.ssg_path = a.workdir + "/scale-plain.ssg";
  return c;
}

void print_rep(const char* tag, std::size_t i, const ScaleRep& rep) {
  std::printf(
      "# %s rep %zu: total %.3f s, setup %.3f s (generate %.3f, save %.3f, mmap %.3f, "
      "compare %.3f, construct %.3f), stabilize %.3f s, verify %.3f s | %s\n",
      tag, i, rep.total_s, rep.setup_s, rep.generate_s, rep.save_s, rep.mmap_s, rep.compare_s,
      rep.construct_s, rep.stabilize_s, rep.verify_s, to_string(rep.fp).c_str());
}

// Runs one rep, accounts its failures and its fingerprint against the first.
ScaleRep scale_rep(const ScaleConfig& c, Tracer* tracer, int parent, Graph& g,
                   std::unique_ptr<Process>& process, Result& r,
                   std::optional<Fingerprint>& first) {
  ScaleRep rep = run_scale_rep(c, tracer, parent, g, process);
  r.attempted += rep.attempted;
  if (rep.failed > 0) r.fail(rep.error, rep.failed);
  if (!first) first = rep.fp;
  if (!(rep.fp == *first)) r.fail("fingerprint changed between repetitions");
  return rep;
}

void print_input(const Graph& g) {
  const SweepProbe probe = sweep_rows(g);
  std::printf("# input: n=%d m=%lld row_hash=%016llx\n", g.num_vertices(),
              static_cast<long long>(g.num_edges()),
              static_cast<unsigned long long>(probe.hash));
}

Result scale_untraced(const Args& a, bool compressed) {
  const ScaleConfig c = scale_config(a, compressed);
  Result r;
  std::optional<Fingerprint> first;
  std::vector<double> total, setup, stabilize;
  const auto start = Clock::now();
  while (another_rep(total.size(), 3, start, a.seconds, median(total))) {
    Graph g;
    std::unique_ptr<Process> process;
    const ScaleRep rep = scale_rep(c, nullptr, -1, g, process, r, first);
    print_rep("scale", total.size(), rep);
    if (total.empty()) {
      r.peak_rss_mb = peak_rss_mb();
      print_input(g);
    }
    total.push_back(rep.total_s);
    setup.push_back(rep.setup_s);
    stabilize.push_back(rep.stabilize_s);
  }
  std::printf("# fingerprint: %s\n", to_string(*first).c_str());
  r.metrics["time_to_mis_s"] = median(total);
  r.metrics["setup_s"] = median(setup);
  r.metrics["stabilize_s"] = median(stabilize);
  r.metrics["trials_per_s"] = 1.0 / median(total);
  return r;
}

Result scale_traced(const Args& a, bool compressed) {
  const ScaleConfig c = scale_config(a, compressed);
  Result r;
  Tracer tracer;
  const ScopedSpan root(&tracer, "bench.workload", -1, -1);
  std::optional<Fingerprint> first;
  std::vector<double> untraced_total, untraced_stabilize, traced_total;
  Graph g;
  std::unique_ptr<Process> process;
  ScaleRep traced;
  if (!c.ssg_path.empty()) {
    // Warm-up: the first save/mmap in a process runs several times slower
    // (fresh page-cache pages), which would read as negative trace overhead.
    Graph wg;
    std::unique_ptr<Process> wp;
    print_rep("warm-up", 0, scale_rep(c, nullptr, -1, wg, wp, r, first));
  }
  // Untraced and traced reps alternate so drift hits both alike; the last
  // traced rep's graph and process stay alive for the probes below.
  const auto start = Clock::now();
  while (another_rep(traced_total.size(), 1, start, a.seconds / 2,
                     2 * median(untraced_total))) {
    process.reset();
    g = Graph();
    {
      Graph ug;
      std::unique_ptr<Process> up;
      const ScaleRep u = scale_rep(c, nullptr, -1, ug, up, r, first);
      print_rep("untraced", untraced_total.size(), u);
      untraced_total.push_back(u.total_s);
      untraced_stabilize.push_back(u.stabilize_s);
    }
    traced = scale_rep(c, &tracer, root.id(), g, process, r, first);
    print_rep("traced", traced_total.size(), traced);
    traced_total.push_back(traced.total_s);
  }
  std::printf("# fingerprint: %s\n", to_string(*first).c_str());
  print_input(g);

  const double m = static_cast<double>(traced.num_edges);
  r.metrics["graph.generate_s"] = traced.generate_s;
  r.metrics["graph.generate_edges_per_s"] = m / traced.generate_s;
  r.metrics["graph.bytes_per_edge"] = static_cast<double>(traced.graph_bytes) / m;
  if (c.ssg_path.empty()) {
    const IoProbe io = io_probe(g, a.workdir + "/probe.ssg", tracer, root.id());
    ++r.attempted;
    if (!io.same) r.fail("mapped probe graph != generated graph");
    r.metrics["graph.save_s"] = io.save_s;
    r.metrics["graph.mmap_s"] = io.mmap_s;
    r.metrics["graph.compare_s"] = io.compare_s;
  } else {
    r.metrics["graph.save_s"] = traced.save_s;
    r.metrics["graph.mmap_s"] = traced.mmap_s;
    r.metrics["graph.compare_s"] = traced.compare_s;
  }
  add_graph_probes({&g}, a.seed, tracer, root.id(), r);

  r.metrics["core.construct_s"] = traced.construct_s;
  add_step_metrics(traced.step_s, traced.fp.rounds, traced.active_total, r);
  r.metrics["core.verify_s"] = traced.verify_s;
  {
    const ScopedSpan s(&tracer, "core.stable_steps", root.id(), -1);
    r.metrics["core.stable_step_ns"] = stable_step_ns(*process, kStableSteps);
  }
  process.reset();

  // Harness layer on this graph: the harness's trial body (traced_trials)
  // for the pipeline's protocol and seed, once alone at one thread and one
  // shard, then kThreads trials batched over kThreads threads. Trial 0 is
  // the pipeline's own run, so its fingerprint must match.
  ssmis::MeasureConfig mc;
  mc.protocol = kScaleProtocol;
  mc.seed = scale_process_seed(c);
  mc.max_rounds = kMaxRounds;
  mc.trials = 1;
  mc.threads = 1;
  TrialRecord alone;
  {
    const ScopedSpan s(&tracer, "harness.batch", root.id(), -1);
    alone = traced_trials(g, mc, &tracer, s.id(), 0, false)[0];
  }
  mc.trials = kThreads;
  mc.threads = kThreads;
  std::vector<TrialRecord> trials;
  double batch_wall = 0.0;
  {
    const ScopedSpan s(&tracer, "harness.batch", root.id(), -1);
    const auto t = Clock::now();
    trials = traced_trials(g, mc, &tracer, s.id(), 1, false);
    batch_wall = seconds_between(t, Clock::now());
  }
  r.attempted += 1 + mc.trials;
  for (const TrialRecord& t : trials)
    if (t.failed) r.fail("harness probe trial failed");
  if (alone.failed) r.fail("1-shard harness probe trial failed");
  if (!(alone.fp == *first) || !(trials[0].fp == *first))
    r.fail("harness trial 0 != pipeline fingerprint");
  r.metrics["core.shard_speedup"] = alone.run_s / median(untraced_stabilize);
  r.metrics["harness.thread_speedup"] =
      (static_cast<double>(mc.trials) / batch_wall) / (1.0 / alone.total_s);
  add_trial_metrics(trials, batch_wall, r);
  r.metrics["trace.overhead_frac"] = median(traced_total) / median(untraced_total) - 1.0;
  add_self_times(tracer, r);
  tracer.write(a.workdir + "/" + a.workload + ".spans.jsonl");
  return r;
}

// ---------------------------------------------------------------- sweep ---

SweepConfig sweep_config(const Args& a) {
  SweepConfig c = default_sweep(a.seed);
  if (a.small)
    for (SweepCell& cell : c.cells) cell.trials = std::max(kThreads, cell.trials / 8);
  return c;
}

// Accounts one pass and checks its per-trial rounds against the first pass.
void account_pass(const SweepPass& pass, Result& r,
                  std::optional<std::vector<std::vector<double>>>& first) {
  r.attempted += pass.attempted;
  if (pass.failed > 0) r.fail(pass.error, pass.failed);
  if (!first) first = pass.rounds;
  if (pass.rounds != *first) r.fail("per-trial rounds changed between passes");
}

// Trial 0 of every cell again through the instrumented trial body: its rounds
// must match measure_stabilization's, and it yields the output fingerprints.
void sweep_fingerprints(const SweepConfig& c, const SweepGraphs& graphs,
                        const std::vector<std::vector<double>>& rounds, Result& r) {
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    ssmis::MeasureConfig m = cell_config(c, i, 1, true);
    m.trials = 1;
    const TrialRecord t = traced_trials(graphs.of(c.cells[i]), m, nullptr, -1, 0, false)[0];
    ++r.attempted;
    if (t.failed) r.fail("fingerprint trial failed");
    if (rounds[i].empty() || static_cast<double>(t.rounds) != rounds[i][0])
      r.fail(c.cells[i].protocol + ": instrumented trial != measure_stabilization");
    std::printf("# fingerprint %s/%s trial 0: %s\n", c.cells[i].protocol.c_str(),
                c.cells[i].dense ? "dense" : "sparse", to_string(t.fp).c_str());
  }
}

void print_pass(const char* tag, std::size_t i, const SweepPass& p, int trials) {
  std::printf("# %s pass %zu: total %.3f s, setup %.4f s, stabilize %.3f s, %.1f trials/s; cells",
              tag, i, p.total_s, p.setup_s, p.stabilize_s, trials / p.total_s);
  for (const double s : p.cell_s) std::printf(" %.3f", s);
  std::printf(" s\n");
}

void print_sweep_input(const SweepGraphs& graphs) {
  for (const Graph* g : {&graphs.sparse, &graphs.dense}) print_input(*g);
}

Result sweep_untraced(const Args& a) {
  const SweepConfig c = sweep_config(a);
  const int trials = total_trials(c);
  Result r;
  std::optional<std::vector<std::vector<double>>> first;
  // Warm-up pass (thread-pool spawn, allocator and page warm-up): the first
  // pass in a process runs markedly slower and would skew short runs.
  account_pass(run_sweep_pass(c, kThreads, true), r, first);
  r.peak_rss_mb = peak_rss_mb();
  std::vector<double> total, setup, stabilize;
  const auto start = Clock::now();
  while (another_rep(total.size(), 5, start, a.seconds, median(total))) {
    const SweepPass pass = run_sweep_pass(c, kThreads, true);
    account_pass(pass, r, first);
    print_pass("sweep", total.size(), pass, trials);
    total.push_back(pass.total_s);
    setup.push_back(pass.setup_s);
    stabilize.push_back(pass.stabilize_s);
  }
  const SweepGraphs graphs = make_sweep_graphs(c);
  print_sweep_input(graphs);
  sweep_fingerprints(c, graphs, *first, r);
  r.metrics["time_to_mis_s"] = median(total);
  r.metrics["setup_s"] = median(setup);
  r.metrics["stabilize_s"] = median(stabilize);
  r.metrics["trials_per_s"] = trials / median(total);
  return r;
}

Result sweep_traced(const Args& a) {
  const SweepConfig c = sweep_config(a);
  Result r;
  Tracer tracer;
  const ScopedSpan root(&tracer, "bench.workload", -1, -1);
  std::optional<std::vector<std::vector<double>>> first;
  account_pass(run_sweep_pass(c, kThreads, true), r, first);  // warm-up

  std::vector<double> untraced_total, untraced_stabilize, traced_total;
  std::vector<TrialRecord> trials;
  double generate_s = 0.0, cells_wall = 0.0;
  SweepGraphs graphs;
  const auto start = Clock::now();
  while (another_rep(traced_total.size(), 1, start, a.seconds / 3,
                     2 * median(untraced_total))) {
    const SweepPass u = run_sweep_pass(c, kThreads, true);
    account_pass(u, r, first);
    print_pass("untraced", untraced_total.size(), u, total_trials(c));
    untraced_total.push_back(u.total_s);
    untraced_stabilize.push_back(u.stabilize_s);

    const ScopedSpan pass(&tracer, "bench.sweep_pass", root.id(), -1);
    const auto t0 = Clock::now();
    {
      const ScopedSpan s(&tracer, "graph.generate", pass.id(), -1);
      graphs = make_sweep_graphs(c);
      generate_s = seconds_between(t0, Clock::now());
    }
    trials.clear();
    cells_wall = 0.0;
    std::int64_t id_base = 0;
    for (std::size_t i = 0; i < c.cells.size(); ++i) {
      const ScopedSpan s(&tracer, "harness.cell", pass.id(), -1);
      const ssmis::MeasureConfig m = cell_config(c, i, kThreads, true);
      const auto t = Clock::now();
      const std::vector<TrialRecord> cell =
          traced_trials(graphs.of(c.cells[i]), m, &tracer, s.id(), id_base, true);
      cells_wall += seconds_between(t, Clock::now());
      r.attempted += m.trials;
      for (std::size_t k = 0; k < cell.size(); ++k) {
        if (cell[k].failed) r.fail(m.protocol + ": traced trial failed");
        if (static_cast<double>(cell[k].rounds) != (*first)[i][k])
          r.fail(m.protocol + ": traced trial loop != measure_stabilization");
      }
      trials.insert(trials.end(), cell.begin(), cell.end());
      id_base += m.trials;
    }
    traced_total.push_back(seconds_between(t0, Clock::now()));
    std::printf("# traced pass %zu: total %.3f s\n", traced_total.size() - 1,
                traced_total.back());
  }
  print_sweep_input(graphs);
  sweep_fingerprints(c, graphs, *first, r);

  const double m = static_cast<double>(graphs.sparse.num_edges() + graphs.dense.num_edges());
  r.metrics["graph.generate_s"] = generate_s;
  r.metrics["graph.generate_edges_per_s"] = m / generate_s;
  const std::int64_t bytes =
      ssmis::io::ssg_file_bytes(graphs.sparse) + ssmis::io::ssg_file_bytes(graphs.dense);
  r.metrics["graph.bytes_per_edge"] = static_cast<double>(bytes) / m;
  IoProbe io;
  for (const Graph* g : {&graphs.sparse, &graphs.dense}) {
    const IoProbe p = io_probe(*g, a.workdir + "/probe.ssg", tracer, root.id());
    ++r.attempted;
    if (!p.same) r.fail("mapped probe graph != generated graph");
    io.save_s += p.save_s;
    io.mmap_s += p.mmap_s;
    io.compare_s += p.compare_s;
  }
  r.metrics["graph.save_s"] = io.save_s;
  r.metrics["graph.mmap_s"] = io.mmap_s;
  r.metrics["graph.compare_s"] = io.compare_s;
  add_graph_probes({&graphs.sparse, &graphs.dense}, a.seed, tracer, root.id(), r);

  std::vector<double> step_s;
  double construct_s = 0.0, verify_s = 0.0;
  std::int64_t rounds = 0, active = 0;
  for (const TrialRecord& t : trials) {
    step_s.insert(step_s.end(), t.step_s.begin(), t.step_s.end());
    construct_s += t.make_s;
    verify_s += t.verify_s;
    rounds += t.rounds;
    active += t.active_total;
  }
  add_step_metrics(step_s, rounds, active, r);
  r.metrics["core.construct_s"] = construct_s;
  r.metrics["core.verify_s"] = verify_s;
  {
    // Trial 0 of every cell, stabilized, then stepped on; median over cells.
    const ScopedSpan s(&tracer, "core.stable_steps", root.id(), -1);
    std::vector<double> ns;
    for (std::size_t i = 0; i < c.cells.size(); ++i) {
      const ssmis::MeasureConfig mc = cell_config(c, i, 1, true);
      auto p = ssmis::ProtocolRegistry::instance().make(
          mc.protocol, graphs.of(c.cells[i]), ssmis::with_init(mc.params, mc.init),
          ssmis::trial_seed(mc, 0));
      p->run(mc.max_rounds, ssmis::TraceMode::kNone);
      ns.push_back(stable_step_ns(*p, kStableSteps));
    }
    r.metrics["core.stable_step_ns"] = median(ns);
  }
  SweepPass one_thread, sharded;
  {
    const ScopedSpan s(&tracer, "bench.measure_stabilization", root.id(), -1);
    one_thread = run_sweep_cells(c, graphs, 1, true);
  }
  {
    const ScopedSpan s(&tracer, "bench.measure_stabilization", root.id(), -1);
    sharded = run_sweep_cells(c, graphs, kThreads, false);
  }
  for (const SweepPass* p : {&one_thread, &sharded}) {
    r.attempted += p->attempted;
    if (p->failed > 0) r.fail(p->error, p->failed);
    if (p->rounds != *first) r.fail("per-trial rounds differ across thread counts");
  }
  r.metrics["core.shard_speedup"] = one_thread.stabilize_s / sharded.stabilize_s;
  r.metrics["harness.thread_speedup"] = one_thread.stabilize_s / median(untraced_stabilize);
  add_trial_metrics(trials, cells_wall, r);
  r.metrics["trace.overhead_frac"] = median(traced_total) / median(untraced_total) - 1.0;
  add_self_times(tracer, r);
  tracer.write(a.workdir + "/" + a.workload + ".spans.jsonl");
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    std::filesystem::create_directories(a.workdir);
    Result r;
    if (a.workload == "scale-plain" || a.workload == "scale-compressed") {
      const bool compressed = a.workload == "scale-compressed";
      r = a.trace ? scale_traced(a, compressed) : scale_untraced(a, compressed);
      std::filesystem::remove(a.workdir + "/scale-plain.ssg");
    } else if (a.workload == "sweep") {
      r = a.trace ? sweep_traced(a) : sweep_untraced(a);
    } else {
      throw std::invalid_argument("unknown workload " + a.workload);
    }
    if (!a.trace) {
      r.metrics["peak_rss_mb"] = r.peak_rss_mb;
      r.metrics["verified_frac"] =
          1.0 - static_cast<double>(r.failed) / static_cast<double>(r.attempted);
    }
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "misbench: " << e.what() << "\n";
    return 2;
  }
}
