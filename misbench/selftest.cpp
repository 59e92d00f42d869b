// The benchmark's own checks, on shrunken inputs (seconds, not minutes):
//
//   * a fixed seed gives the same fingerprint on plain and compressed storage
//     and at 1 and 4 engine shards;
//   * sweep per-trial rounds are equal at 1 and 4 threads, and equal between
//     the instrumented trial loop and measure_stabilization;
//   * a different seed changes the inputs, the same seed repeats them;
//   * span self time subtracts the union of a span's children.
//
// Exit status 0 when every check passes; each failure prints one line.
// Run: .bench_build/misbench/misbench_selftest [workdir]
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "pipeline.hpp"

using namespace misbench;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

Fingerprint scale_fp(ScaleConfig c) {
  Graph g;
  std::unique_ptr<ssmis::Process> p;
  const ScaleRep rep = run_scale_rep(c, nullptr, -1, g, p);
  const std::string storage = c.compressed ? "compressed" : "plain";
  check(rep.failed == 0, "scale rep verified (" + storage + ", " + std::to_string(c.shards) +
                             " shards): " + to_string(rep.fp));
  return rep.fp;
}

void scale_checks(const std::string& workdir) {
  ScaleConfig c;
  c.n = 20000;
  c.seed = 7;
  c.ssg_path = workdir + "/selftest.ssg";
  const Fingerprint plain4 = scale_fp(c);
  c.shards = 1;
  const Fingerprint plain1 = scale_fp(c);
  c.ssg_path.clear();
  c.compressed = true;
  const Fingerprint compressed1 = scale_fp(c);
  c.shards = 4;
  const Fingerprint compressed4 = scale_fp(c);
  check(plain4 == plain1, "scale fingerprint equal at 1 and 4 shards (plain)");
  check(compressed4 == compressed1, "scale fingerprint equal at 1 and 4 shards (compressed)");
  check(plain4 == compressed4, "scale fingerprint equal on plain and compressed storage");

  // Traced reps step one round at a time; the trajectory must not change.
  Tracer tracer;
  Graph g;
  std::unique_ptr<ssmis::Process> p;
  const ScaleRep traced = run_scale_rep(c, &tracer, -1, g, p);
  check(traced.fp == compressed4, "traced scale rep repeats the untraced fingerprint");
  check(static_cast<std::int64_t>(traced.step_s.size()) == traced.fp.rounds,
        "traced scale rep times one step per round");
  std::filesystem::remove(workdir + "/selftest.ssg");
}

void sweep_checks() {
  SweepConfig c = default_sweep(11);
  for (SweepCell& cell : c.cells) cell.trials = std::max(4, cell.trials / 16);
  const SweepGraphs graphs = make_sweep_graphs(c);
  const SweepPass one = run_sweep_cells(c, graphs, 1, true);
  const SweepPass four = run_sweep_cells(c, graphs, 4, true);
  check(one.failed == 0 && four.failed == 0, "sweep trials all verified");
  check(one.rounds == four.rounds, "sweep per-trial rounds equal at 1 and 4 threads");
  bool same = true;
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    const std::vector<TrialRecord> traced =
        traced_trials(graphs.of(c.cells[i]), cell_config(c, i, 4, true), nullptr, -1, 0, true);
    for (std::size_t k = 0; k < traced.size(); ++k)
      same = same && static_cast<double>(traced[k].rounds) == four.rounds[i][k];
  }
  check(same, "instrumented trial loop rounds equal measure_stabilization's");
}

void seed_checks() {
  ScaleConfig a;
  a.n = 20000;
  a.seed = 1;
  ScaleConfig b = a;
  b.seed = 2;
  auto input_hash = [](const ScaleConfig& c) {
    Graph g;
    std::unique_ptr<ssmis::Process> p;
    run_scale_rep(c, nullptr, -1, g, p);
    return sweep_rows(g).hash;
  };
  check(input_hash(a) == input_hash(a), "same seed repeats the scale input");
  check(input_hash(a) != input_hash(b), "different seed changes the scale input");
  const SweepGraphs s1 = make_sweep_graphs(default_sweep(1));
  const SweepGraphs s1b = make_sweep_graphs(default_sweep(1));
  const SweepGraphs s2 = make_sweep_graphs(default_sweep(2));
  check(sweep_rows(s1.sparse).hash == sweep_rows(s1b.sparse).hash &&
            sweep_rows(s1.dense).hash == sweep_rows(s1b.dense).hash,
        "same seed repeats the sweep inputs");
  check(sweep_rows(s1.sparse).hash != sweep_rows(s2.sparse).hash &&
            sweep_rows(s1.dense).hash != sweep_rows(s2.dense).hash,
        "different seed changes the sweep inputs");
  check(cell_config(default_sweep(1), 0, 4, true).seed !=
            cell_config(default_sweep(2), 0, 4, true).seed,
        "different seed changes the sweep trial seeds");
}

void tracer_checks() {
  Tracer t;
  const Clock::time_point t0 = Clock::now();
  auto at = [&](int ms) { return t0 + std::chrono::milliseconds(ms); };
  const int root = t.record("harness.batch", -1, -1, at(0), at(10));
  t.record("core.run", root, 1, at(2), at(5));
  t.record("core.run", root, 2, at(4), at(8));  // overlaps its sibling
  double harness = -1.0, core = -1.0;
  for (const auto& [layer, secs] : t.self_seconds()) {
    if (layer == "harness") harness = secs;
    if (layer == "core") core = secs;
  }
  check(std::abs(harness - 0.004) < 1e-9, "self time subtracts the union of children");
  check(std::abs(core - 0.007) < 1e-9, "self time of leaf spans is their duration");
}

}  // namespace

int main(int argc, char** argv) {
  const std::string workdir = argc > 1 ? argv[1] : ".";
  std::filesystem::create_directories(workdir);
  scale_checks(workdir);
  sweep_checks();
  seed_checks();
  tracer_checks();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
