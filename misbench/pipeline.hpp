// The benchmark's workloads, driven from outside the library through its
// public entry points only: gen::gnp / gen::gnp_compressed, io::save_ssg /
// io::mmap_ssg / Graph::operator==, ProtocolRegistry::make, Process, and
// measure_stabilization / TrialBatch. Nothing here reaches into src/
// internals, so the benchmark measures exactly what a caller pays.
//
// Every function is deterministic in its seeds: the same seed gives the same
// graphs, the same trajectories and the same fingerprints, at any shard or
// thread count. Wall-clock timings are the only nondeterministic outputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/process.hpp"
#include "graph/graph.hpp"
#include "harness/experiment.hpp"

namespace misbench {

using ssmis::Graph;
using ssmis::Vertex;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

// Seed stream: sub-seed `k` of the workload seed. Inputs (graphs) and
// protocol coins draw from disjoint sub-seeds.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k);

// ------------------------------------------------------------------ spans ---
// In-memory span log of a traced run: name, start, end, parent span, and the
// trial id every span of one trial shares. Layers are the name's prefix up to
// the first '.', so "graph.generate" is graph-layer time.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t trial = -1;
  double start_s = 0.0;  // seconds since the tracer's epoch
  double end_s = 0.0;
};

class Tracer {
 public:
  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span and returns its id.
  int begin(const std::string& name, int parent, std::int64_t trial);
  void end(int id);
  // Records an already-measured interval (used where the clock readings are
  // taken anyway, e.g. per step).
  int record(const std::string& name, int parent, std::int64_t trial,
             Clock::time_point start, Clock::time_point end);

  // Σ over spans of layer L of (duration − the part of it covered by the
  // span's own children), per layer.
  std::vector<std::pair<std::string, double>> self_seconds() const;
  // JSON lines, one span each.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans() const;

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// RAII span; a null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent, std::int64_t trial)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent, trial) : -1) {}
  ~ScopedSpan() {
    if (tracer_) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ---------------------------------------------------------- fingerprints ---
struct Fingerprint {
  std::int64_t rounds = 0;
  std::int64_t output_size = 0;
  std::uint64_t output_hash = 0;
  bool operator==(const Fingerprint&) const = default;
};

Fingerprint fingerprint_of(std::int64_t rounds, const std::vector<Vertex>& output);
std::string to_string(const Fingerprint& fp);

// Storage-independent hash of the graph's rows (one RowStream pass); also the
// graph layer's sequential-sweep probe.
struct SweepProbe {
  std::uint64_t hash = 0;
  std::int64_t endpoints = 0;
  double seconds = 0.0;
};
SweepProbe sweep_rows(const Graph& g);

// for_each_neighbor over every row in a seeded random order.
struct SeekProbe {
  std::int64_t endpoints = 0;
  double seconds = 0.0;
};
SeekProbe seek_rows(const Graph& g, std::uint64_t seed);

// Round horizon of every run; reaching it counts as a failure.
inline constexpr std::int64_t kMaxRounds = 1000000;

// ---------------------------------------------------------------- scale ---
inline constexpr char kScaleProtocol[] = "2state";
inline constexpr double kScaleAvgDegree = 8.0;

struct ScaleConfig {
  bool compressed = false;
  Vertex n = 2000000;
  std::uint64_t seed = 1;
  int shards = 4;
  std::string ssg_path;  // plain storage only: the save/mmap round trip
};

std::uint64_t scale_graph_seed(const ScaleConfig& c);
std::uint64_t scale_process_seed(const ScaleConfig& c);

struct ScaleRep {
  int attempted = 0;
  int failed = 0;
  std::string error;
  double total_s = 0.0;  // start to verified MIS
  double setup_s = 0.0;  // everything before round 1
  double generate_s = 0.0, save_s = 0.0, mmap_s = 0.0, compare_s = 0.0;
  double construct_s = 0.0, stabilize_s = 0.0, verify_s = 0.0;
  std::int64_t num_edges = 0;
  std::int64_t graph_bytes = 0;  // io::ssg_file_bytes of the stepped graph
  Fingerprint fp;
  // Traced reps only (stepped one round at a time).
  std::vector<double> step_s;
  std::int64_t active_total = 0;  // Σ |A_t| over the rounds stepped
};

// One pass of the scale pipeline: generate → [save → mmap → compare] →
// registry make → run at `shards` shards → verify_output. With a tracer the
// run is stepped round by round (same trajectory) and spans are recorded.
// The stepped graph and the stabilized process are left in `g` and `process`
// for post-run probes; the process points into `g`, so the caller declares
// `g` first.
ScaleRep run_scale_rep(const ScaleConfig& c, Tracer* tracer, int parent, Graph& g,
                       std::unique_ptr<ssmis::Process>& process);

// Mean ns per step() of an already-stabilized process over `steps` steps.
double stable_step_ns(ssmis::Process& p, int steps);

// ---------------------------------------------------------------- sweep ---
// The grid's graphs: sparse G(2^14, ln n / n) and dense G(2^11, 1/4).
inline constexpr Vertex kSweepSparseN = 1 << 14;
inline constexpr Vertex kSweepDenseN = 1 << 11;
inline constexpr double kSweepDenseP = 0.25;

struct SweepCell {
  std::string protocol;
  bool dense = false;
  int trials = 0;
};

struct SweepConfig {
  std::uint64_t seed = 1;
  std::vector<SweepCell> cells;
};

SweepConfig default_sweep(std::uint64_t seed);
int total_trials(const SweepConfig& c);

struct SweepGraphs {
  Graph sparse;
  Graph dense;
  const Graph& of(const SweepCell& cell) const { return cell.dense ? dense : sparse; }
};
SweepGraphs make_sweep_graphs(const SweepConfig& c);

ssmis::MeasureConfig cell_config(const SweepConfig& c, std::size_t cell, int threads,
                                 bool batch);

struct SweepPass {
  int attempted = 0;
  int failed = 0;
  std::string error;
  double total_s = 0.0;      // graphs + every cell, all trials verified
  double setup_s = 0.0;      // graph generation
  double stabilize_s = 0.0;  // the measure_stabilization calls
  std::vector<double> cell_s;               // per cell wall time
  std::vector<std::vector<double>> rounds;  // per cell, per trial
};

// One grid pass through measure_stabilization at `threads` threads
// (batched trials, or sharded engine stepping when !batch).
SweepPass run_sweep_pass(const SweepConfig& c, int threads, bool batch);
// The same grid over pre-built graphs (no setup).
SweepPass run_sweep_cells(const SweepConfig& c, const SweepGraphs& graphs, int threads,
                          bool batch);

// The per-trial body of measure_stabilization, instrumented from outside:
// registry make → step loop (each step timed when `time_steps`) → verify.
struct TrialRecord {
  bool failed = false;  // horizon hit or verify_output threw
  std::int64_t rounds = 0;
  std::int64_t active_total = 0;
  Fingerprint fp;
  double make_s = 0.0, run_s = 0.0, verify_s = 0.0, total_s = 0.0;
  std::vector<double> step_s;
};

std::vector<TrialRecord> traced_trials(const Graph& g, const ssmis::MeasureConfig& config,
                                       Tracer* tracer, int parent,
                                       std::int64_t trial_id_base, bool time_steps);

}  // namespace misbench
