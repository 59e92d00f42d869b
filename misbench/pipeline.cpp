#include "pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>

#include "graph/generators.hpp"
#include "graph/ssg.hpp"
#include "harness/registry.hpp"
#include "harness/trial_batch.hpp"
#include "rng/splitmix64.hpp"
#include "support/hash.hpp"

namespace misbench {

using ssmis::Process;
using ssmis::ProtocolRegistry;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

double since(Clock::time_point a) { return seconds_between(a, Clock::now()); }

}  // namespace

std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return ssmis::splitmix64_mix(seed * 0x9e3779b97f4a7c15ULL + k + 1);
}

// ------------------------------------------------------------------ spans ---

int Tracer::begin(const std::string& name, int parent, std::int64_t trial) {
  const double t = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, parent, trial, t, t});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  const double t = seconds_between(epoch_, Clock::now());
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<std::size_t>(id)].end_s = t;
}

int Tracer::record(const std::string& name, int parent, std::int64_t trial,
                   Clock::time_point start, Clock::time_point end) {
  Span s{name, parent, trial, seconds_between(epoch_, start), seconds_between(epoch_, end)};
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::vector<std::pair<std::string, double>> Tracer::self_seconds() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  }
  std::map<std::string, double> by_layer;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    // Children of a batch span run concurrently: subtract the union of
    // their intervals (clipped to the parent), not their sum.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0, run_start = 0.0, run_end = -1.0;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start_s);
      b = std::min(b, s.end_s);
      if (b <= a) continue;
      if (a > run_end) {
        if (run_end > run_start) covered += run_end - run_start;
        run_start = a;
        run_end = b;
      } else {
        run_end = std::max(run_end, b);
      }
    }
    if (run_end > run_start) covered += run_end - run_start;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    by_layer[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return {by_layer.begin(), by_layer.end()};
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  const std::vector<Span> all = spans();
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof(line),
                  "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"trial\": %lld, "
                  "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                  i, s.name.c_str(), s.parent, static_cast<long long>(s.trial), s.start_s,
                  s.end_s);
    out << line;
  }
}

// ---------------------------------------------------------- fingerprints ---

Fingerprint fingerprint_of(std::int64_t rounds, const std::vector<Vertex>& output) {
  Fingerprint fp;
  fp.rounds = rounds;
  fp.output_size = static_cast<std::int64_t>(output.size());
  fp.output_hash = ssmis::fnv1a(ssmis::kFnv1aBasis, output.data(),
                                output.size() * sizeof(Vertex));
  return fp;
}

std::string to_string(const Fingerprint& fp) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "rounds=%lld output_size=%lld output_hash=%016llx",
                static_cast<long long>(fp.rounds), static_cast<long long>(fp.output_size),
                static_cast<unsigned long long>(fp.output_hash));
  return buf;
}

SweepProbe sweep_rows(const Graph& g) {
  SweepProbe probe;
  std::uint64_t h = ssmis::kFnv1aBasis;
  ssmis::NeighborScratch scratch;
  const auto start = Clock::now();
  Graph::RowStream rows(g);
  for (Vertex u = 0; u < g.num_vertices(); ++u) {
    const auto row = rows.next(scratch);
    h = (h ^ static_cast<std::uint64_t>(row.size())) * ssmis::kFnv1aPrime;
    for (const Vertex v : row) h = (h ^ static_cast<std::uint32_t>(v)) * ssmis::kFnv1aPrime;
    probe.endpoints += static_cast<std::int64_t>(row.size());
  }
  probe.seconds = since(start);
  probe.hash = h;
  return probe;
}

SeekProbe seek_rows(const Graph& g, std::uint64_t seed) {
  std::vector<Vertex> order(static_cast<std::size_t>(g.num_vertices()));
  std::iota(order.begin(), order.end(), 0);
  ssmis::SplitMix64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.next() % i]);
  SeekProbe probe;
  std::int64_t sum = 0;
  const auto start = Clock::now();
  for (const Vertex u : order) {
    g.for_each_neighbor(u, [&](Vertex v) {
      sum += v;
      ++probe.endpoints;
    });
  }
  probe.seconds = since(start);
  // Keeps the decode loop observable to the optimizer.
  if (sum < 0) throw std::logic_error("negative vertex id");
  return probe;
}

// ---------------------------------------------------------------- scale ---

std::uint64_t scale_graph_seed(const ScaleConfig& c) { return sub_seed(c.seed, 1); }
std::uint64_t scale_process_seed(const ScaleConfig& c) { return sub_seed(c.seed, 2); }

ScaleRep run_scale_rep(const ScaleConfig& c, Tracer* tracer, int parent, Graph& g,
                       std::unique_ptr<Process>& process) {
  ScaleRep r;
  const ScopedSpan rep(tracer, "bench.scale_rep", parent, 0);
  const double p = c.n > 1 ? kScaleAvgDegree / static_cast<double>(c.n - 1) : 0.0;
  const auto t0 = Clock::now();
  {
    const ScopedSpan s(tracer, "graph.generate", rep.id(), 0);
    const auto a = Clock::now();
    g = c.compressed ? ssmis::gen::gnp_compressed(c.n, p, scale_graph_seed(c))
                     : ssmis::gen::gnp(c.n, p, scale_graph_seed(c));
    r.generate_s = since(a);
  }
  r.num_edges = g.num_edges();
  if (!c.ssg_path.empty()) {
    {
      const ScopedSpan s(tracer, "graph.save", rep.id(), 0);
      const auto a = Clock::now();
      ssmis::io::save_ssg(c.ssg_path, g);
      r.save_s = since(a);
    }
    Graph mapped;
    {
      const ScopedSpan s(tracer, "graph.mmap", rep.id(), 0);
      const auto a = Clock::now();
      mapped = ssmis::io::mmap_ssg(c.ssg_path);
      r.mmap_s = since(a);
    }
    bool same = false;
    {
      const ScopedSpan s(tracer, "graph.compare", rep.id(), 0);
      const auto a = Clock::now();
      same = mapped == g;
      r.compare_s = since(a);
    }
    ++r.attempted;
    if (!same) {
      ++r.failed;
      r.error = "mapped graph != generated graph";
    }
    g = std::move(mapped);
  }
  {
    const ScopedSpan s(tracer, "core.construct", rep.id(), 0);
    const auto a = Clock::now();
    process = ProtocolRegistry::instance().make(
        kScaleProtocol, g, ssmis::with_init({}, ssmis::InitPattern::kUniformRandom),
        scale_process_seed(c));
    process->set_shards(c.shards);
    r.construct_s = since(a);
  }
  r.setup_s = since(t0);

  ++r.attempted;
  bool stabilized = false;
  std::int64_t rounds = 0;
  {
    const ScopedSpan run(tracer, "core.run", rep.id(), 0);
    const auto a = Clock::now();
    if (tracer == nullptr) {
      const ssmis::RunResult result = process->run(kMaxRounds, ssmis::TraceMode::kNone);
      stabilized = result.stabilized;
      rounds = result.rounds;
    } else {
      // Same loop as run_until_stabilized, one timed step() at a time.
      while (!process->stabilized() && rounds < kMaxRounds) {
        r.active_total += process->snapshot().active;
        const auto s0 = Clock::now();
        process->step();
        const auto s1 = Clock::now();
        tracer->record("core.step", run.id(), 0, s0, s1);
        r.step_s.push_back(seconds_between(s0, s1));
        ++rounds;
      }
      stabilized = process->stabilized();
    }
    r.stabilize_s = since(a);
  }
  if (!stabilized) {
    ++r.failed;
    r.error = "horizon hit before stabilization";
  } else {
    const ScopedSpan s(tracer, "core.verify", rep.id(), 0);
    const auto a = Clock::now();
    try {
      process->verify_output();
    } catch (const std::exception& e) {
      ++r.failed;
      r.error = e.what();
    }
    r.verify_s = since(a);
  }
  r.total_s = since(t0);
  r.fp = fingerprint_of(rounds, process->output_set());
  r.graph_bytes = ssmis::io::ssg_file_bytes(g);
  return r;
}

double stable_step_ns(Process& p, int steps) {
  const auto start = Clock::now();
  for (int i = 0; i < steps; ++i) p.step();
  return since(start) * 1e9 / static_cast<double>(steps);
}

// ---------------------------------------------------------------- sweep ---

SweepConfig default_sweep(std::uint64_t seed) {
  SweepConfig c;
  c.seed = seed;
  // Trial counts give each protocol a comparable share of the pass's wall
  // time at 4 threads (see README.md for the measured split).
  c.cells = {{"2state", false, 880}, {"2state", true, 160}, {"3state", false, 560},
             {"3state", true, 160},  {"3color", false, 8}};
  return c;
}

int total_trials(const SweepConfig& c) {
  int total = 0;
  for (const SweepCell& cell : c.cells) total += cell.trials;
  return total;
}

SweepGraphs make_sweep_graphs(const SweepConfig& c) {
  const double sparse_p =
      std::log(static_cast<double>(kSweepSparseN)) / static_cast<double>(kSweepSparseN);
  return {ssmis::gen::gnp(kSweepSparseN, sparse_p, sub_seed(c.seed, 3)),
          ssmis::gen::gnp(kSweepDenseN, kSweepDenseP, sub_seed(c.seed, 4))};
}

ssmis::MeasureConfig cell_config(const SweepConfig& c, std::size_t cell, int threads,
                                 bool batch) {
  ssmis::MeasureConfig m;
  m.protocol = c.cells[cell].protocol;
  m.init = ssmis::InitPattern::kUniformRandom;
  m.trials = c.cells[cell].trials;
  m.seed = sub_seed(c.seed, 100 + cell);
  m.max_rounds = kMaxRounds;
  m.threads = threads;
  m.batch = batch;
  return m;
}

SweepPass run_sweep_cells(const SweepConfig& c, const SweepGraphs& graphs, int threads,
                          bool batch) {
  SweepPass pass;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < c.cells.size(); ++i) {
    const ssmis::MeasureConfig m = cell_config(c, i, threads, batch);
    const auto cell_start = Clock::now();
    pass.attempted += m.trials;
    try {
      const ssmis::Measurements out =
          ssmis::measure_stabilization(graphs.of(c.cells[i]), m);
      pass.failed += out.timeouts;
      if (out.timeouts > 0) pass.error = m.protocol + ": trial hit the round horizon";
      pass.rounds.push_back(out.stabilization_rounds);
    } catch (const std::exception& e) {
      // measure_stabilization stops at the first invalid output; the cell's
      // trials all count as failed.
      pass.failed += m.trials;
      pass.error = m.protocol + ": " + e.what();
      pass.rounds.emplace_back();
    }
    pass.cell_s.push_back(since(cell_start));
  }
  pass.stabilize_s = since(start);
  return pass;
}

SweepPass run_sweep_pass(const SweepConfig& c, int threads, bool batch) {
  const auto start = Clock::now();
  const SweepGraphs graphs = make_sweep_graphs(c);
  const double setup_s = since(start);
  SweepPass pass = run_sweep_cells(c, graphs, threads, batch);
  pass.setup_s = setup_s;
  pass.total_s = since(start);
  return pass;
}

std::vector<TrialRecord> traced_trials(const Graph& g, const ssmis::MeasureConfig& config,
                                       Tracer* tracer, int parent,
                                       std::int64_t trial_id_base, bool time_steps) {
  const ssmis::TrialBatch batch(config.trials, config.batch ? config.threads : 1);
  const int shards = config.batch ? 1 : config.threads;
  return batch.map<TrialRecord>([&](int trial) {
    TrialRecord rec;
    const std::int64_t id = trial_id_base + trial;
    const ScopedSpan span(tracer, "harness.trial", parent, id);
    const auto t0 = Clock::now();
    std::unique_ptr<Process> process;
    {
      const ScopedSpan s(tracer, "core.construct", span.id(), id);
      process = ProtocolRegistry::instance().make(
          config.protocol, g, ssmis::with_init(config.params, config.init),
          ssmis::trial_seed(config, trial));
      process->set_shards(shards);
      rec.make_s = since(t0);
    }
    {
      const ScopedSpan s(tracer, "core.run", span.id(), id);
      const auto a = Clock::now();
      while (!process->stabilized() && rec.rounds < config.max_rounds) {
        rec.active_total += process->snapshot().active;
        if (time_steps) {
          const auto s0 = Clock::now();
          process->step();
          rec.step_s.push_back(since(s0));
        } else {
          process->step();
        }
        ++rec.rounds;
      }
      rec.failed = !process->stabilized();
      rec.run_s = since(a);
    }
    if (!rec.failed) {
      const ScopedSpan s(tracer, "core.verify", span.id(), id);
      const auto a = Clock::now();
      try {
        process->verify_output();
      } catch (const std::exception&) {
        rec.failed = true;
      }
      rec.verify_s = since(a);
    }
    rec.fp = fingerprint_of(rec.rounds, process->output_set());
    rec.total_s = since(t0);
    return rec;
  });
}

}  // namespace misbench
