// Side-by-side comparison of all MIS algorithms in the library on a graph
// chosen from the command line — a tour of the public API: every registered
// protocol (the paper's processes, their variants, the daemon and matching
// processes, the beeping and stone-age networks) through the one Process
// interface, then the non-self-stabilizing baselines. Exits nonzero if any
// run does not stabilize or its output fails its validity check (MIS, or
// maximal matching for `matching`).
//
//   ./model_compare [--graph=gnp|clique|tree|grid|geometric] [--n=256]
//                   [--p=0.05] [--seed=9]
#include <cmath>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "core/init.hpp"
#include "core/luby.hpp"
#include "core/process.hpp"
#include "core/sequential.hpp"
#include "core/verify.hpp"
#include "graph/generators.hpp"
#include "harness/registry.hpp"
#include "support/cli.hpp"
#include "support/table.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const std::string kind = args.get_string("graph", "gnp");
  const Vertex n = static_cast<Vertex>(args.get_int("n", 256));
  const double p = args.get_double("p", 0.05);
  const std::uint64_t seed = static_cast<std::uint64_t>(args.get_int("seed", 9));

  Graph g;
  if (kind == "gnp") g = gen::gnp(n, p, seed);
  else if (kind == "clique") g = gen::complete(n);
  else if (kind == "tree") g = gen::random_tree(n, seed);
  else if (kind == "grid") g = gen::grid(static_cast<Vertex>(std::max(1.0, std::sqrt(n))),
                                         static_cast<Vertex>(std::max(1.0, std::sqrt(n))));
  else if (kind == "geometric") g = gen::random_geometric(n, p > 0 ? p : 0.08, seed);
  else {
    std::cerr << "unknown --graph " << kind
              << " (use gnp|clique|tree|grid|geometric)\n";
    return 2;
  }
  std::cout << "graph: " << g.summary() << "\n\n";
  const CoinOracle coins(seed + 1);

  TextTable table({"algorithm", "self-stabilizing", "rounds/moves", "output size",
                   "valid"});
  bool all_ok = true;
  auto add = [&](const std::string& name, const std::string& self_stab,
                 const std::string& rounds, std::size_t size, bool valid) {
    table.add_row({name, self_stab, rounds, std::to_string(size),
                   valid ? "yes" : "NO"});
    all_ok = all_ok && valid;
  };

  const ProtocolRegistry& registry = ProtocolRegistry::instance();
  for (const std::string& name : registry.names()) {
    const auto proc = registry.make(name, g, ProtocolParams(), seed + 1);
    const RunResult r = proc->run(2000000, TraceMode::kNone);
    bool valid = r.stabilized;
    try {
      if (valid) proc->verify_output();
    } catch (const std::logic_error&) {
      valid = false;
    }
    add(name, "yes", r.stabilized ? std::to_string(r.rounds) : "timeout",
        proc->output_set().size(), valid);
  }
  {
    LubyMIS luby(g, coins);
    const auto rounds = luby.run(100000);
    add("Luby 1986 (baseline)", "no", std::to_string(rounds), luby.mis_set().size(),
        is_mis(g, luby.mis_set()));
  }
  {
    SequentialMIS seq(g, make_init2(g, InitPattern::kUniformRandom, coins));
    RandomScheduler sched(seed + 2);
    const auto result = seq.run(sched, 4 * g.num_vertices() + 8);
    add("sequential daemon (SRR95)", "yes",
        std::to_string(result.total_moves) + " moves", seq.black_set().size(),
        is_mis(g, seq.black_set()));
  }
  {
    const auto mis = greedy_mis(g);
    add("greedy (centralized ref)", "-", "-", mis.size(), is_mis(g, mis));
  }
  table.print(std::cout);
  return all_ok ? 0 : 1;
}
