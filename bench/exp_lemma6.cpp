// Experiment E11 (Lemmas 6 and 7): Monte-Carlo validation of the core
// progress lemmas.
//
// Lemma 6: if u is active with k active neighbors at the end of round t,
// then P[u is stable black at end of round t + ceil(log2(k+1))] >= 1/(2ek).
//
// Lemma 7: for active u_1..u_l with k_i active neighbors each,
// P[some u_i stable black after log2(max k_i + 1) rounds]
//   >= (1/5) min{1, sum_i 1/(2 k_i)}.
//
// Setup: K_{k+1} makes every vertex active with k active neighbors from the
// all-black start. We estimate the lemma probabilities empirically and
// report measured vs bound (measured must dominate).
#include <cmath>
#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "core/two_state.hpp"
#include "graph/generators.hpp"

using namespace ssmis;

int main(int argc, char** argv) {
  auto ctx = bench::init_experiment(
      argc, argv, "E11 (Lemmas 6, 7): progress-lemma constants",
      "k-active vertex stable black within log(k+1) rounds w.p. >= 1/(2ek)", 4000,
      bench::GraphFilePolicy::kLoad, "2state", bench::ProtocolPolicy::kFixed);

  const int trials = ctx.trials;

  print_banner(std::cout, "Lemma 6 on K_{k+1} (all-black start, vertex 0 tracked)");
  TextTable table({"k", "rounds", "measured P", "bound 1/(2ek)", "ratio"});
  for (Vertex k : {1, 2, 4, 8, 16, 32}) {
    const Graph g = ctx.cell_graph([&] { return gen::complete(k + 1); });
    const auto rounds = static_cast<std::int64_t>(std::ceil(std::log2(k + 1.0)));
    const auto hit = ctx.trial_batch(trials).map<char>([&](int trial) -> char {
      ProcessEngine<TwoStateRule> p(
          g, std::vector<Color2>(static_cast<std::size_t>(k) + 1, Color2::kBlack),
          TwoStateRule(CoinOracle(ctx.seed + static_cast<std::uint64_t>(trial))));
      for (std::int64_t r = 0; r < rounds; ++r) p.step();
      return p.stable_black(0) ? 1 : 0;
    });
    int hits = 0;
    for (char h : hit) hits += h;
    const double measured = static_cast<double>(hits) / trials;
    const double bound = 1.0 / (2.0 * std::exp(1.0) * k);
    table.begin_row();
    table.add_cell(static_cast<std::int64_t>(k));
    table.add_cell(rounds);
    table.add_cell(measured, 4);
    table.add_cell(bound, 4);
    table.add_cell(measured / bound);
  }
  table.print(std::cout);

  print_banner(std::cout, "Lemma 7 on K_{k+1} (any of the k+1 vertices stable black)");
  TextTable t7({"k (=l-1)", "rounds", "measured P", "bound (1/5)min{1,l/(2k)}", "ratio"});
  for (Vertex k : {1, 2, 4, 8, 16, 32}) {
    const Vertex l = k + 1;  // all clique vertices tracked
    const Graph g = ctx.cell_graph([&] { return gen::complete(l); });
    const auto rounds = static_cast<std::int64_t>(std::ceil(std::log2(k + 1.0)));
    const auto hit = ctx.trial_batch(trials).map<char>([&](int trial) -> char {
      ProcessEngine<TwoStateRule> p(
          g, std::vector<Color2>(static_cast<std::size_t>(l), Color2::kBlack),
          TwoStateRule(CoinOracle(ctx.seed + 777 + static_cast<std::uint64_t>(trial))));
      for (std::int64_t r = 0; r < rounds; ++r) p.step();
      return p.num_stable_black() > 0 ? 1 : 0;
    });
    int hits = 0;
    for (char h : hit) hits += h;
    const double measured = static_cast<double>(hits) / trials;
    const double bound =
        0.2 * std::min(1.0, static_cast<double>(l) / (2.0 * k));
    t7.begin_row();
    t7.add_cell(static_cast<std::int64_t>(k));
    t7.add_cell(rounds);
    t7.add_cell(measured, 4);
    t7.add_cell(bound, 4);
    t7.add_cell(measured / bound);
  }
  t7.print(std::cout);

  bench::finish_experiment("every measured probability dominates its bound (ratio >= 1)");
  return 0;
}
