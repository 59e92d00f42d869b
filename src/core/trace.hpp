// Per-round measurement records shared by Process::run and the harness.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ssmis {

// One round of the paper's bookkeeping sets: B_t (black), A_t (active),
// I_t (stable black), V_t (not yet stable) and, for the 3-color process,
// Gamma_t (gray).
struct RoundStats {
  std::int64_t round = 0;
  Vertex black = 0;
  Vertex active = 0;
  Vertex stable_black = 0;
  Vertex unstable = 0;
  Vertex gray = 0;
};

enum class TraceMode { kNone, kPerRound };

struct RunResult {
  bool stabilized = false;
  std::int64_t rounds = 0;  // stabilization time, or the horizon if not stabilized
  std::vector<RoundStats> trace;  // empty unless tracing was requested
};

}  // namespace ssmis
