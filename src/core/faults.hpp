// Transient-fault injection.
//
// Self-stabilization (Dijkstra 1974) means convergence from *any* state, so
// a transient fault — an adversary rewriting a subset of vertex states — is
// survived by construction: the post-fault configuration is just another
// initial state. The injector makes this concrete for experiments E14 and
// the fault-recovery example: it corrupts a random fraction of vertices to
// uniformly random states (colors, and switch levels for the 3-color
// process), deterministically per (fraction, salt).
#pragma once

#include <cstdint>

#include "core/process.hpp"

namespace ssmis {

struct FaultReport {
  Vertex corrupted = 0;  // number of vertices rewritten
};

// Injection for any registry protocol: corrupts each vertex independently
// w.p. `fraction` through Process::inject_fault (which covers the full
// per-vertex state, switch levels included). Deterministic per
// (fraction, salt); `salt` decorrelates successive injections.
FaultReport inject_faults(Process& process, double fraction, std::int64_t salt);

}  // namespace ssmis
