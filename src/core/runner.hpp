// Trace rendering for RunResult (the stabilization loop itself is
// Process::run, core/process.hpp).
#pragma once

#include <string>

#include "core/trace.hpp"

namespace ssmis {

// CSV rendering of a trace ("round,black,active,stable_black,unstable,gray").
std::string trace_to_csv(const RunResult& result);

}  // namespace ssmis
