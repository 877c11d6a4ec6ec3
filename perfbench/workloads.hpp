// The benchmark's four workloads. Each runs its set-up several times,
// measures for opts.seconds in all, checks the program's outputs, and fills
// `out` with end-to-end metrics (opts.trace false) or per-layer metrics
// (opts.trace true). Metric names are listed in main.cpp.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Set-ups per run; setup_s is their median. The TCP workloads measure
/// each set-up for an equal share of the run.
inline constexpr int setups_per_run = 5;

void run_tcp_fastpath(const options& opts, result& out);
void run_tcp_handoff(const options& opts, result& out);
void run_cluster3_commit(const options& opts, result& out);
void run_sim_election(const options& opts, result& out);

}  // namespace perfbench
