// The benchmark's workloads and per-layer stub drivers.
//
// Untraced runs set every end-to-end metric; traced runs (--trace 1) set
// every per-layer metric instead. Both count attempted and failed
// operations and run the output checks.
#pragma once

#include <string>

#include "common.hpp"

namespace perfbench {

/// paper_grid, lossy_grid and lock_service: simulated runs through
/// run_experiment / run_service_experiment.
[[nodiscard]] bool is_sim_workload(const std::string& name);
void run_sim_workload(Context& ctx);

/// lockd_loopback: real lockd daemons on localhost.
void run_lockd_workload(Context& ctx);

/// What a traced workload run measured, for the layer-share estimate.
struct LayerInputs {
  double ns_per_cs = 0.0;       // raw host time per CS of the workload
  double events_per_cs = 0.0;   // simulator events per CS
  double msgs_per_cs = 0.0;     // Network sends per CS
  double inter_acquisitions_per_cs = 0.0;
  bool service_layout = false;  // K = 16 protocol layout (lock_service)
  bool reliable = false;        // ARQ path (lossy_grid)
  bool suzuki_intra = false;    // paper_grid's intra algorithm
  bool lockd = false;           // real daemons: transport rows only
  double datagrams_per_cs = 0.0;  // lockd: UDP datagrams per grant
};

/// Declares every per-layer metric (zero until measured), so a traced run
/// of any workload prints the full set.
void declare_layer_metrics(Context& ctx);

/// Times each layer through a stub neighbour and prints the estimated
/// share of a CS per layer on stderr.
void run_layer_stubs(Context& ctx, const LayerInputs& in);

}  // namespace perfbench
