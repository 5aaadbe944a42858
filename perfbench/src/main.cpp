// perfbench — the gridmutex benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --lockd PATH [--out-dir DIR]
//
// Workloads: paper_grid, lossy_grid, lock_service, lockd_loopback
// (see perfbench/NOTES.md). The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes the run's spans as Chrome trace-event JSON into --out-dir.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: perfbench --workload "
               "paper_grid|lossy_grid|lock_service|lockd_loopback\n"
               "                 --seed N --seconds S --trace 0|1 "
               "--lockd PATH [--out-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") ctx.workload = val;
    else if (key == "--seed") ctx.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") ctx.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") ctx.trace = val == "1";
    else if (key == "--lockd") ctx.lockd_path = val;
    else if (key == "--out-dir") ctx.out_dir = val;
    else return usage();
  }
  const bool lockd = ctx.workload == "lockd_loopback";
  if ((!lockd && !is_sim_workload(ctx.workload)) || ctx.seconds <= 0.0 ||
      ctx.lockd_path.empty())
    return usage();

  ctx.tracer = Tracer(ctx.trace);
  if (ctx.trace) declare_layer_metrics(ctx);
  try {
    if (lockd) {
      run_lockd_workload(ctx);
    } else {
      run_sim_workload(ctx);
    }
  } catch (const std::exception& e) {
    ctx.fail(1, std::string("exception: ") + e.what());
  }
  if (ctx.attempted == 0) ctx.fail(1, "no operation attempted");

  if (ctx.trace && !ctx.out_dir.empty()) {
    const std::string path = ctx.out_dir + "/trace-" + ctx.workload + "-" +
                             std::to_string(ctx.seed) + ".json";
    if (ctx.tracer.write_chrome_json(path)) {
      std::cerr << "perfbench: spans written to " << path << "\n";
    } else {
      std::cerr << "perfbench: could not write " << path << "\n";
    }
  }
  std::cerr << "perfbench: " << ctx.workload << " seed " << ctx.seed
            << (ctx.trace ? " (traced)" : "") << "\n"
            << ctx.metrics.table();
  std::cout << "{\"correct\": " << (ctx.correct ? "true" : "false")
            << ", \"attempted\": " << ctx.attempted
            << ", \"failed\": " << ctx.failed
            << ", \"metrics\": " << ctx.metrics.json() << "}" << std::endl;
  return 0;
}
