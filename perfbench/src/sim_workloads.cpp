// Simulated workloads: paper_grid, lossy_grid and lock_service.
//
// Each run goes through the library's public entry points
// (run_experiment / run_service_experiment) at the sequential kernel, one
// simulation at a time. A run has two phases:
//
//   setup   the same public call with an empty workload, repeated; its
//           median (reference-normalised) is setup_s, and its raw median
//           is subtracted from every full run to get steady-state time;
//   steady  full runs of the seed's workload, back to back until the
//           time budget is spent, each bracketed by reference-loop slices.
//
// Every full run re-runs the same seed, so its exact metrics must repeat
// bit for bit; a run that differs, stalls, leaves a CS unfinished or
// reports a safety violation counts its operations as failed.
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <memory>

#include "gridmutex/core/composition.hpp"
#include "gridmutex/fault/failover.hpp"
#include "gridmutex/fault/injector.hpp"
#include "gridmutex/service/experiment.hpp"
#include "gridmutex/workload/experiment.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gmx::ExperimentConfig;
using gmx::ExperimentResult;
using gmx::ServiceConfig;
using gmx::SimDuration;

constexpr std::uint32_t kClusters = 9;
constexpr std::uint32_t kApps = 20;  // per cluster: N = 180 processes

// Work per full run, sized so one run takes a few hundred milliseconds on
// a contemporary core: long against timer resolution and short enough
// for a dozen runs per measurement window.
constexpr int kPaperCsPerProcess = 200;
constexpr int kLossyCsPerProcess = 150;
constexpr double kServiceRate = 100.0;  // arrivals per simulated second
constexpr double kServiceWindowSec = 600.0;
// lock_service must run below the hottest lock's saturation: a run over a
// quarter of the window must see the same mean obtaining time, within
// this relative tolerance (a saturated lock's queue, and with it the mean,
// grows with the window).
constexpr double kSaturationTolerance = 0.05;

constexpr int kSetupRounds = 9;
constexpr double kSetupRoundSec = 0.05;
constexpr int kMinFullRuns = 3;

ExperimentConfig paper_grid_config(std::uint64_t seed, bool empty) {
  ExperimentConfig cfg;
  cfg.mode = ExperimentConfig::Mode::kComposition;
  cfg.intra = "suzuki";
  cfg.inter = "naimi";
  cfg.clusters = kClusters;
  cfg.apps_per_cluster = kApps;
  cfg.latency = gmx::LatencySpec::grid5000();
  cfg.workload.alpha = SimDuration::ms(10);
  cfg.workload.rho = 2.0 * kClusters * kApps;  // rho = 2N
  cfg.workload.cs_count = empty ? 0 : kPaperCsPerProcess;
  cfg.seed = seed;
  return cfg;
}

ExperimentConfig lossy_grid_config(std::uint64_t seed, bool empty) {
  ExperimentConfig cfg = paper_grid_config(seed, empty);
  cfg.intra = "naimi";
  cfg.inter = "naimi";
  cfg.workload.cs_count = empty ? 0 : kLossyCsPerProcess;
  cfg.faults.enabled = true;
  cfg.faults.recovery = true;  // ARQ + token recovery + coordinator failover
  for (gmx::ClusterId a = 0; a < kClusters; ++a)
    for (gmx::ClusterId b = a + 1; b < kClusters; ++b)
      cfg.faults.plan.lossy_link(a, b, 0.02, gmx::SimTime::zero());
  return cfg;
}

ServiceConfig lock_service_config(std::uint64_t seed, bool empty,
                                  double window_sec = kServiceWindowSec) {
  ServiceConfig cfg;
  cfg.locks = 16;
  cfg.intra = "naimi";
  cfg.inter = "naimi";
  cfg.batching = true;
  cfg.resilience.leases = true;
  cfg.clusters = kClusters;
  cfg.apps_per_cluster = kApps;
  cfg.latency = gmx::LatencySpec::grid5000();
  cfg.open_loop.arrivals_per_sec = kServiceRate;
  cfg.open_loop.window =
      empty ? SimDuration::ns(0) : SimDuration::sec_f(window_sec);
  cfg.open_loop.zipf_s = 0.9;
  cfg.open_loop.hold = SimDuration::ms(10);
  cfg.seed = seed;
  return cfg;
}

struct Spec {
  std::function<ExperimentResult(bool empty)> run;
  bool service = false;
};

/// The experiment seed: distinct per workload, a pure function of --seed.
std::uint64_t workload_seed(const std::string& name, std::uint64_t seed) {
  return seed * 1000 + (name == "paper_grid" ? 1 : name == "lossy_grid" ? 2 : 3);
}

Spec make_spec(const std::string& name, std::uint64_t seed) {
  const std::uint64_t s = workload_seed(name, seed);
  if (name == "paper_grid") {
    return {[s](bool e) { return gmx::run_experiment(paper_grid_config(s, e)); },
            false};
  }
  if (name == "lossy_grid") {
    return {[s](bool e) { return gmx::run_experiment(lossy_grid_config(s, e)); },
            false};
  }
  return {[s](bool e) {
            return gmx::run_service_experiment(lock_service_config(s, e));
          },
          true};
}

/// The metrics that must repeat bit for bit when a seed is re-run.
struct Exact {
  std::uint64_t total_cs = 0;
  std::uint64_t events = 0;
  gmx::MessageCounters messages;
  double obtain_mean_ms = 0.0;
  double obtain_p99_ms = 0.0;
  std::uint64_t inter_acquisitions = 0;
  std::uint64_t batched = 0;

  explicit Exact(const ExperimentResult& r)
      : total_cs(r.total_cs),
        events(r.events),
        messages(r.messages),
        obtain_mean_ms(r.obtaining.mean_ms()),
        obtain_p99_ms(r.obtaining_hist.percentile(0.99)),
        inter_acquisitions(r.inter_acquisitions),
        batched(r.batched_messages) {}
  bool operator==(const Exact&) const = default;
};

/// Operations a full run attempted, and how many of them failed.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Ops count_ops(const ExperimentResult& r, const Spec& spec,
              const std::string& name) {
  Ops ops;
  if (spec.service) {
    for (const gmx::LockMetrics& l : r.per_lock) ops.attempted += l.arrivals;
    // A shed or missed arrival never completes, so it is also among the
    // unfinished ones: take the larger count, not the sum.
    const std::uint64_t unfinished =
        ops.attempted > r.total_cs ? ops.attempted - r.total_cs : 0;
    ops.failed = std::max(r.sheds + r.deadline_misses + r.cs_interrupted,
                          unfinished);
  } else {
    const int per = name == "paper_grid" ? kPaperCsPerProcess
                                         : kLossyCsPerProcess;
    ops.attempted = std::uint64_t(per) * kClusters * kApps;
    ops.failed = ops.attempted > r.total_cs ? ops.attempted - r.total_cs : 0;
  }
  if (r.stalled || r.safety_violations != 0) ops.failed = ops.attempted;
  return ops;
}

double per_cs(double v, std::uint64_t cs) {
  return cs == 0 ? 0.0 : v / double(cs);
}

/// Traced only: builds the world piece by piece through the same public
/// constructors the entry points use, so the trace shows where setup time
/// goes. Nothing is run; the pieces are torn down again.
void trace_setup_phases(Context& ctx, const std::string& name,
                        std::uint64_t seed) {
  Tracer& tr = ctx.tracer;
  Tracer::Scope all(tr, "setup.breakdown");
  const bool service = name == "lock_service";
  const ExperimentConfig ecfg = name == "lossy_grid"
                                    ? lossy_grid_config(seed, false)
                                    : paper_grid_config(seed, false);
  const ServiceConfig scfg = lock_service_config(seed, false);

  std::unique_ptr<gmx::Topology> topo;
  std::shared_ptr<const gmx::LatencyModel> latency;
  {
    Tracer::Scope s(tr, "setup.topology_latency");
    topo = std::make_unique<gmx::Topology>(
        gmx::Composition::make_topology(kClusters, kApps));
    latency = ecfg.latency.build(kClusters);
  }
  gmx::Simulator sim;
  gmx::Rng root(seed);
  std::unique_ptr<gmx::Network> net;
  {
    Tracer::Scope s(tr, "setup.network");
    net = std::make_unique<gmx::Network>(sim, *topo, latency, root.fork(1));
  }
  if (service) {
    std::unique_ptr<gmx::LockService> svc;
    {
      Tracer::Scope s(tr, "setup.service");
      svc = std::make_unique<gmx::LockService>(
          *net, gmx::LockServiceConfig{.locks = scfg.locks,
                                       .intra_algorithm = scfg.intra,
                                       .inter_algorithm = scfg.inter,
                                       .batching = scfg.batching,
                                       .seed = root.fork(2).next_u64(),
                                       .resilience = scfg.resilience});
      svc->start();
    }
    {
      Tracer::Scope s(tr, "setup.trace_materialise");
      const gmx::ZipfSampler zipf(scfg.locks, scfg.open_loop.zipf_s);
      gmx::Rng traffic = root.fork(3);
      const auto arrivals = gmx::materialize_open_loop(
          scfg.open_loop, svc->app_nodes(), zipf, traffic);
      if (arrivals.empty()) ctx.fail(0, "empty lock_service trace");
    }
    Tracer::Scope s(tr, "setup.teardown");
    svc.reset();
    net.reset();
    return;
  }
  std::unique_ptr<gmx::Composition> comp;
  {
    Tracer::Scope s(tr, "setup.composition");
    comp = std::make_unique<gmx::Composition>(
        *net, gmx::CompositionConfig{.intra_algorithm = ecfg.intra,
                                     .inter_algorithm = ecfg.inter,
                                     .initial_cluster = 0,
                                     .protocol_base = 1,
                                     .seed = root.fork(2).next_u64()});
    comp->start();
  }
  std::unique_ptr<gmx::FaultInjector> injector;
  std::unique_ptr<gmx::TokenRecoveryManager> recovery;
  std::unique_ptr<gmx::CoordinatorFailover> failover;
  if (ecfg.faults.enabled) {
    Tracer::Scope s(tr, "setup.faults");
    injector = std::make_unique<gmx::FaultInjector>(*net, ecfg.faults.plan);
    recovery = std::make_unique<gmx::TokenRecoveryManager>(
        *net, ecfg.faults.recovery_cfg);
    net->set_reliable(comp->inter_protocol());
    for (gmx::ClusterId c = 0; c < kClusters; ++c) {
      net->set_reliable(comp->intra_protocol(c));
      recovery->watch_instance("intra", comp->intra_protocol(c),
                               comp->intra_instance(c));
    }
    recovery->watch_instance("inter", comp->inter_protocol(),
                             comp->inter_instance());
    failover = std::make_unique<gmx::CoordinatorFailover>(*comp, *injector);
    injector->arm();
  }
  Tracer::Scope s(tr, "setup.teardown");
  failover.reset();
  recovery.reset();
  injector.reset();
  comp.reset();
  net.reset();
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "paper_grid" || name == "lossy_grid" ||
         name == "lock_service";
}

void run_sim_workload(Context& ctx) {
  const std::string& name = ctx.workload;
  const Spec spec = make_spec(name, ctx.seed);
  Tracer& tr = ctx.tracer;
  HostSpeed& host = ctx.host;
  const auto t_begin = Clock::now();

  if (ctx.trace) trace_setup_phases(ctx, name, workload_seed(name, ctx.seed));

  // --- setup: the public call with an empty workload --------------------
  {
    Tracer::Scope s(tr, "setup.warmup");
    (void)spec.run(true);
  }
  // Set-up is short, so it is sampled in rounds: each round times the
  // empty call back to back for a few tens of milliseconds, then runs one
  // reference slice.
  std::vector<double> setup_raw;
  std::vector<double> setup_norm;  // per round: median / factor
  double before = host.slice();
  const int rounds = ctx.trace ? 1 : kSetupRounds;
  for (int round = 0; round < rounds; ++round) {
    const auto round_start = Clock::now();
    std::vector<double> in_round;
    do {
      const int span = tr.begin("setup.public_call");
      const auto t0 = Clock::now();
      const ExperimentResult empty = spec.run(true);
      const double t = seconds_between(t0, Clock::now());
      tr.end(span);
      if (empty.total_cs != 0 || empty.stalled)
        ctx.fail(0, "empty workload completed critical sections");
      setup_raw.push_back(t);
      in_round.push_back(t);
    } while (!ctx.trace &&
             seconds_between(round_start, Clock::now()) < kSetupRoundSec);
    const double after = host.slice();
    setup_norm.push_back(median(in_round) /
                         HostSpeed::factor(before, after));
    before = after;
  }
  const double setup_raw_s = median(setup_raw);

  // --- steady state: full runs of the same seed --------------------------
  const auto deadline =
      t_begin + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(ctx.seconds));
  std::vector<double> rate_raw;
  std::vector<double> rate_norm;
  std::vector<double> cpu_ms_norm;
  std::unique_ptr<Exact> first;
  ExperimentResult res0;
  int runs = 0;
  while (runs < (ctx.trace ? 1 : kMinFullRuns) ||
         (!ctx.trace && Clock::now() < deadline)) {
    const int span = tr.begin("run." + name);
    const double cpu0 = self_cpu_seconds();
    const auto t0 = Clock::now();
    ExperimentResult r = spec.run(false);
    const double wall = seconds_between(t0, Clock::now());
    const double cpu = self_cpu_seconds() - cpu0;
    tr.end(span);
    const double after = host.slice();
    const double factor = HostSpeed::factor(before, after);
    before = after;
    ++runs;

    const int extract = tr.begin("extract");
    const Ops ops = count_ops(r, spec, name);
    ctx.attempted += ops.attempted;
    ctx.failed += ops.failed;
    const Exact exact(r);
    if (!first) {
      first = std::make_unique<Exact>(exact);
      res0 = r;
    } else if (!(exact == *first)) {
      ctx.fail(ops.attempted, "re-run of the seed changed an exact metric");
    }
    tr.end(extract);

    const double cs = double(std::max<std::uint64_t>(r.total_cs, 1));
    rate_raw.push_back(cs / std::max(wall - setup_raw_s, 1e-9));
    rate_norm.push_back(rate_raw.back() * factor);
    cpu_ms_norm.push_back(std::max(cpu - setup_raw_s, 1e-9) * 1e3 / cs /
                          factor);
  }

  if (spec.service && !ctx.trace) {
    Tracer::Scope s(tr, "check.saturation");
    const double quarter =
        gmx::run_service_experiment(
            lock_service_config(workload_seed(name, ctx.seed), false,
                                kServiceWindowSec / 4))
            .obtaining.mean_ms();
    const double full = res0.obtaining.mean_ms();
    if (std::abs(quarter - full) > kSaturationTolerance * full)
      ctx.fail(0, "mean obtaining time grows with the window: saturated");
  }

  Metrics& m = ctx.metrics;
  if (!ctx.trace) {
    m.set("cs_per_s", median(rate_norm), "CS/s");
    m.set("setup_s", median(setup_norm), "s");
    m.set("peak_rss_mb", self_peak_rss_mb(), "MiB");
    m.set("sim_obtain_mean_ms", res0.obtaining.mean_ms(), "ms");
    m.set("inter_msgs_per_cs", res0.inter_msgs_per_cs(), "msgs/CS");
    m.set("cpu_ms_per_cs", median(cpu_ms_norm), "ms");
    std::cerr << "perfbench: " << name << ": " << runs << " full runs of "
              << res0.total_cs << " CS at " << median(rate_raw)
              << " CS/s raw; " << setup_raw.size() << " set-ups, median "
              << setup_raw_s * 1e3 << " ms raw; reference loop "
              << host.median_mops() << " Mops\n";
    return;
  }

  const std::uint64_t cs = res0.total_cs;
  m.set("sim.events_per_cs", per_cs(double(res0.events), cs), "events/CS");
  m.set("net.msgs_per_cs", per_cs(double(res0.messages.sent), cs), "msgs/CS");
  m.set("net.bytes_per_cs", per_cs(double(res0.messages.bytes_total), cs),
        "B/CS");
  m.set("core.inter_acquisitions_per_cs",
        per_cs(double(res0.inter_acquisitions), cs), "acq/CS");
  m.set("service.batched_share",
        res0.messages.sent == 0
            ? 0.0
            : double(res0.batched_messages) / double(res0.messages.sent),
        "ratio");
  m.set("fault.retransmits_per_cs",
        per_cs(double(res0.messages.retransmitted), cs), "msgs/CS");
  m.set("fault.token_regenerations", double(res0.token_regenerations),
        "count");
  m.set("fault.recovery_latency_ms", res0.recovery_latency.mean_ms(), "ms");
  m.set("host.cs_per_s_raw", median(rate_raw), "CS/s");

  LayerInputs in;
  in.ns_per_cs = 1e9 / median(rate_raw);
  in.events_per_cs = per_cs(double(res0.events), cs);
  in.msgs_per_cs = per_cs(double(res0.messages.sent), cs);
  in.inter_acquisitions_per_cs = per_cs(double(res0.inter_acquisitions), cs);
  in.service_layout = spec.service;
  in.reliable = name == "lossy_grid";
  in.suzuki_intra = name == "paper_grid";
  run_layer_stubs(ctx, in);
}

}  // namespace perfbench
