// lockd_loopback: real lockd daemons on localhost.
//
// The benchmark spawns and reaps its own daemons — 2 clusters x 1 app,
// K = 4 locks, Naimi-Naimi: four processes — so RUSAGE_CHILDREN covers
// exactly them. Set-up (spawn until every daemon is pinged, peered and
// started) is repeated and the median reported; the last grid then serves
// one open-loop campaign.
//
// The campaign client is the benchmark's own code over UdpTransport,
// speaking lockd's CLIENT protocol: the main thread paces the Poisson/Zipf
// trace and posts each arrival to the transport loop at its due instant;
// every latency is measured from that due instant, so a late generator
// shows up in the latencies, and the lateness itself is reported
// (lockd.gen_lag_p99_ms). Output checks: fencing tokens strictly increase
// per lock, no lock is granted twice at once, the daemons' accounting
// closes (arrivals == grants + sheds + misses, releases == grants), the
// simulated twin of the trace repeats bit for bit, and the hot lock runs
// below saturation, in the twin and in the real campaign.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "gridmutex/service/experiment.hpp"
#include "gridmutex/transport/client.hpp"
#include "gridmutex/transport/node.hpp"
#include "gridmutex/transport/udp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gmx::Message;
using gmx::NodeId;
using gmx::transport::ClientMsg;
using gmx::transport::GridConfig;
using gmx::transport::LockClient;
using gmx::transport::PeerAddr;
using gmx::transport::UdpTransport;

// The traffic is the repository's own lockd campaign shape: xvalidate's
// defaults, the acceptance table in docs/TRANSPORT.md and the CI transport
// smoke all offer 150 arrivals/s with Zipf 0.9 popularity and a 5 ms hold.
constexpr double kRate = 150.0;        // arrivals per wall second
constexpr double kZipf = 0.9;
constexpr std::uint32_t kHoldMs = 5;   // CS hold time
// --seconds is split into at most kSetupBudgetSec of set-up cycles, the
// campaign window and kTailSec for the drain, stats, shutdown and twin.
// The window depends on --seconds alone, so the trace, and the daemons'
// fixed costs spread over its grants, are a function of the seed.
constexpr double kSetupBudgetSec = 3.0;
constexpr double kTailSec = 4.0;
constexpr int kMinSetupCycles = 5;
constexpr int kMaxSetupCycles = 15;
constexpr int kRefSlices = 10;  // reference slices before and after
constexpr double kTwinWindowSec = 300.0;  // simulated twin's arrival window
// Below-saturation checks. A saturated hot lock's queue, and with it the
// mean obtaining time, grows with the window. The twin must see the same
// mean over a quarter of its window, within kSaturationTolerance, as
// lock_service does. The real campaign's mean over its whole window may
// exceed the mean over its first quarter by at most kRealSaturationSlackMs:
// a backlog built over a window of seconds adds hundreds of ms, while
// wake-up jitter (up to ~25 ms on one CS) moves a mean over hundreds of
// grants by a few ms at most.
constexpr double kSaturationTolerance = 0.05;
constexpr double kRealSaturationSlackMs = 10.0;
constexpr std::uint32_t kRpcTimeoutMs = 5000;
constexpr std::uint32_t kRetryMs = 250;  // client retransmit period

GridConfig grid_config(std::uint64_t seed) {
  GridConfig g;
  g.clusters = 2;
  g.apps_per_cluster = 1;
  g.locks = 4;
  g.intra_algorithm = "naimi";
  g.inter_algorithm = "naimi";
  g.seed = seed * 1000 + 4;
  return g;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / double(v.size());
}

// --- daemons ----------------------------------------------------------------

struct Daemon {
  pid_t pid = -1;
  int out = -1;  // read end of its stdout pipe
};

/// A running grid of lockd processes.
class Grid {
 public:
  Grid(const std::string& lockd, GridConfig cfg) : cfg_(std::move(cfg)) {
    for (NodeId i = 0; i < cfg_.node_count(); ++i)
      daemons_.push_back(spawn(lockd, i));
  }
  /// Kills whatever shutdown() did not stop (error paths).
  ~Grid() {
    for (const Daemon& d : daemons_)
      if (d.pid > 0) kill(d.pid, SIGKILL);
    reap();
  }
  Grid(const Grid&) = delete;
  Grid& operator=(const Grid&) = delete;

  /// Reads every daemon's "lockd node=N port=P" line.
  bool read_ports() {
    for (const Daemon& d : daemons_) {
      std::string line;
      char ch = 0;
      while (read(d.out, &ch, 1) == 1 && ch != '\n') line.push_back(ch);
      const std::size_t at = line.rfind("port=");
      if (at == std::string::npos) return false;
      nodes_.push_back(PeerAddr::loopback(std::uint16_t(
          std::strtoul(line.c_str() + at + 5, nullptr, 10))));
    }
    return true;
  }

  [[nodiscard]] const std::vector<PeerAddr>& nodes() const { return nodes_; }
  [[nodiscard]] const GridConfig& config() const { return cfg_; }

  /// The largest resident-set high-water mark among the daemons, MiB; 0 if
  /// none could be read. Read from /proc/<pid>/status (VmHWM) rather than
  /// RUSAGE_CHILDREN: a child's ru_maxrss also counts the pages it
  /// inherited from this process at fork, which outweigh a daemon's own.
  [[nodiscard]] double peak_rss_mb() const {
    double kib = 0.0;
    for (const Daemon& d : daemons_) {
      std::ifstream status("/proc/" + std::to_string(d.pid) + "/status");
      std::string line;
      while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
          kib = std::max(kib, std::strtod(line.c_str() + 6, nullptr));
    }
    return kib / 1024.0;
  }

  /// Asks every daemon to exit, then waits for all of them (killing any
  /// that ignore the request).
  void shutdown() {
    if (!nodes_.empty()) {
      LockClient c(nodes_, cfg_.client_protocol());
      for (NodeId i = 0; i < nodes_.size(); ++i) (void)c.shutdown(i, 2000);
    }
    reap();
  }

 private:
  Daemon spawn(const std::string& lockd, NodeId node) const {
    const GridConfig& g = cfg_;
    int fds[2];
    if (pipe(fds) != 0) {
      std::perror("perfbench: pipe");
      std::exit(1);
    }
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("perfbench: fork");
      std::exit(1);
    }
    if (pid == 0) {
      dup2(fds[1], STDOUT_FILENO);
      close(fds[0]);
      close(fds[1]);
      const std::vector<std::string> args = {
          lockd,         "--node",   std::to_string(node),
          "--clusters",  std::to_string(g.clusters),
          "--apps",      std::to_string(g.apps_per_cluster),
          "--locks",     std::to_string(g.locks),
          "--intra",     g.intra_algorithm,
          "--inter",     g.inter_algorithm,
          "--seed",      std::to_string(g.seed),
          "--port",      "0",
      };
      std::vector<char*> argv;
      for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
      argv.push_back(nullptr);
      execv(lockd.c_str(), argv.data());
      std::perror("perfbench: execv lockd");
      _exit(127);
    }
    close(fds[1]);
    return Daemon{pid, fds[0]};
  }

  void reap() {
    for (Daemon& d : daemons_) {
      if (d.pid <= 0) continue;
      int status = 0;
      // Up to ~5 s for a clean exit, then SIGKILL.
      for (int i = 0; i < 500; ++i) {
        if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
          d.pid = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (d.pid > 0) {
        kill(d.pid, SIGKILL);
        waitpid(d.pid, &status, 0);
        d.pid = -1;
      }
      if (d.out >= 0) close(d.out);
      d.out = -1;
    }
  }

  GridConfig cfg_;
  std::vector<Daemon> daemons_;
  std::vector<PeerAddr> nodes_;
};

/// Spawn -> ports -> ping -> peers -> start. Returns nullptr on failure.
std::unique_ptr<Grid> bring_up(Context& ctx, const GridConfig& cfg) {
  Tracer& tr = ctx.tracer;
  std::unique_ptr<Grid> grid;
  {
    Tracer::Scope s(tr, "lockd.spawn");
    grid = std::make_unique<Grid>(ctx.lockd_path, cfg);
    if (!grid->read_ports()) return nullptr;
  }
  LockClient c(grid->nodes(), cfg.client_protocol());
  const auto n = NodeId(grid->nodes().size());
  {
    Tracer::Scope s(tr, "lockd.ping");
    for (NodeId i = 0; i < n; ++i)
      if (!c.ping(i, kRpcTimeoutMs)) return nullptr;
  }
  {
    Tracer::Scope s(tr, "lockd.peers");
    for (NodeId i = 0; i < n; ++i)
      if (!c.send_peers(i, kRpcTimeoutMs)) return nullptr;
  }
  {
    Tracer::Scope s(tr, "lockd.start");
    for (NodeId i = 0; i < n; ++i)
      if (!c.start(i, kRpcTimeoutMs)) return nullptr;
  }
  return grid;
}

// --- campaign client --------------------------------------------------------

struct CampaignResult {
  std::uint64_t grants = 0;
  std::uint64_t sheds = 0;
  std::uint64_t misses = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fence_violations = 0;
  std::uint64_t exclusion_violations = 0;
  std::uint64_t datagrams = 0;    // the client's own, sent and received
  std::vector<double> obtain_ms;  // due instant -> grant
  std::vector<double> first_quarter_obtain_ms;  // arrivals in window / 4
  std::vector<double> lag_ms;     // due instant -> dispatch
};

/// Loop-thread state of the campaign; only dispatch() and on_reply() are
/// entry points, both on the transport loop.
class Campaign {
 public:
  Campaign(UdpTransport& tp, const GridConfig& grid,
           std::vector<PeerAddr> nodes,
           std::vector<gmx::OpenLoopArrival> trace, double window_s)
      : tp_(tp),
        protocol_(grid.client_protocol()),
        nodes_(std::move(nodes)),
        trace_(std::move(trace)),
        reqs_(trace_.size()),
        last_fence_(grid.locks, 0),
        holding_(grid.locks, 0),
        first_quarter_ns_(std::int64_t(window_s * 1e9 / 4)),
        client_id_((std::uint64_t(getpid()) << 40) ^
                   std::uint64_t(Clock::now().time_since_epoch().count())) {}

  [[nodiscard]] const std::vector<gmx::OpenLoopArrival>& trace() const {
    return trace_;
  }
  [[nodiscard]] std::future<void> done() { return done_.get_future(); }

  void dispatch(std::size_t i, Clock::time_point due) {
    Req& r = reqs_[i];
    r.due = due;
    r.state = State::kAwaitGrant;
    res_.lag_ms.push_back(ms_between(due, Clock::now()));
    send(i, ClientMsg::kAcquire);
    arm_retry(i);
  }

  void on_reply(const Message& m) {
    ++res_.datagrams;
    gmx::wire::Reader rd(m.payload);
    const std::uint64_t id = rd.u64();
    if (id == 0 || id > reqs_.size()) return;
    const std::size_t i = std::size_t(id - 1);
    Req& r = reqs_[i];
    const gmx::LockId lock = trace_[i].lock;
    switch (ClientMsg(m.type)) {
      case ClientMsg::kGranted: {
        if (r.state != State::kAwaitGrant) return;  // duplicate reply
        tp_.cancel(r.retry);
        ++res_.grants;
        const double obtain = ms_between(r.due, Clock::now());
        res_.obtain_ms.push_back(obtain);
        if (trace_[i].at.count_ns() < first_quarter_ns_)
          res_.first_quarter_obtain_ms.push_back(obtain);
        (void)rd.varint();
        const std::uint64_t fence = rd.u64();
        if (fence <= last_fence_[lock]) ++res_.fence_violations;
        last_fence_[lock] = std::max(last_fence_[lock], fence);
        if (holding_[lock] != 0) ++res_.exclusion_violations;
        ++holding_[lock];
        r.state = State::kHolding;
        tp_.schedule_ms(kHoldMs, [this, i] { release(i); });
        return;
      }
      case ClientMsg::kShed:
      case ClientMsg::kExpired:
        if (r.state != State::kAwaitGrant) return;
        tp_.cancel(r.retry);
        ++(m.type == std::uint16_t(ClientMsg::kShed) ? res_.sheds
                                                    : res_.misses);
        complete(r);
        return;
      case ClientMsg::kReleased:
        if (r.state != State::kReleasing) return;
        tp_.cancel(r.retry);
        complete(r);
        return;
      default:
        return;
    }
  }

  /// Counts unfinished requests as timeouts; call after the loop stopped.
  CampaignResult finish() {
    for (const Req& r : reqs_)
      if (r.state != State::kDone) ++res_.timeouts;
    return std::move(res_);
  }

 private:
  enum class State : std::uint8_t {
    kPending,
    kAwaitGrant,
    kHolding,
    kReleasing,
    kDone
  };
  struct Req {
    State state = State::kPending;
    Clock::time_point due;
    UdpTransport::TimerToken retry = 0;
  };

  void send(std::size_t i, ClientMsg type) {
    const gmx::OpenLoopArrival& a = trace_[i];
    gmx::wire::Writer w;
    w.u64(client_id_);
    w.u64(std::uint64_t(i) + 1);
    w.varint(a.lock);
    if (type == ClientMsg::kAcquire) w.varint(0);  // no deadline
    Message m;
    m.dst = a.node;
    m.protocol = protocol_;
    m.type = std::uint16_t(type);
    m.payload = w.take();
    ++res_.datagrams;
    tp_.send_raw(nodes_[a.node], std::move(m));
  }

  void arm_retry(std::size_t i) {
    reqs_[i].retry = tp_.schedule_ms(kRetryMs, [this, i] {
      const State s = reqs_[i].state;
      if (s == State::kAwaitGrant) {
        send(i, ClientMsg::kAcquire);
      } else if (s == State::kReleasing) {
        send(i, ClientMsg::kRelease);
      } else {
        return;
      }
      arm_retry(i);
    });
  }

  void release(std::size_t i) {
    --holding_[trace_[i].lock];
    reqs_[i].state = State::kReleasing;
    send(i, ClientMsg::kRelease);
    arm_retry(i);
  }

  void complete(Req& r) {
    r.state = State::kDone;
    if (++completed_ == reqs_.size()) done_.set_value();
  }

  UdpTransport& tp_;
  gmx::ProtocolId protocol_;
  std::vector<PeerAddr> nodes_;
  std::vector<gmx::OpenLoopArrival> trace_;
  std::vector<Req> reqs_;
  std::vector<std::uint64_t> last_fence_;
  std::vector<std::uint32_t> holding_;
  std::int64_t first_quarter_ns_;
  std::uint64_t client_id_;
  std::size_t completed_ = 0;
  CampaignResult res_;
  std::promise<void> done_;
};

CampaignResult run_campaign(Context& ctx, const Grid& grid,
                            std::vector<gmx::OpenLoopArrival> trace,
                            double window_s) {
  UdpTransport tp(gmx::kInvalidNode, "127.0.0.1", 0);
  Campaign campaign(tp, grid.config(), grid.nodes(), std::move(trace),
                    window_s);
  tp.attach_raw(grid.config().client_protocol(),
                [&campaign](const Message& m, const PeerAddr&) {
                  campaign.on_reply(m);
                });
  auto done = campaign.done();
  tp.start();
  {
    Tracer::Scope s(ctx.tracer, "lockd.campaign");
    const auto t0 = Clock::now() + std::chrono::milliseconds(20);
    const auto& arrivals = campaign.trace();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      const auto due = t0 + std::chrono::nanoseconds(arrivals[i].at.count_ns());
      std::this_thread::sleep_until(due);
      tp.post([&campaign, i, due] { campaign.dispatch(i, due); });
    }
    if (arrivals.empty()) return {};
    (void)done.wait_for(std::chrono::duration<double>(window_s + 10.0));
  }
  tp.stop();
  return campaign.finish();
}

// --- the simulated twin -----------------------------------------------------

gmx::ServiceConfig twin_config(const GridConfig& g,
                               const gmx::OpenLoopParams& ol) {
  gmx::ServiceConfig sim;
  sim.clusters = g.clusters;
  sim.apps_per_cluster = g.apps_per_cluster;
  sim.locks = g.locks;
  sim.intra = g.intra_algorithm;
  sim.inter = g.inter_algorithm;
  sim.placement = g.placement;
  sim.seed = g.seed;
  sim.open_loop = ol;
  // Localhost-like links: ~50 us one way everywhere.
  sim.latency = gmx::LatencySpec::two_level(gmx::SimDuration::us(50),
                                            gmx::SimDuration::us(50), 0.0);
  return sim;
}

}  // namespace

void run_lockd_workload(Context& ctx) {
  const GridConfig cfg = grid_config(ctx.seed);
  HostSpeed& host = ctx.host;
  const auto t_begin = Clock::now();
  const double window_s =
      std::max(2.0, ctx.seconds - kSetupBudgetSec - kTailSec);

  // --- setup, repeated; the last grid serves the campaign ----------------
  std::vector<double> setup;
  std::unique_ptr<Grid> grid;
  const int cycles = ctx.trace ? 1 : kMaxSetupCycles;
  for (int c = 0; c < cycles; ++c) {
    if (grid) {
      Tracer::Scope s(ctx.tracer, "lockd.shutdown");
      grid->shutdown();
      grid.reset();
    }
    const auto t0 = Clock::now();
    grid = bring_up(ctx, cfg);
    setup.push_back(seconds_between(t0, Clock::now()));
    if (!grid) {
      ctx.fail(1, "lockd grid failed to come up");
      return;
    }
    if (c + 1 >= kMinSetupCycles &&
        seconds_between(t_begin, Clock::now()) > kSetupBudgetSec)
      break;
  }

  // --- the campaign ------------------------------------------------------
  gmx::OpenLoopParams ol;
  ol.arrivals_per_sec = kRate;
  ol.window = gmx::SimDuration::sec_f(window_s);
  ol.zipf_s = kZipf;
  ol.hold = gmx::SimDuration::ms(kHoldMs);
  gmx::Rng traffic = gmx::Rng(cfg.seed).fork(3);
  const gmx::ZipfSampler zipf(cfg.locks, ol.zipf_s);
  std::vector<gmx::OpenLoopArrival> trace;
  {
    Tracer::Scope s(ctx.tracer, "lockd.trace_materialise");
    const std::vector<NodeId> apps = cfg.app_nodes();
    trace = gmx::materialize_open_loop(ol, apps, zipf, traffic);
  }
  const std::uint64_t arrivals = trace.size();

  // Reference slices run right before the campaign and right after the
  // daemons exit, never beside them: a slice that competes with the
  // daemons for a core reads the contention, not the host's speed. The
  // daemons' CPU time is normalised by the median slice.
  for (int i = 0; i < kRefSlices; ++i) host.slice();
  const double cpu_before = children_cpu_seconds();
  const CampaignResult res =
      run_campaign(ctx, *grid, std::move(trace), window_s);

  gmx::transport::NodeStats total;
  bool stats_ok = true;
  {
    Tracer::Scope s(ctx.tracer, "lockd.stats");
    LockClient c(grid->nodes(), cfg.client_protocol());
    for (NodeId i = 0; i < grid->nodes().size(); ++i) {
      const auto st = c.stats(i, kRpcTimeoutMs);
      if (!st) {
        stats_ok = false;
        break;
      }
      total += *st;
    }
  }
  const double daemon_rss_mb = grid->peak_rss_mb();
  {
    Tracer::Scope s(ctx.tracer, "lockd.shutdown");
    grid->shutdown();
    grid.reset();
  }
  const double daemon_cpu_s = children_cpu_seconds() - cpu_before;
  for (int i = 0; i < kRefSlices; ++i) host.slice();
  const double factor = host.median_factor();

  // --- output checks -----------------------------------------------------
  ctx.attempted += arrivals;
  ctx.failed += res.sheds + res.misses + res.timeouts;
  if (res.fence_violations + res.exclusion_violations != 0) {
    ctx.fail(res.fence_violations + res.exclusion_violations,
             "fence or exclusion violation");
  }
  const bool closed =
      stats_ok && total.arrivals == arrivals &&
      total.arrivals == total.grants + total.sheds + total.deadline_misses &&
      total.releases == total.grants && total.grants == res.grants;
  if (!closed) ctx.fail(0, "lockd accounting does not close");
  if (daemon_rss_mb <= 0.0) ctx.fail(0, "no daemon memory high-water mark");
  const double obtain_mean_ms = mean(res.obtain_ms);
  const double first_quarter_mean_ms = mean(res.first_quarter_obtain_ms);
  if (obtain_mean_ms > first_quarter_mean_ms + kRealSaturationSlackMs)
    ctx.fail(0, "lockd obtaining time grows through the campaign: saturated");

  // The simulated twin: the same shape, seed and traffic through the
  // simulator (over a longer window than the wall-clock campaign, so its
  // exact means settle), run twice, and once more over a quarter window.
  gmx::OpenLoopParams twin_ol = ol;
  twin_ol.window = gmx::SimDuration::sec_f(kTwinWindowSec);
  gmx::OpenLoopParams quarter_ol = ol;
  quarter_ol.window = gmx::SimDuration::sec_f(kTwinWindowSec / 4);
  gmx::ExperimentResult twin;
  gmx::ExperimentResult again;
  gmx::ExperimentResult quarter;
  {
    Tracer::Scope s(ctx.tracer, "lockd.twin");
    twin = gmx::run_service_experiment(twin_config(cfg, twin_ol));
    again = gmx::run_service_experiment(twin_config(cfg, twin_ol));
    quarter = gmx::run_service_experiment(twin_config(cfg, quarter_ol));
  }
  if (twin.obtaining.mean_ms() != again.obtaining.mean_ms() ||
      twin.messages != again.messages || twin.events != again.events)
    ctx.fail(0, "re-run of the simulated twin changed an exact metric");
  if (std::abs(quarter.obtaining.mean_ms() - twin.obtaining.mean_ms()) >
      kSaturationTolerance * twin.obtaining.mean_ms())
    ctx.fail(0, "the twin's mean obtaining time grows with the window");

  const double grants = std::max<double>(1.0, double(res.grants));
  const double cpu_ms_per_cs = daemon_cpu_s * 1e3 / grants / factor;
  std::cerr << "perfbench: lockd_loopback: " << arrivals << " arrivals over "
            << window_s << " s, " << res.grants << " grants, "
            << setup.size() << " set-ups; obtain mean first quarter/whole "
            << first_quarter_mean_ms << "/" << obtain_mean_ms
            << " ms, p50/p90/p99/max " << quantile(res.obtain_ms, 0.5) << "/"
            << quantile(res.obtain_ms, 0.9) << "/"
            << quantile(res.obtain_ms, 0.99) << "/"
            << quantile(res.obtain_ms, 1.0) << " ms; generator lag p99 "
            << quantile(res.lag_ms, 0.99) << " ms; daemons' CPU "
            << daemon_cpu_s << " s; reference loop " << host.median_mops()
            << " Mops\n";
  Metrics& m = ctx.metrics;
  if (ctx.trace) {
    m.set("lockd.obtain_mean_ms", obtain_mean_ms, "ms");
    m.set("lockd.obtain_p99_ms", quantile(res.obtain_ms, 0.99), "ms");
    m.set("lockd.gen_lag_p99_ms", quantile(res.lag_ms, 0.99), "ms");
    m.set("host.cs_per_s_raw", grants / std::max(daemon_cpu_s, 1e-9), "CS/s");
    // Datagrams per grant: the client's own, counted, plus the twin's
    // protocol messages per CS, each sent reliably (data and ack) between
    // the daemons. Fence requests are not in the twin, so this undercounts.
    LayerInputs in;
    in.lockd = true;
    in.ns_per_cs = daemon_cpu_s * 1e9 / grants;
    in.datagrams_per_cs =
        double(res.datagrams) / grants +
        2.0 * double(twin.messages.sent) /
            double(std::max<std::uint64_t>(twin.total_cs, 1));
    run_layer_stubs(ctx, in);
    return;
  }
  m.set("cs_per_s", 1e3 / cpu_ms_per_cs, "CS/s");
  m.set("setup_s", median(setup), "s");
  m.set("peak_rss_mb", daemon_rss_mb, "MiB");
  m.set("sim_obtain_mean_ms", twin.obtaining.mean_ms(), "ms");
  m.set("inter_msgs_per_cs", twin.inter_msgs_per_cs(), "msgs/CS");
  m.set("cpu_ms_per_cs", cpu_ms_per_cs, "ms");
}

}  // namespace perfbench
