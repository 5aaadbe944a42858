// Per-layer stub drivers (traced runs only).
//
// Each driver times one layer from outside, around calls into its public
// functions, with a stub neighbour in place of the layers above it: a
// handler that only counts instead of an algorithm, a zero-latency network
// instead of the Grid5000 matrix, a chain of requests instead of an
// application. The numbers are host nanoseconds per operation, raw (not
// reference-normalised); the traced run reports host.ref_mops beside them.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <tuple>

#include "gridmutex/core/composition.hpp"
#include "gridmutex/mutex/endpoint.hpp"
#include "gridmutex/mutex/registry.hpp"
#include "gridmutex/net/network.hpp"
#include "gridmutex/net/wire.hpp"
#include "gridmutex/service/lock_service.hpp"
#include "gridmutex/sim/simulator.hpp"
#include "gridmutex/transport/frame.hpp"
#include "gridmutex/transport/udp.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using gmx::Message;
using gmx::NodeId;
using gmx::ProtocolId;
using gmx::SimDuration;

constexpr std::uint32_t kClusters = 9;
constexpr std::uint32_t kApps = 20;

/// Wall nanoseconds per op of `body(ops)`.
double ns_per_op(std::uint64_t ops, const std::function<void()>& body) {
  const auto t0 = Clock::now();
  body();
  return seconds_between(t0, Clock::now()) * 1e9 / double(ops);
}

std::shared_ptr<const gmx::LatencyModel> zero_latency() {
  // Latency models must return a strictly positive delay.
  return std::make_shared<gmx::FixedLatencyModel>(SimDuration::ns(1));
}

// --- sim ------------------------------------------------------------------

double sim_dispatch_ns(std::uint64_t n) {
  gmx::Simulator sim;
  std::uint64_t left = n;
  std::function<void()> tick = [&] {
    if (--left > 0) sim.schedule_after(SimDuration::us(1), [&] { tick(); });
  };
  sim.schedule_after(SimDuration::us(1), [&] { tick(); });
  return ns_per_op(n, [&] { sim.run(); });
}

/// The ARQ timer pattern: every send schedules a delivery and a retransmit
/// timer, and the timer of an older send is cancelled by its ack.
double sim_timer_cancel_ns(std::uint64_t n) {
  gmx::Simulator sim;
  std::vector<gmx::EventId> ring(64, gmx::kInvalidEventId);
  std::size_t cursor = 0;
  std::uint64_t left = n;
  std::function<void()> deliver = [&] {
    if (--left == 0) return;
    sim.schedule_after(SimDuration::us(1), [&] { deliver(); });
    const gmx::EventId timer =
        sim.schedule_after(SimDuration::ms(50), [] {});
    if (ring[cursor] != gmx::kInvalidEventId) sim.cancel(ring[cursor]);
    ring[cursor] = timer;
    cursor = (cursor + 1) % ring.size();
  };
  sim.schedule_after(SimDuration::us(1), [&] { deliver(); });
  return ns_per_op(n, [&] {
    sim.run_until(gmx::SimTime::zero() + SimDuration::us(std::int64_t(n) + 1));
    for (const gmx::EventId id : ring)
      if (id != gmx::kInvalidEventId) sim.cancel(id);
    sim.run();
  });
}

// --- net ------------------------------------------------------------------

/// Network::send to a counting stub handler on the paper's 9 x 21
/// topology, spread over `protocols` protocol ids, in ns per datagram the
/// network transmits (MessageCounters::sent: on the reliable path every
/// data message and every ack), the unit of net.msgs_per_cs. Traffic
/// cycles over a fixed set of node pairs, warmed up before timing, so
/// channel state is reused as it is in a running grid rather than created
/// per message.
double net_send_deliver_ns(std::uint32_t protocols, bool reliable,
                           std::uint64_t n) {
  gmx::Simulator sim;
  const gmx::Topology topo = gmx::Composition::make_topology(kClusters, kApps);
  auto latency = std::make_shared<gmx::MatrixLatencyModel>(
      gmx::MatrixLatencyModel::grid5000());
  gmx::Network net(sim, topo, latency, gmx::Rng(7));
  const ProtocolId base = net.reserve_protocols(protocols);
  std::uint64_t delivered = 0;
  for (NodeId v = 0; v < topo.node_count(); ++v)
    for (ProtocolId p = base; p < base + protocols; ++p)
      net.attach(v, p, [&delivered](const Message&) { ++delivered; });
  if (reliable)
    for (ProtocolId p = base; p < base + protocols; ++p) net.set_reliable(p);
  gmx::Rng rng(11);
  const std::uint32_t nodes = topo.node_count();
  std::vector<std::pair<NodeId, NodeId>> pairs(512);
  for (auto& [src, dst] : pairs) {
    src = NodeId(rng.next_below(nodes));
    dst = NodeId((src + 1 + rng.next_below(nodes - 1)) % nodes);
  }
  constexpr std::uint64_t kBatch = 1000;
  std::uint64_t sent = 0;
  const auto send_until = [&](std::uint64_t total) {
    while (sent < total) {
      for (std::uint64_t i = 0; i < kBatch && sent < total; ++i, ++sent) {
        Message m;
        std::tie(m.src, m.dst) = pairs[sent % pairs.size()];
        m.protocol = base + ProtocolId(sent % protocols);
        m.type = 1;
        gmx::wire::Writer w(net.payload_pool(), 16);
        w.u64(sent);
        m.payload = w.take_payload();
        net.send(std::move(m));
      }
      sim.run();
    }
  };
  send_until(kBatch);  // warm-up: channels, pools and handler tables
  const std::uint64_t sent_before = net.counters().sent;
  const double ns_per_msg = ns_per_op(n, [&] { send_until(kBatch + n); });
  const std::uint64_t datagrams = net.counters().sent - sent_before;
  if (delivered != kBatch + n)
    std::cerr << "perfbench: stub network lost messages\n";
  return ns_per_msg * double(n) /
         double(std::max<std::uint64_t>(datagrams, 1));
}

/// Writer/Reader round trip of a Suzuki-Kasami token for a 21-node
/// cluster: the LN array plus a short queue.
double net_wire_token_ns(std::uint64_t n) {
  std::vector<std::uint64_t> ln(kApps + 1);
  std::vector<std::uint32_t> q(5);
  gmx::Rng rng(5);
  for (auto& v : ln) v = rng.next_below(5000);
  for (auto& v : q) v = std::uint32_t(rng.next_below(kApps + 1));
  gmx::BufferPool pool;
  std::uint64_t sink = 0;
  const double ns = ns_per_op(n, [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      ln[i % ln.size()] = i;
      gmx::wire::Writer w(pool, 2 + 2 * ln.size() + q.size());
      w.varint_array(std::span<const std::uint64_t>(ln));
      w.varint_array(std::span<const std::uint32_t>(q));
      const gmx::Payload p = w.take_payload();
      gmx::wire::Reader r(p);
      sink += r.varint_array_u64().back() + r.varint_array_u32().size();
    }
  });
  if (sink == 0) std::cerr << "perfbench: codec stub produced nothing\n";
  return ns;
}

// --- mutex ----------------------------------------------------------------

/// One 21-node instance on a zero-latency network; the requester rotates
/// so every CS moves the token.
double mutex_cs_ns(const char* algorithm, std::uint64_t n) {
  gmx::Simulator sim;
  const gmx::Topology topo = gmx::Topology::uniform(1, kApps + 1);
  gmx::Network net(sim, topo, zero_latency(), gmx::Rng(3));
  std::vector<NodeId> members(kApps + 1);
  for (NodeId v = 0; v < members.size(); ++v) members[v] = v;
  std::vector<std::unique_ptr<gmx::MutexEndpoint>> eps;
  for (NodeId v = 0; v < members.size(); ++v)
    eps.push_back(std::make_unique<gmx::MutexEndpoint>(
        net, 1, members, int(v), gmx::make_algorithm(algorithm),
        gmx::Rng(100 + v)));
  for (auto& ep : eps) ep->init(0);
  std::uint64_t done = 0;
  std::size_t next = 1;
  for (std::size_t r = 0; r < eps.size(); ++r) {
    eps[r]->set_callbacks(gmx::MutexCallbacks{
        [&, r] {
          eps[r]->release_cs();
          if (++done < n) {
            next = next % kApps + 1;
            eps[next]->request_cs();
          }
        },
        {}});
  }
  return ns_per_op(n, [&] {
    eps[next]->request_cs();
    sim.run();
  });
}

// --- core -----------------------------------------------------------------

/// Two-cluster Suzuki-Naimi composition on zero latency. Requesters
/// alternate between the clusters, so every CS crosses the inter level.
double core_composed_cs_ns(std::uint64_t n) {
  gmx::Simulator sim;
  const gmx::Topology topo = gmx::Composition::make_topology(2, kApps);
  gmx::Network net(sim, topo, zero_latency(), gmx::Rng(3));
  gmx::Composition comp(
      net, gmx::CompositionConfig{.intra_algorithm = "suzuki",
                                  .inter_algorithm = "naimi"});
  comp.start();
  sim.run();
  std::vector<NodeId> order;
  const std::vector<NodeId>& apps = comp.app_nodes();
  for (std::uint32_t i = 0; i < kApps; ++i) {
    order.push_back(apps[i]);
    order.push_back(apps[kApps + i]);
  }
  std::uint64_t done = 0;
  std::size_t next = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    gmx::MutexEndpoint& ep = comp.app_mutex(order[i]);
    ep.set_callbacks(gmx::MutexCallbacks{
        [&, i] {
          comp.app_mutex(order[i]).release_cs();
          if (++done < n) {
            next = (next + 1) % order.size();
            comp.app_mutex(order[next]).request_cs();
          }
        },
        {}});
  }
  return ns_per_op(n, [&] {
    comp.app_mutex(order[next]).request_cs();
    sim.run();
  });
}

// --- service --------------------------------------------------------------

/// ClientSession acquire/release on a K = 16 LockService over the paper's
/// 9 x 21 grid at zero latency; node and lock rotate on every acquire.
double service_acquire_release_ns(std::uint64_t n) {
  gmx::Simulator sim;
  const gmx::Topology topo = gmx::Composition::make_topology(kClusters, kApps);
  gmx::Network net(sim, topo, zero_latency(), gmx::Rng(3));
  gmx::LockService svc(net, gmx::LockServiceConfig{.locks = 16});
  svc.start();
  sim.run();
  const std::vector<NodeId>& apps = svc.app_nodes();
  std::uint64_t done = 0;
  std::function<void(std::uint64_t)> acquire = [&](std::uint64_t i) {
    const NodeId node = apps[(i * 7) % apps.size()];
    const gmx::LockId lock = gmx::LockId(i % 16);
    svc.session(node).acquire(lock, [&, node, lock, i] {
      svc.session(node).release(lock);
      if (++done < n) acquire(i + 1);
    });
  };
  return ns_per_op(n, [&] {
    acquire(0);
    sim.run();
  });
}

// --- transport ------------------------------------------------------------

/// Serial reliable ping-pong between two UdpTransports over loopback:
/// encode, frame, sendmsg, poll, decode, ack and dispatch, both ways.
double transport_udp_roundtrip_us(std::uint64_t n) {
  using gmx::transport::PeerAddr;
  using gmx::transport::UdpTransport;
  UdpTransport a(0, "127.0.0.1", 0);
  UdpTransport b(1, "127.0.0.1", 0);
  a.add_peer(1, PeerAddr::loopback(b.port()));
  b.add_peer(0, PeerAddr::loopback(a.port()));
  constexpr ProtocolId kProto = 1;
  a.set_reliable(kProto);
  b.set_reliable(kProto);
  const auto fire = [](UdpTransport& tp, NodeId dst, std::uint64_t v) {
    Message m;
    m.dst = dst;
    m.protocol = kProto;
    m.type = 1;
    gmx::wire::Writer w = tp.writer(16);
    w.u64(v);
    m.payload = w.take_payload();
    tp.send(std::move(m));
  };
  b.attach(kProto, [&b, fire](const Message& m) {
    gmx::wire::Reader r(m.payload);
    fire(b, 0, r.u64());
  });
  std::promise<void> all_done;
  std::uint64_t completed = 0;
  a.attach(kProto, [&](const Message&) {
    if (++completed >= n) {
      all_done.set_value();
      return;
    }
    fire(a, 1, completed);
  });
  b.start();
  a.start();
  auto done = all_done.get_future();
  const double ns = ns_per_op(n, [&] {
    a.post([&a, fire] { fire(a, 1, 0); });
    done.wait();
  });
  a.stop();
  b.stop();
  return ns / 1e3;
}

/// begin_datagram + append_frame + decode_datagram of one client-sized
/// frame: the per-datagram codec work of every lockd message.
double transport_frame_codec_ns(std::uint64_t n) {
  Message m;
  m.src = 3;
  m.dst = 1;
  m.protocol = 67;
  m.type = 7;
  m.seq = 123456;
  gmx::wire::Writer body(32);
  body.u64(0xABCDEF);
  body.u64(42);
  body.varint(3);
  body.varint(0);
  m.payload = body.take_payload();
  std::uint64_t sink = 0;
  const double ns = ns_per_op(n, [&] {
    for (std::uint64_t i = 0; i < n; ++i) {
      m.seq = i + 1;
      gmx::wire::Writer w(64);
      gmx::transport::begin_datagram(w);
      gmx::transport::append_frame(w, m);
      const std::vector<Message> out =
          gmx::transport::decode_datagram(w.take_payload());
      sink += out.front().seq;
    }
  });
  if (sink == 0) std::cerr << "perfbench: frame stub produced nothing\n";
  return ns;
}

struct Layer {
  const char* name;
  const char* unit;
  std::function<double()> time;
};

}  // namespace

void declare_layer_metrics(Context& ctx) {
  Metrics& m = ctx.metrics;
  m.set("sim.events_per_cs", 0.0, "events/CS");
  m.set("sim.dispatch_ns", 0.0, "ns");
  m.set("sim.timer_cancel_ns", 0.0, "ns");
  m.set("net.msgs_per_cs", 0.0, "msgs/CS");
  m.set("net.bytes_per_cs", 0.0, "B/CS");
  m.set("net.send_deliver_ns", 0.0, "ns");
  m.set("net.send_deliver_k16_ns", 0.0, "ns");
  m.set("net.reliable_send_deliver_ns", 0.0, "ns");
  m.set("net.wire_token_ns", 0.0, "ns");
  m.set("mutex.suzuki_cs_ns", 0.0, "ns");
  m.set("mutex.naimi_cs_ns", 0.0, "ns");
  m.set("core.inter_acquisitions_per_cs", 0.0, "acq/CS");
  m.set("core.composed_cs_ns", 0.0, "ns");
  m.set("service.acquire_release_ns", 0.0, "ns");
  m.set("service.batched_share", 0.0, "ratio");
  m.set("fault.retransmits_per_cs", 0.0, "msgs/CS");
  m.set("fault.token_regenerations", 0.0, "count");
  m.set("fault.recovery_latency_ms", 0.0, "ms");
  m.set("transport.udp_roundtrip_us", 0.0, "us");
  m.set("transport.frame_codec_ns", 0.0, "ns");
  m.set("host.ref_mops", 0.0, "Mops");
  m.set("host.cs_per_s_raw", 0.0, "CS/s");
}

void run_layer_stubs(Context& ctx, const LayerInputs& in) {
  const std::vector<Layer> layers = {
      {"sim.dispatch_ns", "ns", [] { return sim_dispatch_ns(2'000'000); }},
      {"sim.timer_cancel_ns", "ns",
       [] { return sim_timer_cancel_ns(1'000'000); }},
      {"net.send_deliver_ns", "ns",
       [] { return net_send_deliver_ns(1, false, 500'000); }},
      {"net.send_deliver_k16_ns", "ns",
       [] { return net_send_deliver_ns(1 + 16 * (kClusters + 1), false,
                                       500'000); }},
      {"net.reliable_send_deliver_ns", "ns",
       [] { return net_send_deliver_ns(1, true, 200'000); }},
      {"net.wire_token_ns", "ns", [] { return net_wire_token_ns(1'000'000); }},
      {"mutex.suzuki_cs_ns", "ns", [] { return mutex_cs_ns("suzuki", 20'000); }},
      {"mutex.naimi_cs_ns", "ns", [] { return mutex_cs_ns("naimi", 50'000); }},
      {"core.composed_cs_ns", "ns", [] { return core_composed_cs_ns(20'000); }},
      {"service.acquire_release_ns", "ns",
       [] { return service_acquire_release_ns(20'000); }},
      {"transport.udp_roundtrip_us", "us",
       [] { return transport_udp_roundtrip_us(3'000); }},
      {"transport.frame_codec_ns", "ns",
       [] { return transport_frame_codec_ns(500'000); }},
  };
  std::map<std::string, double> ns;
  for (const Layer& l : layers) {
    ctx.host.slice();
    Tracer::Scope s(ctx.tracer, std::string("stub.") + l.name);
    ns[l.name] = l.time();
    ctx.metrics.set(l.name, ns[l.name], l.unit);
  }
  ctx.host.slice();
  ctx.metrics.set("host.ref_mops", ctx.host.median_mops(), "Mops");

  if (in.ns_per_cs <= 0.0) return;
  // Estimated share of a CS per layer: ns/op x ops/CS / ns/CS.
  std::vector<std::pair<std::string, double>> shares;
  if (in.lockd) {
    // The stub's round trip moves four datagrams (data and ack, each way)
    // and is wall time across two processes, wake-ups included: read that
    // row as an upper bound.
    shares = {
        {"transport: frame codec x dgrams/CS",
         ns["transport.frame_codec_ns"] * in.datagrams_per_cs},
        {"transport: UDP round trip / 4 x dgrams/CS",
         ns["transport.udp_roundtrip_us"] * 1e3 / 4.0 * in.datagrams_per_cs},
    };
  } else {
    // The first three are close to self time (the network stub's own
    // dispatch is taken out; a token moves once per CS and once more per
    // inter acquisition). The last three stubs include the layers below
    // them, so their shares overlap the others: read them as upper bounds.
    const double dispatch = ns["sim.dispatch_ns"];
    const double net_ns = in.reliable ? ns["net.reliable_send_deliver_ns"]
                          : in.service_layout ? ns["net.send_deliver_k16_ns"]
                                              : ns["net.send_deliver_ns"];
    const double mutex_ns = in.suzuki_intra ? ns["mutex.suzuki_cs_ns"]
                                            : ns["mutex.naimi_cs_ns"];
    shares = {
        {"sim: dispatch x events/CS", dispatch * in.events_per_cs},
        {"net: send/deliver x msgs/CS", (net_ns - dispatch) * in.msgs_per_cs},
        {"wire: token codec x tokens/CS",
         ns["net.wire_token_ns"] * (1.0 + in.inter_acquisitions_per_cs)},
        {"mutex: one CS, incl. its net", mutex_ns},
        {"core: composed CS, incl. mutex", ns["core.composed_cs_ns"]},
        {"service: acquire/release, incl. core",
         in.service_layout ? ns["service.acquire_release_ns"] : 0.0},
    };
  }
  std::cerr << "perfbench: estimated layer share of one CS ("
            << in.ns_per_cs << " ns/CS raw):\n";
  for (const auto& [layer, v] : shares) {
    char line[128];
    std::snprintf(line, sizeof(line), "  %-42s %6.1f%%\n", layer.c_str(),
                  100.0 * v / in.ns_per_cs);
    std::cerr << line;
  }
}

}  // namespace perfbench
