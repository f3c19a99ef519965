#include "probes.h"

#include <chrono>
#include <cstdint>
#include <memory>

#include "apps/ocean/ocean.h"
#include "net/network.h"
#include "runtime/system.h"
#include "sim/engine.h"
#include "sim/processor.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kEvents = 200000;
constexpr int kYieldsPerProcessor = 50000;
constexpr int kHits = 1000000;
constexpr int kRemoteBlocks = 4096;
constexpr int kSends = 200000;

// Keeps a probe's loads observable so the loop is not folded away.
volatile std::uint64_t g_sink = 0;

}  // namespace

double probe_event_ns() {
  presto::sim::Engine e(presto::sim::Backend::kFiber);
  const auto t0 = Clock::now();
  for (int i = 0; i < kEvents; ++i) e.schedule_at(i, [] {});
  e.run();
  return seconds_since(t0) * 1e9 / static_cast<double>(e.events_executed());
}

double probe_handoff_ns() {
  presto::sim::Engine e(presto::sim::Backend::kFiber);
  for (int n = 0; n < 2; ++n) {
    presto::sim::Processor& p = e.add_processor();
    p.start([&p] {
      for (int i = 0; i < kYieldsPerProcessor; ++i) p.yield();
    });
  }
  const auto t0 = Clock::now();
  e.run();
  const double wall = seconds_since(t0);
  const std::uint64_t handoffs = e.handoffs() > 0 ? e.handoffs() : 1;
  return wall * 1e9 / static_cast<double>(handoffs);
}

MemProbe probe_mem() {
  using presto::runtime::NodeCtx;
  auto mc = presto::runtime::MachineConfig::cm5_blizzard(2, 32);
  mc.backend = presto::sim::Backend::kFiber;
  presto::runtime::System sys(mc, presto::runtime::ProtocolKind::kStache);
  const std::uint32_t bs = mc.mem.block_size;
  const presto::mem::Addr base =
      sys.space().alloc_on_node(0, static_cast<std::size_t>(kRemoteBlocks) * bs);
  MemProbe out;
  sys.run([&](NodeCtx& c) {
    std::uint64_t sum = 0;
    if (c.id() == 0) {
      // Home node: every block is locally valid. Node 1 is parked in the
      // first barrier, so no other event interleaves with the timed loop.
      for (int b = 0; b < kRemoteBlocks; ++b)
        sum += c.read<std::uint64_t>(base + static_cast<presto::mem::Addr>(b) * bs);
      const auto t0 = Clock::now();
      for (int i = 0; i < kHits; ++i)
        sum += c.read<std::uint64_t>(
            base + static_cast<presto::mem::Addr>(i & 63) * bs);
      out.hit_ns = seconds_since(t0) * 1e9 / kHits;
      c.barrier();
      c.barrier();  // node 0 waits here while node 1 reads
    } else {
      c.barrier();
      const auto t0 = Clock::now();
      for (int b = 0; b < kRemoteBlocks; ++b)
        sum += c.read<std::uint64_t>(base + static_cast<presto::mem::Addr>(b) * bs);
      out.remote_read_ns = seconds_since(t0) * 1e9 / kRemoteBlocks;
      c.barrier();
    }
    g_sink = g_sink + sum;
  });
  return out;
}

double probe_send_ns() {
  presto::sim::Engine e(presto::sim::Backend::kFiber);
  const auto m = presto::runtime::MachineConfig::cm5_blizzard(2, 32);
  presto::net::Network net(e, 2, m.net);
  std::uint64_t delivered = 0;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSends; ++i)
    net.send(0, 1, 64, i, [&delivered] { ++delivered; });
  e.run();
  const double wall = seconds_since(t0);
  g_sink = g_sink + delivered;
  return wall * 1e9 / kSends;
}

presto::stats::HostCounters probe_windows() {
  auto m = presto::runtime::MachineConfig::cm5_blizzard(64, 32);
  m.backend = presto::sim::Backend::kParallel;
  m.workers = 2;
  presto::apps::OceanParams p;
  p.n = 256;
  p.iters = 20;
  return presto::apps::run_ocean(p, m, presto::runtime::ProtocolKind::kPredictive,
                                 /*directives=*/true)
      .report.host;
}

BuildProbe probe_build(const presto::runtime::MachineConfig& m,
                       presto::runtime::ProtocolKind kind) {
  BuildProbe out;
  auto t0 = Clock::now();
  auto sys = std::make_unique<presto::runtime::System>(m, kind);
  out.build_s = seconds_since(t0);
  t0 = Clock::now();
  sys.reset();
  out.teardown_s = seconds_since(t0);
  return out;
}

}  // namespace perfbench
