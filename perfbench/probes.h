// Unit-cost probes: host time of one call into a layer's public functions,
// measured in isolation on a tiny machine. Each call measures once; the
// caller repeats it (each repetition in its own span) and takes the median.
#pragma once

#include "runtime/machine.h"
#include "stats/recorder.h"

namespace perfbench {

// sim: one no-op event, Engine::schedule_at followed by its share of run().
double probe_event_ns();
// sim: one processor yield/resume handoff between two processors.
double probe_handoff_ns();

struct MemProbe {
  double hit_ns = 0.0;          // NodeCtx::read of a locally valid block
  double remote_read_ns = 0.0;  // 2-node stache demand read of a remote block
};
// mem: both measured in one 2-node stache run.
MemProbe probe_mem();

// net: one Network::send plus its delivery.
double probe_send_ns();

// sim (windows): one Ocean 256x256/20 run, predictive with directives, on a
// 64-node machine under Backend::kParallel with two workers — the only
// place the benchmark runs the window pool. Returns the run's host counters.
presto::stats::HostCounters probe_windows();

struct BuildProbe {
  double build_s = 0.0;     // runtime::System construction
  double teardown_s = 0.0;  // runtime::System destruction
};
// runtime: construct and destroy a System for one machine and protocol.
BuildProbe probe_build(const presto::runtime::MachineConfig& m,
                       presto::runtime::ProtocolKind kind);

}  // namespace perfbench
