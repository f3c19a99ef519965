// Benchmark workloads: each is a fixed set of cells, and a cell is one call
// into an application entry point (apps::run_*) on one machine configuration
// and protocol. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/common/versions.h"
#include "runtime/machine.h"

namespace perfbench {

struct Cell {
  std::string name;   // "app/protocol", unique within a workload
  std::string input;  // app + parameters + seed; equal inputs must agree
  presto::runtime::MachineConfig machine;
  presto::runtime::ProtocolKind kind = presto::runtime::ProtocolKind::kStache;
  bool directives = false;
  std::function<presto::apps::AppResult(const presto::runtime::MachineConfig&,
                                        presto::runtime::ProtocolKind, bool)>
      app;

  presto::apps::AppResult run() const { return app(machine, kind, directives); }
};

struct Workload {
  std::string name;
  std::vector<Cell> cells;       // timed, every pass
  std::vector<Cell> references;  // untimed, once per run: checksum witnesses
  int traced_cell = 0;           // index into cells traced by the layer run
};

// Builds the named workload's cells from `seed`. The seed feeds
// MachineConfig::seed (Barnes bodies, Water velocities, per-node RNGs) and
// RankerParams::seed (the edge sets). Adaptive and Ocean take no seed:
// Adaptive's hot-edge potential is drawn from it instead, and Ocean's cells
// are the same for every seed. Returns false for an unknown name.
bool make_workload(const std::string& name, std::uint64_t seed, Workload* out);

}  // namespace perfbench
