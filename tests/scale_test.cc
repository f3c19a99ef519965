// Positive smoke tests above the historical 64-node ceiling: the hybrid
// NodeSet, sparse page-copy storage, and sparse channel tables let the same
// protocols run on 256+-node machines. These are correctness smokes, not
// goldens (the <= 64-node golden pins stay the bit-identity anchor); the
// wide-machine cost curves live in bench/scale_sweep.
#include <gtest/gtest.h>

#include <cstddef>

#include "mem/global_space.h"
#include "runtime/system.h"

namespace presto::runtime {
namespace {

MachineConfig wide(int nodes, std::uint32_t block = 32) {
  MachineConfig m = MachineConfig::cm5_blizzard(nodes, block);
  m.mem.page_size = 512;  // spread homes across many nodes
  return m;
}

std::size_t metadata_bytes(System& sys) {
  return sys.protocol().metadata_bytes() + sys.network().metadata_bytes();
}

TEST(Scale, Stache256NodeInvalidateSpilledSharers) {
  // Readers on both sides of the 64-node boundary cache the home's block;
  // the next write must invalidate every one of them through the spilled
  // directory entry.
  System sys(wide(256), ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0) c.write<int>(a, 1);
    c.barrier();
    if (c.id() % 17 == 3) {
      EXPECT_EQ(c.read<int>(a), 1);
    }
    c.barrier();
    if (c.id() == 0) c.write<int>(a, 2);
    c.barrier();
    if (c.id() % 17 == 3) {
      EXPECT_EQ(c.read<int>(a), 2);
    }
  });
  // Every sampled reader faulted twice: initial fetch + post-invalidate.
  EXPECT_EQ(sys.recorder().node(3).read_faults, 2u);
  EXPECT_EQ(sys.recorder().node(224).read_faults, 2u);
}

TEST(Scale, Predictive256NodeIterativePresend) {
  // Iterative producer/consumer at 256 nodes: after the priming round the
  // predictive protocol presends to consumers in the spill range.
  System sys(wide(256), ProtocolKind::kPredictive);
  const auto a = sys.space().alloc_on_node(0, 64);
  sys.run([&](NodeCtx& c) {
    for (int it = 0; it < 4; ++it) {
      c.phase(0);
      if (c.id() == 0) c.write<int>(a, 10 + it);
      c.barrier();
      c.phase(1);
      if (c.id() == 100 || c.id() == 255) {
        EXPECT_EQ(c.read<int>(a), 10 + it);
      }
      c.barrier();
    }
  });
  std::uint64_t present = 0;
  for (int n = 0; n < 256; ++n)
    present += sys.recorder().node(n).presend_blocks_received;
  EXPECT_GT(present, 0u);  // the schedule primed and actually present data
  // Presends spare the steady-state consumers their read faults.
  EXPECT_LT(sys.recorder().node(255).read_faults, 4u);
}

TEST(Scale, ClusterDirectoryMatchesExactValues) {
  // The coarse two-level directory is a conservative over-approximation:
  // program-visible values match the exact directory; sharer metadata for a
  // widely-shared block tracks clusters instead of 200+ individual nodes.
  auto run = [](int cluster_nodes, std::size_t* meta) {
    MachineConfig m = wide(256);
    m.cluster_nodes = cluster_nodes;
    System sys(m, ProtocolKind::kStache);
    const auto a = sys.space().alloc_on_node(0, 64);
    long long sum = 0;
    sys.run([&](NodeCtx& c) {
      for (int it = 0; it < 3; ++it) {
        if (c.id() == 0) c.write<int>(a, it + 1);
        c.barrier();
        const int v = c.read<int>(a);
        EXPECT_EQ(v, it + 1);
        c.barrier();
        if (c.id() == 0) sum += v;
      }
    });
    *meta = sys.protocol().metadata_bytes();
    return sum;
  };
  std::size_t exact_meta = 0, coarse_meta = 0;
  const long long exact = run(0, &exact_meta);
  const long long coarse = run(16, &coarse_meta);
  EXPECT_EQ(exact, coarse);
  // 256 sharers collapse to 16 clusters: the directory entry stays inline
  // instead of spilling, so the coarse directory holds strictly less.
  EXPECT_LT(coarse_meta, exact_meta);
}

TEST(Scale, MetadataStaysSubQuadraticIn1024NodeRun) {
  // A 1024-node machine runs to completion, and with a bounded working set
  // its protocol+network metadata must scale with nodes and touched blocks,
  // not nodes^2. The pre-PR dense channel table alone was
  // nodes^2 * sizeof(Channel) >= 1M entries; stay far under that.
  System sys(wide(1024), ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 256);
  sys.run([&](NodeCtx& c) {
    if (c.id() == 0)
      for (int i = 0; i < 4; ++i) c.write<int>(a + 4 * i, i);
    c.barrier();
    if (c.id() % 37 == 1) {
      EXPECT_EQ(c.read<int>(a), 0);
    }
    c.barrier();
  });
  const std::size_t dense_channels_floor = 1024ull * 1024ull * 8;  // >= 8 MiB
  EXPECT_LT(metadata_bytes(sys), dense_channels_floor / 4);
}

TEST(Scale, RejectsInsaneNodeCounts) {
  // The old hard 64-node ceiling is gone; what remains is a sanity bound
  // against nonsense configurations (and accidental quadratic blowups).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  mem::MemConfig cfg;
  cfg.block_size = 32;
  cfg.page_size = 512;
  EXPECT_DEATH(mem::GlobalSpace(65537, cfg), "");
  EXPECT_DEATH(mem::GlobalSpace(0, cfg), "");
}

}  // namespace
}  // namespace presto::runtime
