#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "mem/global_space.h"
#include "trace/hooks.h"

namespace presto::mem {
namespace {

MemConfig small_cfg() {
  MemConfig c;
  c.block_size = 32;
  c.page_size = 128;
  return c;
}

TEST(GlobalSpace, AllocAssignsHomesPerPage) {
  GlobalSpace s(4, small_cfg());
  const Addr base = s.alloc(3 * 128, [](PageId p) {
    return static_cast<int>(p);  // page i homed at node i
  });
  EXPECT_EQ(base, 0u);
  EXPECT_EQ(s.home_of_addr(base), 0);
  EXPECT_EQ(s.home_of_addr(base + 128), 1);
  EXPECT_EQ(s.home_of_addr(base + 2 * 128 + 127), 2);
  EXPECT_EQ(s.size_bytes(), 3u * 128u);
}

TEST(GlobalSpace, HomeStartsReadWriteOthersInvalid) {
  GlobalSpace s(3, small_cfg());
  s.alloc(128, [](PageId) { return 1; });
  const BlockId b = 0;
  EXPECT_EQ(s.tag(1, b), Tag::ReadWrite);
  EXPECT_EQ(s.tag(0, b), Tag::Invalid);
  EXPECT_EQ(s.tag(2, b), Tag::Invalid);
}

TEST(GlobalSpace, BlockAndPageArithmetic) {
  GlobalSpace s(2, small_cfg());
  s.alloc(256, [](PageId) { return 0; });
  EXPECT_EQ(s.block_of(0), 0u);
  EXPECT_EQ(s.block_of(31), 0u);
  EXPECT_EQ(s.block_of(32), 1u);
  EXPECT_EQ(s.page_of(127), 0u);
  EXPECT_EQ(s.page_of(128), 1u);
  EXPECT_EQ(s.page_of_block(4), 1u);
  EXPECT_EQ(s.block_base(3), 96u);
}

struct FailOnFault : FaultHandler {
  void on_fault(int, BlockId, bool) override { FAIL() << "unexpected fault"; }
};

// Simulates the protocol satisfying the request: copy home data, set tag.
struct CopyFromHome : FaultHandler {
  explicit CopyFromHome(GlobalSpace& s) : space(s) {}
  void on_fault(int node, BlockId b, bool is_write) override {
    ++faults;
    std::memcpy(space.block_data(node, b), space.block_data(0, b),
                space.block_size());
    space.set_tag(node, b, is_write ? Tag::ReadWrite : Tag::ReadOnly);
  }
  GlobalSpace& space;
  int faults = 0;
};

TEST(GlobalSpace, HomeReadsAndWritesNeedNoFault) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  FailOnFault h;
  s.set_fault_handler(&h);
  s.write_value<int>(0, a + 4, 42);
  EXPECT_EQ(s.read_value<int>(0, a + 4), 42);
}

TEST(GlobalSpace, FaultHandlerInvokedUntilTagOk) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  CopyFromHome h(s);
  s.set_fault_handler(&h);
  int& faults = h.faults;
  s.write_value<double>(0, a, 3.5);
  EXPECT_EQ(s.read_value<double>(1, a), 3.5);
  EXPECT_EQ(faults, 1);
  // Subsequent read hits the cached copy.
  EXPECT_EQ(s.read_value<double>(1, a), 3.5);
  EXPECT_EQ(faults, 1);
  // A write needs an upgrade fault.
  s.write_value<double>(1, a, 4.5);
  EXPECT_EQ(faults, 2);
}

TEST(GlobalSpace, ReadsSpanningBlocksAndPages) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(256, [](PageId) { return 0; });
  // Fill 256 bytes with a pattern via block-spanning writes at the home.
  std::vector<std::uint8_t> pat(200);
  for (std::size_t i = 0; i < pat.size(); ++i)
    pat[i] = static_cast<std::uint8_t>(i * 7 + 1);
  s.write(0, a + 30, pat.data(), pat.size());  // spans blocks and the page
  std::vector<std::uint8_t> got(200);
  s.read(0, a + 30, got.data(), got.size());
  EXPECT_EQ(pat, got);
}

// Multi-block accesses inside one slot: 32 B blocks, 512 B pages, so a
// slot is 256 B (eight blocks) and a page holds two slots.
MemConfig slot_cfg() {
  MemConfig c;
  c.block_size = 32;
  c.page_size = 512;
  return c;
}

// Grants a remote node a copy of blocks [first, last] with the given tag.
void grant(GlobalSpace& s, int node, BlockId first, BlockId last, Tag t) {
  for (BlockId b = first; b <= last; ++b) {
    std::memcpy(s.block_data(node, b), s.block_data(0, b), s.block_size());
    s.set_tag(node, b, t);
  }
}

// Records every fault and satisfies it from the home copy.
struct RecordingFaults : FaultHandler {
  explicit RecordingFaults(GlobalSpace& s) : space(s) {}
  void on_fault(int node, BlockId b, bool is_write) override {
    faulted.push_back(b);
    grant(space, node, b, b, is_write ? Tag::ReadWrite : Tag::ReadOnly);
  }
  GlobalSpace& space;
  std::vector<BlockId> faulted;
};

std::vector<std::uint8_t> pattern(std::size_t n, int seed) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::uint8_t>(i * 7 + static_cast<std::size_t>(seed));
  return v;
}

TEST(GlobalSpace, SpanInsideOneSlotReadsWithoutFault) {
  GlobalSpace s(2, slot_cfg());
  const Addr a = s.alloc(512, [](PageId) { return 0; });
  const auto pat = pattern(72, 3);  // a Barnes-cell-sized record
  s.write(0, a + 40, pat.data(), pat.size());  // blocks 1..3 at the home
  grant(s, 1, 1, 3, Tag::ReadOnly);
  FailOnFault h;
  s.set_fault_handler(&h);
  std::vector<std::uint8_t> got(pat.size());
  s.read(1, a + 40, got.data(), got.size());
  EXPECT_EQ(got, pat);
  // A read-only span may not be written inline.
  RecordingFaults rec(s);
  s.set_fault_handler(&rec);
  const auto upd = pattern(72, 9);
  s.write(1, a + 40, upd.data(), upd.size());
  EXPECT_EQ(rec.faulted, (std::vector<BlockId>{1, 2, 3}));
  s.read(1, a + 40, got.data(), got.size());
  EXPECT_EQ(got, upd);
}

TEST(GlobalSpace, OneInvalidTagInSpanFaultsExactlyThatBlock) {
  GlobalSpace s(2, slot_cfg());
  const Addr a = s.alloc(512, [](PageId) { return 0; });
  const auto pat = pattern(96, 5);
  s.write(0, a + 16, pat.data(), pat.size());  // blocks 0..3
  grant(s, 1, 0, 3, Tag::ReadOnly);
  s.set_tag(1, 2, Tag::Invalid);
  RecordingFaults rec(s);
  s.set_fault_handler(&rec);
  std::vector<std::uint8_t> got(pat.size());
  s.read(1, a + 16, got.data(), got.size());
  EXPECT_EQ(rec.faulted, (std::vector<BlockId>{2}));
  EXPECT_EQ(got, pat);

  // Writes: ReadWrite everywhere but one read-only block.
  grant(s, 1, 0, 3, Tag::ReadWrite);
  s.set_tag(1, 1, Tag::ReadOnly);
  rec.faulted.clear();
  const auto upd = pattern(96, 11);
  s.write(1, a + 16, upd.data(), upd.size());
  EXPECT_EQ(rec.faulted, (std::vector<BlockId>{1}));
  s.read(1, a + 16, got.data(), got.size());
  EXPECT_EQ(got, upd);
}

TEST(GlobalSpace, CrossSlotSpanStaysCorrect) {
  GlobalSpace s(2, slot_cfg());
  const Addr a = s.alloc(1024, [](PageId) { return 0; });
  const auto pat = pattern(100, 7);
  // Bytes 200..299 cover blocks 6..9 across the slot boundary at 256.
  s.write(0, a + 200, pat.data(), pat.size());
  std::vector<std::uint8_t> got(pat.size());
  s.read(0, a + 200, got.data(), got.size());
  EXPECT_EQ(got, pat);

  grant(s, 1, 6, 9, Tag::ReadOnly);
  s.set_tag(1, 8, Tag::Invalid);  // first block of the second slot
  RecordingFaults rec(s);
  s.set_fault_handler(&rec);
  std::fill(got.begin(), got.end(), 0);
  s.read(1, a + 200, got.data(), got.size());
  EXPECT_EQ(rec.faulted, (std::vector<BlockId>{8}));
  EXPECT_EQ(got, pat);
}

// Observed multi-block accesses still report one call per block.
struct AccessLog : trace::Hooks {
  struct Call {
    bool write;
    std::uint64_t block;
    std::size_t off, n;
    bool operator==(const Call&) const = default;
  };
  std::vector<Call> calls;
  void on_app_read(int, std::uint64_t b, std::size_t off, const void*,
                   std::size_t n) override {
    calls.push_back({false, b, off, n});
  }
  void on_app_write(int, std::uint64_t b, std::size_t off, const void*,
                    std::size_t n) override {
    calls.push_back({true, b, off, n});
  }
};

TEST(GlobalSpace, ObservedSpanReportsEveryBlock) {
  GlobalSpace s(2, slot_cfg());
  const Addr a = s.alloc(512, [](PageId) { return 0; });
  AccessLog log;
  s.set_hooks(&log);
  const auto pat = pattern(96, 1);
  s.write(0, a + 16, pat.data(), pat.size());
  std::vector<std::uint8_t> got(pat.size());
  s.read(0, a + 16, got.data(), got.size());
  EXPECT_EQ(got, pat);
  const std::vector<AccessLog::Call> want{
      {true, 0, 16, 16},  {true, 1, 0, 32},  {true, 2, 0, 32},
      {true, 3, 0, 16},   {false, 0, 16, 16}, {false, 1, 0, 32},
      {false, 2, 0, 32},  {false, 3, 0, 16}};
  EXPECT_EQ(log.calls, want);
}

TEST(GlobalSpace, ArenaAllocHomesAtNodeAndAligns) {
  GlobalSpace s(4, small_cfg());
  const Addr a = s.arena_alloc(2, 40, 16);
  EXPECT_EQ(s.home_of_addr(a), 2);
  EXPECT_EQ(a % 16, 0u);
  const Addr b = s.arena_alloc(2, 40, 16);
  EXPECT_EQ(s.home_of_addr(b), 2);
  EXPECT_NE(a, b);
  const Addr c = s.arena_alloc(3, 8, 8);
  EXPECT_EQ(s.home_of_addr(c), 3);
}

TEST(GlobalSpace, ArenaObjectsDoNotStraddleChunks) {
  MemConfig cfg = small_cfg();
  GlobalSpace s(2, cfg);
  // Fill most of a page, then allocate an object that would straddle.
  s.arena_alloc(0, 100, 8);
  const Addr a = s.arena_alloc(0, 60, 8);
  // Object fits entirely within one page.
  EXPECT_EQ(s.page_of(a), s.page_of(a + 59));
}

TEST(GlobalSpace, ArenaMarkResetReusesAddresses) {
  GlobalSpace s(2, small_cfg());
  s.arena_alloc(1, 16, 8);
  const std::size_t mark = s.arena_mark(1);
  const Addr a1 = s.arena_alloc(1, 24, 8);
  const Addr a2 = s.arena_alloc(1, 24, 8);
  s.arena_reset(1, mark);
  const Addr b1 = s.arena_alloc(1, 24, 8);
  const Addr b2 = s.arena_alloc(1, 24, 8);
  EXPECT_EQ(a1, b1);  // address stability across rebuilds
  EXPECT_EQ(a2, b2);
}

TEST(GlobalSpace, RmwRequiresSingleBlock) {
  GlobalSpace s(2, small_cfg());
  const Addr a = s.alloc(128, [](PageId) { return 0; });
  s.rmw(0, a + 8, 8, [](void* p) { *static_cast<std::uint64_t*>(p) = 9; });
  EXPECT_EQ(s.read_value<std::uint64_t>(0, a + 8), 9u);
  EXPECT_DEATH(s.rmw(0, a + 28, 8, [](void*) {}), "straddle");
}

TEST(GlobalSpace, RejectsNonPowerOfTwoBlock) {
  MemConfig cfg;
  cfg.block_size = 48;
  cfg.page_size = 4096;
  EXPECT_DEATH(GlobalSpace(2, cfg), "power of two");
}

}  // namespace
}  // namespace presto::mem
