// GlobalSpace's node-local storage layout: each node holds one page copy per
// page it touches (the page's tags plus slot pointers), and only the
// fixed-size slots it has actually cached carry data. These tests pin the
// sparsity (a remote touch costs a slot, not a page), the pointer-stability
// contract block_data callers rely on, and a ranker-shaped footprint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <utility>

#include "mem/global_space.h"
#include "runtime/aggregate.h"
#include "util/rng.h"

namespace presto::mem {
namespace {

struct Layout {
  std::uint32_t block;
  std::uint32_t page;
};

// The slot size the layout promises: max(block, 256 B), capped at the page.
std::uint32_t expected_slot(const Layout& l) {
  return std::min(l.page, std::max<std::uint32_t>(l.block, 256));
}

class SpaceLayout : public ::testing::TestWithParam<Layout> {
 protected:
  MemConfig cfg() const {
    MemConfig c;
    c.block_size = GetParam().block;
    c.page_size = GetParam().page;
    return c;
  }
  std::uint32_t slot() const { return expected_slot(GetParam()); }
  std::uint32_t blocks_per_page() const {
    return GetParam().page / GetParam().block;
  }
};

TEST_P(SpaceLayout, RemoteTouchMaterializesOneSlotNotAPage) {
  GlobalSpace s(4, cfg());
  const Addr base = s.alloc(4 * GetParam().page, [](PageId) { return 0; });
  const BlockId first = s.block_of(base + 2 * GetParam().page);
  const BlockId touched = first + blocks_per_page() - 1;  // last block
  std::memset(s.block_data(1, touched), 0x5a, GetParam().block);

  std::uint32_t resident = 0;
  for (BlockId b = first; b < first + blocks_per_page(); ++b) {
    const bool same_slot =
        s.block_base(b) / slot() == s.block_base(touched) / slot();
    EXPECT_EQ(s.peek_block(1, b) != nullptr, same_slot) << "block " << b;
    if (s.peek_block(1, b) != nullptr) ++resident;
    EXPECT_EQ(s.tag(1, b), Tag::Invalid);  // data without permission
  }
  EXPECT_EQ(resident, slot() / GetParam().block);
  // Neither the other pages of the allocation nor the other nodes gained
  // anything.
  for (BlockId b = 0; b < s.num_blocks(); ++b) {
    if (s.page_of_block(b) != s.page_of_block(touched)) {
      EXPECT_EQ(s.peek_block(1, b), nullptr) << "block " << b;
    }
    EXPECT_EQ(s.peek_block(2, b), nullptr) << "block " << b;
  }
}

// A valid tag implies a resident slot (the invariant that keeps the inline
// hit path free of an allocation check); invalidation keeps the bytes.
TEST_P(SpaceLayout, ValidTagMaterializesItsSlot) {
  GlobalSpace s(3, cfg());
  s.alloc(2 * GetParam().page, [](PageId) { return 0; });
  const BlockId b = blocks_per_page() + blocks_per_page() / 2;
  EXPECT_EQ(s.peek_block(2, b), nullptr);
  s.set_tag(2, b, Tag::ReadOnly);
  const std::byte* p = s.peek_block(2, b);
  ASSERT_NE(p, nullptr);
  s.set_tag(2, b, Tag::Invalid);
  EXPECT_EQ(s.tag(2, b), Tag::Invalid);
  EXPECT_EQ(s.peek_block(2, b), p);
  // Invalidating a block of a page the node never touched allocates nothing.
  const std::size_t before = s.resident_bytes();
  s.set_tag(1, 0, Tag::Invalid);
  EXPECT_EQ(s.peek_block(1, 0), nullptr);
  EXPECT_EQ(s.resident_bytes(), before);
  // The home holds every block of its pages readable and writable.
  for (BlockId h = 0; h < s.num_blocks(); ++h) {
    EXPECT_EQ(s.tag(0, h), Tag::ReadWrite);
    EXPECT_NE(s.peek_block(0, h), nullptr);
  }
}

// The next slot's first block is in the same page unless the slot is the
// whole page; either way, holding one slot says nothing about the next.
TEST_P(SpaceLayout, PeekIsNullForUntouchedSiblingSlot) {
  GlobalSpace s(2, cfg());
  const Addr base = s.alloc(2 * GetParam().page, [](PageId) { return 0; });
  const BlockId b0 = s.block_of(base);
  const BlockId sibling = s.block_of(base + slot());
  s.set_tag(1, b0, Tag::ReadWrite);
  ASSERT_NE(s.peek_block(1, b0), nullptr);
  EXPECT_EQ(s.peek_block(1, sibling), nullptr);
  EXPECT_EQ(s.tag(1, sibling), Tag::Invalid);
  // The home's copy of the sibling is resident, and untouched remote bytes
  // read as zero once materialized.
  EXPECT_NE(s.peek_block(0, sibling), nullptr);
  const std::byte* z = s.block_data(1, sibling);
  for (std::uint32_t i = 0; i < GetParam().block; ++i)
    EXPECT_EQ(z[i], std::byte{0});
}

TEST_P(SpaceLayout, BlockDataPointersSurviveLaterGrowth) {
  GlobalSpace s(3, cfg());
  const Addr base = s.alloc(2 * GetParam().page, [](PageId) { return 2; });
  const BlockId b = s.block_of(base) + (blocks_per_page() > 1 ? 1 : 0);
  std::byte* p = s.block_data(1, b);
  for (std::uint32_t i = 0; i < GetParam().block; ++i)
    p[i] = static_cast<std::byte>(i * 7 + 3);

  // Sibling slots, later pages, and many grow_to rounds (each alloc resizes
  // every node's spine) -- enough carving to spill several arena chunks.
  for (BlockId x = 0; x < s.num_blocks(); ++x) (void)s.block_data(1, x);
  for (int round = 0; round < 40; ++round) {
    const Addr more = s.alloc(3 * GetParam().page,
                              [round](PageId) { return round % 3; });
    for (Addr a = more; a < more + 3 * GetParam().page; a += GetParam().block)
      s.set_tag(1, s.block_of(a), Tag::ReadOnly);
  }
  (void)s.arena_alloc(1, 64);

  EXPECT_EQ(s.block_data(1, b), p);
  EXPECT_EQ(s.peek_block(1, b), p);
  for (std::uint32_t i = 0; i < GetParam().block; ++i)
    ASSERT_EQ(p[i], static_cast<std::byte>(i * 7 + 3)) << "byte " << i;
}

// A block-spanning access across a slot boundary (a page boundary when the
// slot is the whole page) lands in two slots and reads back whole.
TEST_P(SpaceLayout, SpanningAccessCrossesSlots) {
  GlobalSpace s(2, cfg());
  const Addr base = s.alloc(2 * GetParam().page, [](PageId) { return 0; });
  const Addr a = base + slot() - 4;
  const std::uint64_t v = 0x0123456789abcdefULL;
  s.write_value<std::uint64_t>(0, a, v);
  EXPECT_EQ(s.read_value<std::uint64_t>(0, a), v);
}

// GCC 12 reports a bogus -Wrestrict inside libstdc++'s char_traits::copy
// for operator+(const char*, std::string&&) (GCC bug 105651).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
INSTANTIATE_TEST_SUITE_P(
    Shapes, SpaceLayout,
    ::testing::Values(Layout{32, 4096}, Layout{1024, 4096},
                      Layout{4096, 4096}, Layout{32, 128}),
    [](const ::testing::TestParamInfo<Layout>& info) {
      return "b" + std::to_string(info.param.block) + "_p" +
             std::to_string(info.param.page);
    });
#pragma GCC diagnostic pop

// The ranker's 512-node shape: two 8192-vertex Aggregate1D arrays (each
// node's 16-element slice padded to its own 4 KB page) and a power-law
// scatter of write grants into the contribution array, one per edge, as a
// write-invalidate protocol installs them. Every (node, page) touch used to
// cost a 4 KB frame plus a tag chunk; a page copy and one 256 B slot is the
// footprint now. The count is deterministic, so the exact pin catches any
// drift of the layout back toward frame-sized copies.
TEST(SpaceFootprint, RankerShapedResidentBytesArePinned) {
  constexpr int kNodes = 512;
  constexpr std::size_t kVertices = 8192;
  constexpr int kIters = 4;
  constexpr int kDegree = 4;
  constexpr std::uint64_t kSeed = 1;
  MemConfig cfg;  // 32 B blocks, 4 KB pages (the ranker cell's machine)
  GlobalSpace s(kNodes, cfg);
  auto rank = runtime::Aggregate1D<std::int64_t>::create(s, kVertices);
  auto next = runtime::Aggregate1D<std::int64_t>::create(s, kVertices);
  (void)rank;

  std::set<std::pair<int, PageId>> remote_pages;
  for (int n = 0; n < kNodes; ++n) {
    const auto [lo, hi] = next.range(n);
    for (int it = 0; it < kIters; ++it) {
      for (std::size_t v = lo; v < hi; ++v) {
        // The ranker's per-(iteration, vertex) edge stream and its u^3
        // power-law target draw.
        const auto it1 = static_cast<std::uint64_t>(it + 1);
        const auto v1 = static_cast<std::uint64_t>(v) + 1;
        util::Rng rng(kSeed ^ (0x9e3779b97f4a7c15ULL * it1) ^
                      (0xbf58476d1ce4e5b9ULL * v1));
        for (int e = 0; e < kDegree; ++e) {
          const double u = rng.next_double();
          const auto t = std::min(
              kVertices - 1, static_cast<std::size_t>(
                                 static_cast<double>(kVertices) * u * u * u));
          if (next.owner(t) == n) continue;
          const Addr a = next.addr(t);
          s.set_tag(n, s.block_of(a), Tag::ReadWrite);
          remote_pages.emplace(n, s.page_of(a));
        }
      }
    }
  }

  // 78 475 remote (node, page) copies plus the 1 024 home pages: 79 499
  // frames, 325.6 MB, under the frame-per-page layout.
  EXPECT_EQ(remote_pages.size(), 78475u);
  const std::size_t frame_equiv =
      (remote_pages.size() + 2 * kNodes) * cfg.page_size;
  EXPECT_EQ(s.resident_bytes(), 53824448u);
  EXPECT_LT(s.resident_bytes() * 6, frame_equiv);
}

}  // namespace
}  // namespace presto::mem
