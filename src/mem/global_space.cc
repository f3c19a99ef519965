#include "mem/global_space.h"

#include <algorithm>
#include <bit>
#include <memory>

namespace presto::mem {

namespace {
int log2_exact(std::uint32_t v) {
  PRESTO_CHECK(std::has_single_bit(v), "not a power of two: " << v);
  return std::countr_zero(v);
}

// Slot size floor: a node caching one block of a page pays for one slot of
// max(block, kMinSlotBytes) bytes (capped at the page), not a page frame.
constexpr std::uint32_t kMinSlotBytes = 256;
// Host arena chunk sizes: a node's first chunk is kFirstChunk bytes and each
// later one doubles, capped at kMaxChunkSlots slots but never smaller than
// the request. A node that caches a few blocks holds about a kilobyte, and
// the unused tail of a node's newest chunk stays below kMaxChunkSlots slots.
constexpr std::size_t kFirstChunk = 1024;
constexpr std::size_t kMaxChunkSlots = 64;
// Carve granularity; matches operator new's alignment.
constexpr std::size_t kCarveAlign = 16;

std::uint32_t slot_bytes(const MemConfig& cfg) {
  return std::min(cfg.page_size, std::max(cfg.block_size, kMinSlotBytes));
}
}  // namespace

GlobalSpace::GlobalSpace(int nodes, const MemConfig& cfg)
    : nodes_(nodes),
      cfg_(cfg),
      block_shift_(log2_exact(cfg.block_size)),
      page_shift_(log2_exact(cfg.page_size)),
      spine_(static_cast<std::size_t>(nodes)),
      host_(static_cast<std::size_t>(nodes)),
      arenas_(static_cast<std::size_t>(nodes)) {
  PRESTO_CHECK(nodes > 0 && nodes <= 65536, "node count " << nodes);
  PRESTO_CHECK(cfg.page_size % cfg.block_size == 0,
               "page size not a multiple of block size");
  slot_shift_ = log2_exact(slot_bytes(cfg));
  slot_mask_ = (Addr{1} << slot_shift_) - 1;
  const std::size_t bpp = cfg.page_size / cfg.block_size;
  tag_mask_ = bpp - 1;
  tag_bytes_ = (bpp + alignof(std::byte*) - 1) & ~(alignof(std::byte*) - 1);
  copy_bytes_ = tag_bytes_ +
                (cfg.page_size >> slot_shift_) * sizeof(std::byte*);
}

void GlobalSpace::grow_to(std::size_t new_size) {
  const std::size_t npages = new_size >> page_shift_;
  for (auto& per_node : spine_) per_node.resize(npages, nullptr);
  page_home_.resize(npages, -1);
  size_ = new_size;
}

Addr GlobalSpace::alloc(std::size_t bytes,
                        const std::function<int(PageId)>& home) {
  if (grow_gate_) {
    Addr base = 0;
    grow_gate_([&] { base = alloc_now(bytes, home); });
    return base;
  }
  return alloc_now(bytes, home);
}

Addr GlobalSpace::alloc_now(std::size_t bytes,
                            const std::function<int(PageId)>& home) {
  PRESTO_CHECK(bytes > 0, "zero-byte allocation");
  const std::size_t pages =
      (bytes + cfg_.page_size - 1) / cfg_.page_size;
  const Addr base = size_;
  const PageId first_page = base >> page_shift_;
  grow_to(size_ + pages * cfg_.page_size);

  const std::size_t blocks_per_page =
      cfg_.page_size / cfg_.block_size;
  for (std::size_t p = 0; p < pages; ++p) {
    const int h = home(static_cast<PageId>(p));
    PRESTO_CHECK(h >= 0 && h < nodes_, "bad home " << h);
    page_home_[static_cast<std::size_t>(first_page) + p] = h;
    // The home starts with ReadWrite permission on all its blocks.
    const BlockId b0 =
        (first_page + p) << (page_shift_ - block_shift_);
    for (std::size_t b = 0; b < blocks_per_page; ++b)
      set_tag(h, b0 + b, Tag::ReadWrite);
  }
  return base;
}

Addr GlobalSpace::alloc_on_node(int node, std::size_t bytes) {
  return alloc(bytes, [node](PageId) { return node; });
}

Addr GlobalSpace::arena_alloc(int node, std::size_t bytes, std::size_t align) {
  PRESTO_CHECK(bytes <= cfg_.page_size,
               "arena object " << bytes << " exceeds page size");
  auto& ar = arenas_[static_cast<std::size_t>(node)];
  // Align the linear cursor.
  Addr pos = (ar.cur + align - 1) & ~static_cast<Addr>(align - 1);
  // Objects may not straddle (non-contiguous) arena chunks.
  if ((pos & (cfg_.page_size - 1)) + bytes > cfg_.page_size)
    pos = (pos + cfg_.page_size) & ~static_cast<Addr>(cfg_.page_size - 1);
  const std::size_t chunk = static_cast<std::size_t>(pos >> page_shift_);
  while (chunk >= ar.chunks.size())
    ar.chunks.push_back(alloc_on_node(node, cfg_.page_size));
  ar.cur = pos + bytes;
  return ar.chunks[chunk] + (pos & (cfg_.page_size - 1));
}

std::size_t GlobalSpace::arena_mark(int node) const {
  return static_cast<std::size_t>(arenas_[static_cast<std::size_t>(node)].cur);
}

void GlobalSpace::arena_reset(int node, std::size_t mark) {
  auto& ar = arenas_[static_cast<std::size_t>(node)];
  PRESTO_CHECK(mark <= ar.cur, "arena reset past current position");
  ar.cur = mark;
}

void GlobalSpace::set_commutative(Addr base, std::size_t bytes) {
  PRESTO_CHECK(bytes > 0, "empty commutative region");
  PRESTO_CHECK(base + bytes <= size_, "commutative region past end of space");
  const BlockId first = block_of(base);
  const BlockId last = block_of(base + bytes - 1);
  if (commutative_.size() <= static_cast<std::size_t>(last))
    commutative_.resize(static_cast<std::size_t>(last) + 1, 0);
  for (BlockId b = first; b <= last; ++b)
    commutative_[static_cast<std::size_t>(b)] = 1;
}

std::byte* GlobalSpace::carve(int node, std::size_t bytes) {
  HostArena& ar = host_[static_cast<std::size_t>(node)];
  bytes = (bytes + kCarveAlign - 1) & ~(kCarveAlign - 1);
  if (bytes > ar.left) {
    const std::size_t max_chunk = kMaxChunkSlots << slot_shift_;
    // (The clamp only keeps the shift defined; max_chunk binds far sooner.)
    const std::size_t doublings = std::min<std::size_t>(ar.chunks.size(), 20);
    const std::size_t chunk = std::max(
        std::min(kFirstChunk << doublings, max_chunk), bytes);
    ar.chunks.push_back(std::make_unique_for_overwrite<std::byte[]>(chunk));
    ar.cur = ar.chunks.back().get();
    ar.left = chunk;
    ar.held += chunk;
  }
  std::byte* p = ar.cur;
  ar.cur += bytes;
  ar.left -= bytes;
  std::memset(p, 0, bytes);
  return p;
}

std::uint8_t* GlobalSpace::materialize_copy(int node, PageId p) {
  // Zeroed, so every tag reads Invalid; the slot pointers start null.
  auto* pc = reinterpret_cast<std::uint8_t*>(carve(node, copy_bytes_));
  std::uninitialized_value_construct_n(
      reinterpret_cast<std::byte**>(pc + tag_bytes_),
      (copy_bytes_ - tag_bytes_) / sizeof(std::byte*));
  spine_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)] = pc;
  return pc;
}

std::byte* GlobalSpace::materialize_slot(int node, std::uint8_t* pc,
                                         std::size_t slot) {
  std::byte* s = carve(node, std::size_t{1} << slot_shift_);
  reinterpret_cast<std::byte**>(pc + tag_bytes_)[slot] = s;
  return s;
}

std::size_t GlobalSpace::resident_bytes() const {
  std::size_t n = spine_.capacity() * sizeof(spine_[0]) +
                  host_.capacity() * sizeof(host_[0]);
  for (const auto& per_node : spine_)
    n += per_node.capacity() * sizeof(per_node[0]);
  for (const HostArena& ar : host_)
    n += ar.held + ar.chunks.capacity() * sizeof(ar.chunks[0]);
  return n;
}

void GlobalSpace::resolve_fault(int node, BlockId b, bool is_write) {
  // The handler may install a tag weaker than requested (or the tag may be
  // stolen again before the processor resumes); re-check until it sticks.
  do {
    PRESTO_CHECK(fault_ != nullptr, "no fault handler installed");
    fault_->on_fault(node, b, is_write);
  } while (is_write ? tag(node, b) != Tag::ReadWrite
                    : tag(node, b) == Tag::Invalid);
}

void GlobalSpace::read_slow(int node, Addr a, void* out, std::size_t n) {
  std::byte* dst = static_cast<std::byte*>(out);
  while (n > 0) {
    const BlockId b = block_of(a);
    if (tag(node, b) == Tag::Invalid)
      resolve_fault(node, b, /*is_write=*/false);
    const std::size_t in_block =
        cfg_.block_size - static_cast<std::size_t>(a & (cfg_.block_size - 1));
    const std::size_t chunk = n < in_block ? n : in_block;
    const std::byte* src =
        block_data(node, b) + (a & (cfg_.block_size - 1));
    std::memcpy(dst, src, chunk);
    if (hooks_ != nullptr) [[unlikely]]
      hooks_->on_app_read(node, b, a & (cfg_.block_size - 1), dst, chunk);
    a += chunk;
    dst += chunk;
    n -= chunk;
  }
}

void GlobalSpace::write_slow(int node, Addr a, const void* in, std::size_t n) {
  const std::byte* src = static_cast<const std::byte*>(in);
  while (n > 0) {
    const BlockId b = block_of(a);
    if (tag(node, b) != Tag::ReadWrite)
      resolve_fault(node, b, /*is_write=*/true);
    const std::size_t in_block =
        cfg_.block_size - static_cast<std::size_t>(a & (cfg_.block_size - 1));
    const std::size_t chunk = n < in_block ? n : in_block;
    std::byte* dst = block_data(node, b) + (a & (cfg_.block_size - 1));
    std::memcpy(dst, src, chunk);
    if (hooks_ != nullptr) [[unlikely]]
      hooks_->on_app_write(node, b, a & (cfg_.block_size - 1), src, chunk);
    a += chunk;
    src += chunk;
    n -= chunk;
  }
}

void GlobalSpace::rmw(int node, Addr a, std::size_t n,
                      const std::function<void(void*)>& fn) {
  const BlockId b = block_of(a);
  PRESTO_CHECK(block_of(a + n - 1) == b, "rmw may not straddle blocks");
  if (tag(node, b) != Tag::ReadWrite) resolve_fault(node, b, /*is_write=*/true);
  // Holding ReadWrite and not yielding makes the read-modify-write atomic
  // with respect to all other simulated processors.
  std::byte* p = block_data(node, b) + (a & (cfg_.block_size - 1));
  fn(p);
  if (hooks_ != nullptr) [[unlikely]]
    hooks_->on_app_write(node, b, a & (cfg_.block_size - 1), p, n);
}

}  // namespace presto::mem
