// Global shared address space with fine-grain access control — the Tempest
// substrate (Reinhardt et al. [14]) that Blizzard implements on the CM-5.
//
// The space is carved into pages (home-assignment granularity, as in C**'s
// page-grain data distribution) and cache blocks (coherence granularity,
// 32–1024 bytes). Every node keeps a sparse copy of each page it touches: the
// page's per-block access tags {Invalid, ReadOnly, ReadWrite} plus the data
// of only those fixed sub-page slots it has actually cached. An access that
// the tag does not permit vectors to a user-level fault handler (the
// coherence protocol), which blocks the accessing processor until the tag is
// upgraded. Data genuinely moves between per-node copies, so
// coherence-protocol bugs corrupt application results and are caught by the
// numeric tests.
//
// The access path mirrors the hardware split Blizzard emulates in software:
// the tag check plus data copy for a permitted access is inlined here (no
// virtual call, no std::function) — a single-block access, or an unobserved
// multi-block access inside one slot (records such as Barnes's 72–128-byte
// cells straddle small blocks) — and only faults, cross-slot accesses and
// observed multi-block accesses drop into the out-of-line slow path.
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "trace/hooks.h"
#include "util/check.h"

namespace presto::mem {

using Addr = std::uint64_t;
using BlockId = std::uint64_t;
using PageId = std::uint64_t;

// Ordered by permission: the inline multi-block path (span_bytes) tests a
// tag against the least one an access needs with a single compare.
enum class Tag : std::uint8_t { Invalid = 0, ReadOnly = 1, ReadWrite = 2 };

// Installed by the coherence protocol; on_fault runs on the faulting node's
// processor thread and must block it until the access is permitted.
class FaultHandler {
 public:
  virtual void on_fault(int node, BlockId b, bool is_write) = 0;

 protected:
  ~FaultHandler() = default;
};

struct MemConfig {
  std::uint32_t block_size = 32;   // power of two, 8..page_size
  std::uint32_t page_size = 4096;  // power of two, multiple of block_size
};

class GlobalSpace {
 public:
  GlobalSpace(int nodes, const MemConfig& cfg);

  int nodes() const { return nodes_; }
  std::uint32_t block_size() const { return cfg_.block_size; }
  std::uint32_t page_size() const { return cfg_.page_size; }
  std::size_t size_bytes() const { return size_; }
  std::size_t num_blocks() const { return size_ / cfg_.block_size; }
  std::size_t num_pages() const { return size_ / cfg_.page_size; }

  BlockId block_of(Addr a) const { return a >> block_shift_; }
  PageId page_of(Addr a) const { return a >> page_shift_; }
  PageId page_of_block(BlockId b) const {
    return b >> (page_shift_ - block_shift_);
  }
  Addr block_base(BlockId b) const { return b << block_shift_; }

  int home_of_page(PageId p) const {
    return page_home_[static_cast<std::size_t>(p)];
  }
  int home_of_block(BlockId b) const { return home_of_page(page_of_block(b)); }
  int home_of_addr(Addr a) const { return home_of_page(page_of(a)); }

  // ---- Allocation ----------------------------------------------------------

  // Allocates `bytes` rounded up to whole pages; `home(i)` gives the home
  // node of the i-th page of the allocation. Returns the base address.
  Addr alloc(std::size_t bytes, const std::function<int(PageId)>& home);

  // Serializer for structural growth: alloc resizes every node's page-copy
  // spine, which no concurrently-draining lane may observe. A
  // windowed engine installs its window-boundary gate here
  // (sim::Engine::boundary_gate); unset (the default), growth runs inline.
  void set_grow_gate(std::function<void(std::function<void()>)> gate) {
    grow_gate_ = std::move(gate);
  }

  // Allocates all pages on one node.
  Addr alloc_on_node(int node, std::size_t bytes);

  // Small-object bump allocation from a per-node arena (pages homed at the
  // node). Used for dynamically grown structures (quad-/oct-tree cells).
  Addr arena_alloc(int node, std::size_t bytes, std::size_t align = 8);

  // Arena mark/reset let an application rebuild a structure each iteration
  // at the *same* addresses (Barnes rebuilds its tree every step; address
  // stability is what makes the communication schedule repetitive).
  std::size_t arena_mark(int node) const;
  void arena_reset(int node, std::size_t mark);

  // ---- Commutative (reduction) regions -------------------------------------

  // Marks [base, base+bytes) as commutative: every block the range touches
  // may be updated with order-independent privatized int64 adds
  // (NodeCtx::cc_add). The marking is advisory for invalidation protocols —
  // only the ccached protocol, the tracer's merge attribution, and the
  // oracle's exemptions consult it. Set before the parallel section begins;
  // marks are never cleared.
  void set_commutative(Addr base, std::size_t bytes);
  bool is_commutative(BlockId b) const {
    const std::size_t i = static_cast<std::size_t>(b);
    return i < commutative_.size() && commutative_[i] != 0;
  }

  // ---- Access control ------------------------------------------------------

  // Each node holds, per page it has touched, one page copy: the page's tag
  // bytes followed by one data pointer per slot (a fixed sub-page unit of
  // max(block size, 256 B), capped at the page). A page the node never
  // touched has a null spine entry and reads as all-Invalid; a slot is
  // carved, zeroed, from the node's host arena on first use. Invariant: a
  // block whose tag is not Invalid has its slot resident, so a permitted
  // access needs no allocation check. Per-node storage is O(slots cached)
  // plus the O(pages) spine, not O(nodes × blocks) or a frame per page.
  Tag tag(int node, BlockId b) const {
    const std::uint8_t* pc = copy_of(node, page_of_block(b));
    if (pc == nullptr) return Tag::Invalid;
    return static_cast<Tag>(pc[b & tag_mask_]);
  }
  void set_tag(int node, BlockId b, Tag t) {
    std::uint8_t* pc = copy_of(node, page_of_block(b));
    if (pc == nullptr) {
      if (t == Tag::Invalid) return;  // a missing copy already reads Invalid
      pc = materialize_copy(node, page_of_block(b));
    }
    pc[b & tag_mask_] = static_cast<std::uint8_t>(t);
    if (t != Tag::Invalid) (void)slot_of(node, pc, block_base(b));
  }

  // Host bytes held for node-local copies: the per-node page spines plus the
  // host arena chunks that page copies and slots are carved from (telemetry
  // for the scale benchmarks; deterministic for a given run).
  std::size_t resident_bytes() const;

  // Node-local bytes of block b if its slot has been materialized, else
  // nullptr. Never allocates — safe for whole-space validation sweeps.
  const std::byte* peek_block(int node, BlockId b) const {
    const std::uint8_t* pc = copy_of(node, page_of_block(b));
    if (pc == nullptr) return nullptr;
    const Addr a = block_base(b);
    const std::byte* s = slots(pc)[slot_index(a)];
    return s == nullptr ? nullptr : s + (a & slot_mask_);
  }

  // Pointer to the node-local bytes of block b (slot allocated on demand).
  // The pointer stays valid for the life of the space.
  std::byte* block_data(int node, BlockId b) {
    const PageId p = page_of_block(b);
    std::uint8_t* pc = copy_of(node, p);
    if (pc == nullptr) pc = materialize_copy(node, p);
    const Addr a = block_base(b);
    return slot_of(node, pc, a) + (a & slot_mask_);
  }

  // ---- Application access path (runs on the node's processor thread) ------

  void set_fault_handler(FaultHandler* h) { fault_ = h; }

  // Attaches the observation bus (trace/hooks.h), or detaches with nullptr.
  void set_hooks(trace::Hooks* h) { hooks_ = h; }

  // Permitted accesses complete inline: a single-block access with one tag
  // check, and a multi-block access that lies inside one slot with every
  // covered tag permitting it and no hooks attached (an observer sees one
  // call per block, which only the slow path makes). Faults, cross-slot
  // accesses and observed multi-block accesses take the out-of-line slow
  // path.
  void read(int node, Addr a, void* out, std::size_t n) {
    const std::size_t off =
        static_cast<std::size_t>(a) & (cfg_.block_size - 1);
    const BlockId b = block_of(a);
    const std::uint8_t* pc = copy_of(node, page_of(a));
    if (off + n <= cfg_.block_size) [[likely]] {
      if (pc != nullptr &&
          pc[b & tag_mask_] != static_cast<std::uint8_t>(Tag::Invalid))
          [[likely]] {
        std::memcpy(out, slots(pc)[slot_index(a)] + (a & slot_mask_), n);
        if (hooks_ != nullptr) [[unlikely]]
          hooks_->on_app_read(node, b, off, out, n);
        return;
      }
    } else if (const std::byte* s = span_bytes(pc, a, n, Tag::ReadOnly)) {
      std::memcpy(out, s, n);
      return;
    }
    read_slow(node, a, out, n);
  }

  void write(int node, Addr a, const void* in, std::size_t n) {
    const std::size_t off =
        static_cast<std::size_t>(a) & (cfg_.block_size - 1);
    const BlockId b = block_of(a);
    const std::uint8_t* pc = copy_of(node, page_of(a));
    if (off + n <= cfg_.block_size) [[likely]] {
      if (pc != nullptr &&
          pc[b & tag_mask_] == static_cast<std::uint8_t>(Tag::ReadWrite))
          [[likely]] {
        std::memcpy(slots(pc)[slot_index(a)] + (a & slot_mask_), in, n);
        if (hooks_ != nullptr) [[unlikely]]
          hooks_->on_app_write(node, b, off, in, n);
        return;
      }
    } else if (std::byte* s = span_bytes(pc, a, n, Tag::ReadWrite)) {
      std::memcpy(s, in, n);
      return;
    }
    write_slow(node, a, in, n);
  }

  // Read-modify-write executed without yielding between the read and the
  // write once ReadWrite permission is held (the primitive shared locks are
  // built on). `fn` mutates the bytes in place.
  void rmw(int node, Addr a, std::size_t n,
           const std::function<void(void*)>& fn);

  template <typename T>
  T read_value(int node, Addr a) {
    T v;
    read(node, a, &v, sizeof(T));
    return v;
  }
  template <typename T>
  void write_value(int node, Addr a, const T& v) {
    write(node, a, &v, sizeof(T));
  }

 private:
  Addr alloc_now(std::size_t bytes, const std::function<int(PageId)>& home);
  void grow_to(std::size_t new_size);

  // ---- Node-local page copies ----------------------------------------------
  // A page copy is tag_bytes_ tag bytes (blocks per page, padded to pointer
  // alignment) followed by one pointer per slot of the page (null = not
  // cached); copy_bytes_ in all.
  std::uint8_t* copy_of(int node, PageId p) const {
    return spine_[static_cast<std::size_t>(node)][static_cast<std::size_t>(p)];
  }
  std::byte* const* slots(const std::uint8_t* pc) const {
    return reinterpret_cast<std::byte* const*>(pc + tag_bytes_);
  }
  std::size_t slot_index(Addr a) const {
    return static_cast<std::size_t>((a & (cfg_.page_size - 1)) >> slot_shift_);
  }
  // Base of the slot holding address a in page copy pc (carved on demand).
  std::byte* slot_of(int node, std::uint8_t* pc, Addr a) {
    std::byte* s = slots(pc)[slot_index(a)];
    return s != nullptr ? s : materialize_slot(node, pc, slot_index(a));
  }
  // Bytes of the n-byte multi-block access at a when it can complete as
  // one copy: it lies inside one slot of page copy pc, every block it covers
  // has a tag of at least `need` (Tag values are ordered by permission) and
  // no hooks are attached. Null otherwise. A permitted tag implies a
  // resident slot, so the slot pointer is never null here.
  std::byte* span_bytes(const std::uint8_t* pc, Addr a, std::size_t n,
                        Tag need) const {
    if (pc == nullptr || hooks_ != nullptr ||
        (a & slot_mask_) + n > slot_mask_ + 1)
      return nullptr;
    const std::uint8_t* t = pc + (block_of(a) & tag_mask_);
    const std::size_t count =
        static_cast<std::size_t>(block_of(a + n - 1) - block_of(a)) + 1;
    for (std::size_t i = 0; i < count; ++i)
      if (t[i] < static_cast<std::uint8_t>(need)) return nullptr;
    return slots(pc)[slot_index(a)] + (a & slot_mask_);
  }
  std::uint8_t* materialize_copy(int node, PageId p);
  std::byte* materialize_slot(int node, std::uint8_t* pc, std::size_t slot);
  // Bump-allocates `bytes` zeroed bytes from the node's host arena.
  std::byte* carve(int node, std::size_t bytes);

  void read_slow(int node, Addr a, void* out, std::size_t n);
  void write_slow(int node, Addr a, const void* in, std::size_t n);
  // Vectors to the fault handler until the tag permits the access.
  void resolve_fault(int node, BlockId b, bool is_write);

  const int nodes_;
  const MemConfig cfg_;
  int block_shift_ = 0;
  int page_shift_ = 0;
  int slot_shift_ = 0;          // log2 of the slot size
  Addr slot_mask_ = 0;          // slot size - 1
  BlockId tag_mask_ = 0;        // blocks per page - 1
  std::size_t tag_bytes_ = 0;   // tag bytes at the head of a page copy
  std::size_t copy_bytes_ = 0;  // whole page copy: tags + slot pointers
  std::size_t size_ = 0;

  std::vector<int> page_home_;
  // spine_[node][page] -> the node's page copy (null = never touched).
  std::vector<std::vector<std::uint8_t*>> spine_;

  // Host memory for one node's page copies and slots. Chunks never move or
  // shrink, so block_data pointers stay valid; only the owning node's
  // accesses and handlers carve from it, so windowed lanes never share one.
  struct HostArena {
    std::byte* cur = nullptr;
    std::size_t left = 0;
    std::size_t held = 0;  // bytes across all chunks
    std::vector<std::unique_ptr<std::byte[]>> chunks;
  };
  std::vector<HostArena> host_;

  struct Arena {
    Addr cur = 0;
    Addr end = 0;
    std::vector<Addr> chunks;  // page-aligned chunks in allocation order
  };
  std::vector<Arena> arenas_;

  // commutative_[block] != 0 — block belongs to a set_commutative region.
  // A plain byte vector (one per block in the space): regions are rare and
  // contiguous, and is_commutative sits on protocol hot paths.
  std::vector<std::uint8_t> commutative_;

  FaultHandler* fault_ = nullptr;
  trace::Hooks* hooks_ = nullptr;
  std::function<void(std::function<void()>)> grow_gate_;
};

}  // namespace presto::mem
