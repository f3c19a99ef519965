// Pooled message records: the one host copy of a protocol message.
//
// A Record is a small header followed by the message bytes (the protocol's
// header + payload, contiguous). Records live in size-classed freelists
// carved from chunks that never move, so a Record pointer stays valid from
// acquire() until release() however much the pool grows in between — the
// delivery and dispatch events capture it directly, with no queue behind
// them. Class k holds blocks of kMinBlock << k bytes, so a record of any
// size fits (coalesced bulk presends are unbounded runs of blocks); release
// pushes onto the class's freelist and acquire pops it, so the most recently
// freed block — the one still in cache — is reused first.
//
// A pool is single-owner: the legacy engine has one, a windowed engine has
// one per lane (net::Network), and only the owning lane's events touch it.
#pragma once

#include <bit>
#include <cstddef>
#include <cstring>
#include <memory>
#include <vector>

namespace presto::net {

struct Record {
  Record* next;     // freelist link while pooled
  std::size_t len;  // message bytes in data()

  std::byte* data() { return reinterpret_cast<std::byte*>(this + 1); }
  const std::byte* data() const {
    return reinterpret_cast<const std::byte*>(this + 1);
  }
};
static_assert(sizeof(Record) == 16, "record data stays 16-byte aligned");

// Cache-line aligned: a windowed network keeps its lanes' pools side by side
// in one vector, and lanes drained by different workers must not share a
// line.
class alignas(64) RecordPool {
 public:
  // Smallest block (header included); class k blocks are kMinBlock << k.
  static constexpr std::size_t kMinBlockShift = 6;
  static constexpr std::size_t kMinBlock = std::size_t{1} << kMinBlockShift;
  // Chunks grow geometrically per class, capped at this many bytes (a
  // record larger than the cap gets a chunk of its own).
  static constexpr std::size_t kMaxChunkBytes = 64 * 1024;

  // Returns a record holding the concatenation of the two spans (either may
  // be empty). The record is the caller's until release().
  Record* acquire(const void* a, std::size_t a_len, const void* b,
                  std::size_t b_len) {
    const std::size_t len = a_len + b_len;
    const std::size_t cls = class_of(len);
    Record* r = cls < classes_.size() ? classes_[cls].free : nullptr;
    if (r != nullptr)
      classes_[cls].free = r->next;
    else
      r = carve(cls);
    r->len = len;
    if (a_len != 0) std::memcpy(r->data(), a, a_len);
    if (b_len != 0) std::memcpy(r->data() + a_len, b, b_len);
    ++outstanding_;
    return r;
  }

  // Returns r (from this pool's acquire) to its class's freelist.
  void release(Record* r) {
    Class& c = classes_[class_of(r->len)];
    r->next = c.free;
    c.free = r;
    --outstanding_;
  }

  // Records acquired and not yet released.
  std::size_t outstanding() const { return outstanding_; }

  // Host bytes held: carved chunks plus the pool's own bookkeeping.
  std::size_t metadata_bytes() const {
    return chunk_bytes_ + classes_.capacity() * sizeof(Class) +
           chunks_.capacity() * sizeof(chunks_[0]);
  }

  // Block bytes (header included) of the class a `len`-byte record uses.
  static std::size_t block_bytes(std::size_t len) {
    return kMinBlock << class_of(len);
  }

 private:
  struct Class {
    Record* free = nullptr;
    std::size_t carved = 0;  // blocks carved for this class so far
  };

  static std::size_t class_of(std::size_t len) {
    const std::size_t need = sizeof(Record) + len;
    return need <= kMinBlock
               ? 0
               : static_cast<std::size_t>(std::bit_width(need - 1)) -
                     kMinBlockShift;
  }

  // Carves a new chunk for class cls, returns its first block and pushes
  // the rest onto the freelist.
  Record* carve(std::size_t cls);

  std::vector<Class> classes_;
  std::vector<std::unique_ptr<std::byte[]>> chunks_;
  std::size_t chunk_bytes_ = 0;
  std::size_t outstanding_ = 0;
};

}  // namespace presto::net
