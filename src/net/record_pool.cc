#include "net/record_pool.h"

#include <algorithm>
#include <new>

namespace presto::net {

Record* RecordPool::carve(std::size_t cls) {
  if (cls >= classes_.size()) classes_.resize(cls + 1);
  Class& c = classes_[cls];
  const std::size_t block = kMinBlock << cls;
  // Double the class's capacity with each chunk (four blocks at first), up
  // to kMaxChunkBytes; one block when a single record exceeds the cap.
  const std::size_t n = std::max<std::size_t>(
      1, std::min(std::max<std::size_t>(c.carved, 4), kMaxChunkBytes / block));
  chunks_.emplace_back(new std::byte[n * block]);
  std::byte* base = chunks_.back().get();
  chunk_bytes_ += n * block;
  c.carved += n;
  // Blocks 1..n-1 go on the freelist in address order; block 0 is returned.
  for (std::size_t i = n - 1; i >= 1; --i) {
    Record* r = new (base + i * block) Record{c.free, 0};
    c.free = r;
  }
  return new (base) Record{nullptr, 0};
}

}  // namespace presto::net
