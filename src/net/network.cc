#include "net/network.h"

#include <cstring>

#include "check/bughook.h"
#include "util/check.h"

namespace presto::net {

Network::Network(sim::Engine& engine, int nodes, const NetConfig& cfg)
    : engine_(engine),
      nodes_(nodes),
      cfg_(cfg),
      per_node_msgs_(static_cast<std::size_t>(nodes), 0),
      per_node_bytes_(static_cast<std::size_t>(nodes), 0) {
  pools_.resize(engine_.windowed()
                    ? static_cast<std::size_t>(engine_.num_lanes())
                    : 1);
  if (nodes <= kDenseNodeLimit)
    channels_.resize(static_cast<std::size_t>(nodes) *
                     static_cast<std::size_t>(nodes));
  else
    sparse_.resize(static_cast<std::size_t>(nodes));
  if (engine_.windowed()) {
    PRESTO_CHECK(engine_.window() <= min_latency(),
                 "window width " << engine_.window()
                                 << " exceeds the network's minimum latency "
                                 << min_latency());
    outboxes_.resize(static_cast<std::size_t>(nodes));
    engine_.set_boundary_op(sim::BoundaryOp::kNet, [this] { flush_staged(); });
  }
}

std::uint64_t Network::messages_sent() const {
  std::uint64_t n = 0;
  for (const std::uint64_t m : per_node_msgs_) n += m;
  return n;
}

std::uint64_t Network::bytes_sent() const {
  std::uint64_t n = 0;
  for (const std::uint64_t b : per_node_bytes_) n += b;
  return n;
}

Network::Channel& Network::sparse_channel(int src, int dst) {
  SrcChannels& sc = sparse_[static_cast<std::size_t>(src)];
  if (sc.slot.empty()) sc.slot.resize(static_cast<std::size_t>(nodes_), 0);
  std::uint32_t& s = sc.slot[static_cast<std::size_t>(dst)];
  if (s == 0) {
    if (sc.count % kSparseChunk == 0)
      sc.chunks.push_back(std::make_unique<Channel[]>(kSparseChunk));
    s = ++sc.count;
  }
  const std::uint32_t idx = s - 1;
  return sc.chunks[idx / kSparseChunk][idx % kSparseChunk];
}

std::size_t Network::channels_used() const {
  std::size_t n = 0;
  for (const auto& ch : channels_)
    if (ch.last_arrival != 0) ++n;
  for (const auto& sc : sparse_)
    for (std::uint32_t i = 0; i < sc.count; ++i)
      if (sc.chunks[i / kSparseChunk][i % kSparseChunk].last_arrival != 0)
        ++n;
  return n;
}

std::size_t Network::records_outstanding() const {
  std::size_t n = 0;
  for (const auto& p : pools_) n += p.outstanding();
  return n;
}

std::size_t Network::metadata_bytes() const {
  std::size_t n = channels_.capacity() * sizeof(Channel);
  for (const auto& sc : sparse_)
    n += sc.slot.capacity() * sizeof(std::uint32_t) +
         sc.chunks.capacity() * sizeof(sc.chunks[0]) +
         sc.chunks.size() * kSparseChunk * sizeof(Channel);
  n += pools_.capacity() * sizeof(RecordPool);
  for (const auto& p : pools_) n += p.metadata_bytes();
  for (const auto& ob : outboxes_) {
    n += ob.entries.capacity() * sizeof(Staged);
    if (ob.open != nullptr) n += sizeof(StagedArena) + ob.open->bytes.capacity();
    for (const auto& a : ob.sealed) n += sizeof(StagedArena) + a->bytes.capacity();
    for (const auto& a : ob.free) n += sizeof(StagedArena) + a->bytes.capacity();
  }
  n += holdover_.entries.capacity() * sizeof(Staged);
  return n;
}

sim::Time Network::route(int src, int dst, std::size_t bytes,
                         sim::Time depart) {
  PRESTO_CHECK(src >= 0 && src < nodes_ && dst >= 0 && dst < nodes_,
               "bad endpoints " << src << "->" << dst);
  const sim::Time latency =
      (src == dst ? cfg_.self_latency
                  : cfg_.wire_latency +
                        static_cast<sim::Time>(bytes) * cfg_.per_byte);
  sim::Time arrival = depart + latency;

  Channel& ch = channel(src, dst);
  if (arrival <= ch.last_arrival) arrival = ch.last_arrival + 1;
  ch.last_arrival = arrival;

  ++per_node_msgs_[static_cast<std::size_t>(src)];
  per_node_bytes_[static_cast<std::size_t>(src)] += bytes;
  if (hooks_ != nullptr) [[unlikely]]
    hooks_->on_message(src, dst, bytes, depart, arrival);
  return arrival;
}

sim::Time Network::send_msg(int src, int dst, std::size_t wire_bytes,
                            sim::Time depart, const void* header,
                            std::size_t header_len, const void* payload,
                            std::size_t payload_len) {
  PRESTO_CHECK(sink_ != nullptr, "send_msg with no MsgSink registered");
  const sim::Time arrival = route(src, dst, wire_bytes, depart);
  if (src != dst && engine_.in_lane_context()) {
    PRESTO_CHECK(engine_.current_lane() == src,
                 "lane " << engine_.current_lane() << " sending as " << src);
    // The source lane may not touch the destination's pool: header+payload
    // land contiguously in the source's open arena, and the delivery
    // scheduled by the boundary flush copies them into a record from the
    // destination lane's pool.
    Outbox& ob = outboxes_[static_cast<std::size_t>(src)];
    if (ob.open == nullptr) ob.open = std::make_unique<StagedArena>();
    StagedArena& a = *ob.open;
    const std::size_t off = a.bytes.size();
    const auto* h = static_cast<const std::byte*>(header);
    a.bytes.insert(a.bytes.end(), h, h + header_len);
    if (payload_len > 0) {
      const auto* p = static_cast<const std::byte*>(payload);
      a.bytes.insert(a.bytes.end(), p, p + payload_len);
    }
    ++ob.open_records;
    ob.entries.push_back(Staged{&a, dst, arrival, /*is_record=*/true,
                                static_cast<std::uint32_t>(header_len),
                                static_cast<std::uint32_t>(payload_len), off,
                                sim::InlineFn()});
    return arrival;
  }
  // One copy: the record is the destination's from here on, and the event
  // capture is the record pointer — no per-message allocation.
  Record* rec = pool(dst).acquire(header, header_len, payload, payload_len);
  engine_.schedule_on(engine_.windowed() ? dst : 0, arrival,
                      [this, rec, dst] { sink_->on_msg(dst, rec); });
  return arrival;
}

void Network::stage_fn(int src, int dst, sim::Time arrival, sim::InlineFn fn) {
  PRESTO_CHECK(engine_.current_lane() == src,
               "lane " << engine_.current_lane() << " sending as " << src);
  outboxes_[static_cast<std::size_t>(src)].entries.push_back(
      Staged{nullptr, dst, arrival, /*is_record=*/false, 0, 0, 0,
             std::move(fn)});
}

void Network::seal_open(Outbox& ob) {
  if (ob.open_records == 0) return;
  // The count is the arena's delivery obligation; the window barrier's
  // release/acquire edges publish the bytes to the destination lanes that
  // will read them.
  ob.open->live.store(ob.open_records, std::memory_order_release);
  ob.sealed.push_back(std::move(ob.open));
  if (!ob.free.empty()) {
    ob.open = std::move(ob.free.back());
    ob.free.pop_back();
  } else {
    ob.open = std::make_unique<StagedArena>();
  }
  ob.open_records = 0;
}

void Network::reclaim_arenas(Outbox& ob) {
  for (std::size_t i = 0; i < ob.sealed.size();) {
    if (ob.sealed[i]->live.load(std::memory_order_acquire) != 0) {
      ++i;
      continue;
    }
    ob.sealed[i]->bytes.clear();  // keep capacity
    ob.free.push_back(std::move(ob.sealed[i]));
    ob.sealed[i] = std::move(ob.sealed.back());
    ob.sealed.pop_back();
  }
}

void Network::flush_staged() {
  // A mailbox held back by the planted delay bug is recovered first, so the
  // fault stays a one-window reordering rather than a lost message.
  if (!holdover_.entries.empty()) flush_outbox(holdover_);
  // The planted bug fires only under a pooled drain (workers > 1): it models
  // a worker-pool flush-coordination mistake, and gating it this way keeps a
  // serial windowed run in the same process (the differential's reference)
  // clean while the parallel run under test diverges.
  if (check::bug_hooks().delay_window_flush && !flush_delayed_ && nodes_ > 1 &&
      engine_.workers() > 1 && !outboxes_[1].entries.empty()) [[unlikely]] {
    // Planted bug (one-shot): hold source 1's mailbox for a full window. The
    // messages physically sit in the mailbox, so their wire departure — and
    // therefore arrival — slips by the window width (merely re-inserting the
    // events late would be invisible: delivery times are absolute stamps).
    // Only the entries move; their record bytes stay in source 1's arena,
    // which seals normally below and is reclaimed once the late deliveries
    // finally run.
    flush_delayed_ = true;
    std::swap(holdover_.entries, outboxes_[1].entries);
    for (Staged& s : holdover_.entries) s.arrival += engine_.window();
  }
  for (Outbox& ob : outboxes_) {
    reclaim_arenas(ob);
    seal_open(ob);
    flush_outbox(ob);
  }
}

void Network::flush_outbox(Outbox& ob) {
  for (Staged& s : ob.entries) {
    if (s.is_record) {
      // At arrival, copy out of the sealed arena into a record from the
      // destination lane's pool: the capture fits the engine's inline
      // closure storage, and the decrement is the arena's only shared word.
      engine_.schedule_on(s.dst, s.arrival,
                          [this, a = s.arena, off = s.byte_off,
                           len = static_cast<std::size_t>(s.header_len) +
                                 s.payload_len,
                           dst = s.dst] {
                            Record* rec = pool(dst).acquire(
                                a->bytes.data() + off, len, nullptr, 0);
                            a->live.fetch_sub(1, std::memory_order_release);
                            sink_->on_msg(dst, rec);
                          });
    } else {
      engine_.schedule_on(s.dst, s.arrival, std::move(s.fn));
    }
  }
  ob.entries.clear();
}

}  // namespace presto::net
