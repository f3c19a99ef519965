// Point-to-point interconnect model.
//
// Models a CM-5-style data network without contention: a message of b bytes
// sent at time t arrives at t + wire_latency + b * per_byte. Delivery between
// a fixed (src, dst) pair is FIFO — Stache's transaction serialization at the
// home node assumes ordered channels, which we enforce by clamping arrival
// times to be monotone per channel. Self-sends (protocol dispatch to the
// local node) use a cheaper loopback latency.
//
// Two delivery paths share the routing/FIFO logic:
//   * send_msg — the protocol fast path: the caller's header+payload bytes
//     are copied once into a pooled net::Record (net/record_pool.h), the
//     delivery event captures the record pointer, and the registered MsgSink
//     takes ownership of it at arrival time. The sink keeps the same record
//     through handler dispatch and hands it back with release(). No heap
//     allocation in steady state, no closure per message and no second copy.
//   * send — closure delivery for control messages and tests; the callable
//     goes straight into the engine's event queue.
//
// Records come from per-lane pools: the legacy canon has one pool, a
// windowed engine one per lane. A record is acquired and released on its
// destination's lane, so lanes never share a pool.
//
// A channel is only its FIFO clamp (the last arrival time, 8 bytes); it is
// "used" once that is non-zero, since the clamp makes every arrival >= 1.
// Channels live in one dense nodes² table indexed by src*nodes+dst on
// machines of up to kDenseNodeLimit nodes: a channel lookup is one
// multiply-add and the table is allocated exactly once up front.
//
// Above kDenseNodeLimit the dense table would be the largest allocation in
// the simulator (nodes² channels for traffic that is overwhelmingly
// neighbor/home-patterned), so each source instead keeps a flat dst->slot
// index (built lazily on the source's first send) plus a chunked arena of
// channels materialized on first use. Both the index and the arena are
// owned by the source — under the parallel windowed engine every touch
// happens on the source's lane, so no lock is needed. metadata_bytes then
// scales with channels actually used, not nodes².
//
// Windowed engines (sim/engine.h): a cross-node send issued inside a lane
// drain may not touch the destination lane's event queue, so it is *staged*
// in the source node's outbox — routing (the FIFO clamp, traffic counters,
// the hook call) still happens at send time, on state the source lane
// owns — and the boundary flush (BoundaryOp::kNet) walks sources 0..N-1 in
// send order, scheduling each delivery on the destination lane. The flush
// order is fixed, so message sequence numbers — and therefore every
// simulated result — are independent of how lanes were partitioned over
// workers. Self-sends and sends from outside any lane (setup, boundary
// context) take a record from the destination lane's pool directly.
//
// Staged record bytes are written once at send time: send_msg appends them
// to the source's open *arena*, and the boundary flush merely seals the
// arena (stamping its live-delivery count) and schedules events that, at
// arrival, copy the bytes into a record from the destination lane's pool —
// the one copy a cross-lane message needs, since the source lane may not
// touch that pool. A sealed arena is immutable, so destination lanes read
// it concurrently without synchronization beyond the window barrier's
// release/acquire edges; each delivery decrements the arena's live counter
// (single producer per arena, its consumers are the destination lanes — the
// counter is the only shared word), and the flush reclaims drained arenas
// into a freelist, so steady-state staging allocates nothing. Per-source
// staging is deliberate: a worker→worker mailbox indexing would make the
// flush order depend on the worker count, per-source order keeps it
// canonical for free.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/record_pool.h"
#include "sim/engine.h"
#include "sim/time.h"
#include "trace/hooks.h"

namespace presto::net {

struct NetConfig {
  sim::Time wire_latency = sim::microseconds(30);  // software messaging cost
  sim::Time per_byte = 100;                        // ~10 MB/s effective
  sim::Time self_latency = sim::microseconds(5);   // local protocol dispatch
};

class Network {
 public:
  // Receiver of typed messages (the protocol layer). on_msg takes ownership
  // of rec; the sink hands it back with release(dst, rec), from an event on
  // dst's lane.
  class MsgSink {
   public:
    virtual void on_msg(int dst, Record* rec) = 0;

   protected:
    ~MsgSink() = default;
  };

  // Widest machine that gets the dense nodes² channel table; larger
  // machines use the per-source sparse tables.
  static constexpr int kDenseNodeLimit = 64;

  Network(sim::Engine& engine, int nodes, const NetConfig& cfg);

  void set_msg_sink(MsgSink* sink) { sink_ = sink; }
  // Attaches the observation bus (trace/hooks.h), or detaches with nullptr.
  void set_hooks(trace::Hooks* h) { hooks_ = h; }

  // Typed fast path: copies header+payload into a pooled record; the sink
  // receives the concatenated record at the arrival time. `wire_bytes` is
  // the simulated message size (it can differ from the host record size).
  // Returns the arrival time. Callable from engine and processor threads.
  sim::Time send_msg(int src, int dst, std::size_t wire_bytes,
                     sim::Time depart, const void* header,
                     std::size_t header_len, const void* payload,
                     std::size_t payload_len);

  // Schedules deliver() to run in engine context at the arrival time of a
  // message of `bytes` bytes departing src at `depart`. Returns the arrival
  // time. Callable from both engine and processor threads (depart must be
  // the caller's current virtual time or later).
  template <typename F>
  sim::Time send(int src, int dst, std::size_t bytes, sim::Time depart,
                 F&& deliver) {
    const sim::Time arrival = route(src, dst, bytes, depart);
    if (src != dst && engine_.in_lane_context()) {
      stage_fn(src, dst, arrival, sim::InlineFn(std::forward<F>(deliver)));
    } else {
      engine_.schedule_on(engine_.windowed() ? dst : 0, arrival,
                          std::forward<F>(deliver));
    }
    return arrival;
  }

  // Returns a record delivered to dst (MsgSink::on_msg) to dst's pool.
  void release(int dst, Record* rec) { pool(dst).release(rec); }

  // Pooled records delivered or in flight and not yet released, over all
  // pools. Zero once the engine's queue has drained.
  std::size_t records_outstanding() const;

  // Lower bound on cross-node delivery latency. A windowed engine's window
  // width must not exceed this: a message departing at t < cap then arrives
  // at t + min_latency() >= cap, so boundary flushes never land in a
  // destination lane's past.
  sim::Time min_latency() const { return cfg_.wire_latency; }

  std::uint64_t messages_sent() const;
  std::uint64_t bytes_sent() const;
  std::uint64_t messages_from(int src) const {
    return per_node_msgs_[static_cast<std::size_t>(src)];
  }
  std::uint64_t bytes_from(int src) const {
    return per_node_bytes_[static_cast<std::size_t>(src)];
  }
  const NetConfig& config() const { return cfg_; }
  int nodes() const { return nodes_; }
  // Channels that have carried at least one message (test/telemetry hook).
  std::size_t channels_used() const;

  // Host bytes held by the channel tables, the record pools and the
  // windowed staging outboxes.
  std::size_t metadata_bytes() const;

  // Size of one channel in the pre-sparse dense table: FIFO clamp, used
  // flag and a per-channel record ring. The dense-equivalent baseline stays
  // anchored to it, so the scale benches' sub-quadratic gate keeps the
  // threshold it was set against even though a channel is now 8 bytes.
  static constexpr std::size_t kPreSparseChannelBytes = 48;

  // What the pre-sparse dense nodes² channel table would occupy for a
  // machine this wide — the baseline the scale benches report sub-quadratic
  // metadata against.
  static std::size_t dense_equiv_bytes(int nodes) {
    return static_cast<std::size_t>(nodes) * static_cast<std::size_t>(nodes) *
           kPreSparseChannelBytes;
  }

 private:
  // One (src, dst) channel: its FIFO clamp. Zero until the first message.
  struct Channel {
    sim::Time last_arrival = 0;
  };

  // Staged record bytes for one flush interval of one source. The arena
  // object's address is stable from the moment a record lands in it (the
  // byte vector may grow while open; offsets stay valid). Sealing stamps
  // `live` with the number of deliveries that will read the bytes; each
  // delivery decrements it, and an arena at zero is recycled.
  struct StagedArena {
    std::vector<std::byte> bytes;
    std::atomic<std::uint32_t> live{0};
  };

  // One staged cross-node delivery (windowed mode). Record deliveries keep
  // their header+payload bytes in a staging arena; closure deliveries carry
  // the callable itself.
  struct Staged {
    StagedArena* arena;  // bytes owner (records only; null for closures)
    int dst;
    sim::Time arrival;
    bool is_record;
    std::uint32_t header_len;
    std::uint32_t payload_len;
    std::size_t byte_off;  // into arena->bytes (records only)
    sim::InlineFn fn;      // closure delivery when !is_record
  };
  // Per-source mailbox; entries are flushed in send order. The open arena
  // collects this interval's record bytes; sealed arenas are in flight until
  // their deliveries drain, then return to the freelist with their capacity.
  struct Outbox {
    std::vector<Staged> entries;
    std::unique_ptr<StagedArena> open;   // created on first staged record
    std::uint32_t open_records = 0;      // records staged in `open`
    std::vector<std::unique_ptr<StagedArena>> sealed;
    std::vector<std::unique_ptr<StagedArena>> free;
  };

  // Sparse mode (> kDenseNodeLimit nodes): per-source open-channel table.
  // The dst->slot index array is built on the source's first send; channels
  // live in fixed-size chunks that never move.
  struct SrcChannels {
    std::vector<std::uint32_t> slot;  // dst -> arena slot + 1; 0 = unopened
    std::vector<std::unique_ptr<Channel[]>> chunks;
    std::uint32_t count = 0;
  };
  static constexpr std::uint32_t kSparseChunk = 8;  // channels per chunk

  // Computes the FIFO-clamped arrival time and records traffic stats.
  sim::Time route(int src, int dst, std::size_t bytes, sim::Time depart);
  Channel& channel(int src, int dst) {
    if (!channels_.empty())
      return channels_[static_cast<std::size_t>(src) *
                           static_cast<std::size_t>(nodes_) +
                       static_cast<std::size_t>(dst)];
    return sparse_channel(src, dst);
  }
  Channel& sparse_channel(int src, int dst);

  // The pool records delivered to dst come from: dst's lane pool when
  // windowed, the single pool otherwise.
  RecordPool& pool(int dst) {
    return pools_[pools_.size() == 1 ? 0 : static_cast<std::size_t>(dst)];
  }
  void stage_fn(int src, int dst, sim::Time arrival, sim::InlineFn fn);
  // Boundary flush (BoundaryOp::kNet): sources 0..N-1 in send order.
  void flush_staged();
  void flush_outbox(Outbox& ob);
  // Stamps the open arena's live count and moves it to the sealed list
  // (no-op when it holds no records).
  void seal_open(Outbox& ob);
  // Recycles sealed arenas whose deliveries have all run.
  void reclaim_arenas(Outbox& ob);

  sim::Engine& engine_;
  const int nodes_;
  const NetConfig cfg_;
  MsgSink* sink_ = nullptr;
  trace::Hooks* hooks_ = nullptr;
  // Dense nodes² table, [src*nodes + dst]; sized once in the constructor.
  // Empty above kDenseNodeLimit, where sparse_ takes over.
  std::vector<Channel> channels_;
  std::vector<SrcChannels> sparse_;
  // One record pool (legacy) or one per lane (windowed).
  std::vector<RecordPool> pools_;
  // Traffic counters are per-source (the source lane owns its own slots, so
  // concurrent lane drains never share a counter); totals are summed on read.
  std::vector<std::uint64_t> per_node_msgs_;
  std::vector<std::uint64_t> per_node_bytes_;
  // Windowed mode only (empty otherwise).
  std::vector<Outbox> outboxes_;
  // Planted-bug state (check/bughook.h delay_window_flush): a one-shot hold
  // of one source's mailbox entries for a full window, recovered at the next
  // flush. Only entries move; their arena seals normally in the owning
  // outbox, so the held records' bytes stay valid.
  Outbox holdover_;
  bool flush_delayed_ = false;
};

}  // namespace presto::net
