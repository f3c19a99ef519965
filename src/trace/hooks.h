// The observation bus: the one interface through which the simulator's
// layers report what happens, to whichever subscriber is attached — the
// event tracer (trace/tracer.h), the coherence invariant oracle
// (check/oracle.h), or both through a Fanout.
//
// Deliberately dependency-free (standard headers, sim/time.h and two
// forward declarations): mem/, net/, proto/, sim/ and runtime/ each hold one
// `trace::Hooks*` set by runtime::System and pay one null-pointer test per
// hook site when nothing is attached. Every hook has an empty default body,
// so a subscriber overrides only what it uses. Hooks are pure observation:
// subscribers never charge simulated time or schedule events, so simulated
// results are bit-identical with or without one (tests/trace_test.cc pins
// this against the golden matrix; tests/hook_bus_test.cc pins that a
// subscriber sees the same calls alone or behind a Fanout).
//
// Each hook passes the relevant clock explicitly (the caller knows whether
// it runs on a node's processor clock or the engine clock), so subscribers
// need no backdoor into either.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "sim/time.h"

namespace presto::mem {
enum class Tag : std::uint8_t;
}  // namespace presto::mem

namespace presto::proto {
struct Msg;
}  // namespace presto::proto

namespace presto::trace {

class Hooks {
 public:
  // Completed application accesses (mem/global_space.{h,cc}), one call per
  // block touched, after the bytes moved, with the tag still held.
  virtual void on_app_read(int /*node*/, std::uint64_t /*block*/,
                           std::size_t /*off*/, const void* /*seen*/,
                           std::size_t /*n*/) {}
  virtual void on_app_write(int /*node*/, std::uint64_t /*block*/,
                            std::size_t /*off*/, const void* /*data*/,
                            std::size_t /*n*/) {}
  // Privatized commutative update (proto/ccached.cc): `delta` will be added
  // to the 64-bit word at byte offset `off` when the node's log merges.
  virtual void on_cc_update(int /*node*/, std::uint64_t /*block*/,
                            std::size_t /*off*/, std::int64_t /*delta*/) {}

  // Phase directives (runtime/node_ctx.h). `begin` fires before the
  // protocol's presend work, `ready` after presend + barrier complete.
  virtual void on_phase_begin(int /*node*/, int /*phase*/, sim::Time /*t*/) {}
  virtual void on_phase_ready(int /*node*/, int /*phase*/, sim::Time /*t*/) {}
  virtual void on_phase_flush(int /*node*/, int /*phase*/, sim::Time /*t*/) {}

  // Collectives (runtime/barrier.cc).
  virtual void on_barrier_arrive(int /*node*/, std::uint64_t /*epoch*/,
                                 sim::Time /*t*/) {}
  virtual void on_barrier_release(int /*node*/, std::uint64_t /*epoch*/,
                                  sim::Time /*t*/) {}

  // Shared locks (runtime/lock.cc); `lock_block` is the lock word's block.
  virtual void on_lock_acquire(int /*node*/, std::uint64_t /*lock_block*/,
                               sim::Time /*t*/) {}
  virtual void on_lock_acquired(int /*node*/, std::uint64_t /*lock_block*/,
                                sim::Time /*t*/, bool /*contended*/) {}
  virtual void on_lock_release(int /*node*/, std::uint64_t /*lock_block*/,
                               sim::Time /*t*/) {}

  // Remote-miss window (proto/stache.cc, writeupdate.cc, ccached.cc
  // on_fault). t0/t1 bracket exactly the interval the protocol adds to
  // remote_wait.
  virtual void on_miss_start(int /*node*/, std::uint64_t /*block*/,
                             bool /*is_write*/, sim::Time /*t0*/) {}
  virtual void on_miss_end(int /*node*/, std::uint64_t /*block*/,
                           bool /*is_write*/, sim::Time /*t1*/) {}

  // Protocol messages (proto/protocol.cc). Send fires as the header and
  // payload are about to be copied into a pooled record (m.data still
  // points at the sender's bytes); recv fires at the FIFO-clamped arrival
  // with the dispatch time (handler occupancy start) already resolved.
  virtual void on_msg_send(int /*src*/, int /*dst*/, const proto::Msg& /*m*/,
                           std::uint32_t /*wire_bytes*/,
                           sim::Time /*depart*/) {}
  virtual void on_msg_recv(int /*dst*/, int /*src*/, std::uint8_t /*msg_type*/,
                           std::uint64_t /*block*/,
                           std::uint32_t /*wire_bytes*/, sim::Time /*arrival*/,
                           sim::Time /*dispatch*/) {}
  // Every routed network message, protocol or closure (net/network.cc).
  virtual void on_message(int /*src*/, int /*dst*/, std::size_t /*bytes*/,
                          sim::Time /*depart*/, sim::Time /*arrival*/) {}

  // A block copy or permission change lands at a node (proto/protocol.h).
  virtual void on_install(int /*node*/, std::uint64_t /*block*/,
                          const std::byte* /*data*/, mem::Tag /*tag*/) {}
  // A BulkData presend run installed `count` contiguous blocks at `node`
  // (proto/predictive.cc). Fires once per run, after the installs.
  virtual void on_presend_install(int /*node*/, int /*src*/,
                                  std::uint64_t /*block0*/,
                                  std::uint32_t /*count*/, sim::Time /*t*/) {}

  // Context switches (sim/processor.cc): park in block() / resume from it.
  virtual void on_ctx_block(int /*node*/, sim::Time /*t*/) {}
  virtual void on_ctx_resume(int /*node*/, sim::Time /*t*/) {}

 protected:
  ~Hooks() = default;
};

// Two subscribers on one bus: every hook calls `first`, then `second`.
class Fanout final : public Hooks {
 public:
  Fanout(Hooks* first, Hooks* second) : a_(first), b_(second) {}

  void on_app_read(int node, std::uint64_t block, std::size_t off,
                   const void* seen, std::size_t n) override {
    both(&Hooks::on_app_read, node, block, off, seen, n);
  }
  void on_app_write(int node, std::uint64_t block, std::size_t off,
                    const void* data, std::size_t n) override {
    both(&Hooks::on_app_write, node, block, off, data, n);
  }
  void on_cc_update(int node, std::uint64_t block, std::size_t off,
                    std::int64_t delta) override {
    both(&Hooks::on_cc_update, node, block, off, delta);
  }
  void on_phase_begin(int node, int phase, sim::Time t) override {
    both(&Hooks::on_phase_begin, node, phase, t);
  }
  void on_phase_ready(int node, int phase, sim::Time t) override {
    both(&Hooks::on_phase_ready, node, phase, t);
  }
  void on_phase_flush(int node, int phase, sim::Time t) override {
    both(&Hooks::on_phase_flush, node, phase, t);
  }
  void on_barrier_arrive(int node, std::uint64_t epoch, sim::Time t) override {
    both(&Hooks::on_barrier_arrive, node, epoch, t);
  }
  void on_barrier_release(int node, std::uint64_t epoch,
                          sim::Time t) override {
    both(&Hooks::on_barrier_release, node, epoch, t);
  }
  void on_lock_acquire(int node, std::uint64_t lock_block,
                       sim::Time t) override {
    both(&Hooks::on_lock_acquire, node, lock_block, t);
  }
  void on_lock_acquired(int node, std::uint64_t lock_block, sim::Time t,
                        bool contended) override {
    both(&Hooks::on_lock_acquired, node, lock_block, t, contended);
  }
  void on_lock_release(int node, std::uint64_t lock_block,
                       sim::Time t) override {
    both(&Hooks::on_lock_release, node, lock_block, t);
  }
  void on_miss_start(int node, std::uint64_t block, bool is_write,
                     sim::Time t0) override {
    both(&Hooks::on_miss_start, node, block, is_write, t0);
  }
  void on_miss_end(int node, std::uint64_t block, bool is_write,
                   sim::Time t1) override {
    both(&Hooks::on_miss_end, node, block, is_write, t1);
  }
  void on_msg_send(int src, int dst, const proto::Msg& m,
                   std::uint32_t wire_bytes, sim::Time depart) override {
    both(&Hooks::on_msg_send, src, dst, m, wire_bytes, depart);
  }
  void on_msg_recv(int dst, int src, std::uint8_t msg_type,
                   std::uint64_t block, std::uint32_t wire_bytes,
                   sim::Time arrival, sim::Time dispatch) override {
    both(&Hooks::on_msg_recv, dst, src, msg_type, block, wire_bytes, arrival,
         dispatch);
  }
  void on_message(int src, int dst, std::size_t bytes, sim::Time depart,
                  sim::Time arrival) override {
    both(&Hooks::on_message, src, dst, bytes, depart, arrival);
  }
  void on_install(int node, std::uint64_t block, const std::byte* data,
                  mem::Tag tag) override {
    both(&Hooks::on_install, node, block, data, tag);
  }
  void on_presend_install(int node, int src, std::uint64_t block0,
                          std::uint32_t count, sim::Time t) override {
    both(&Hooks::on_presend_install, node, src, block0, count, t);
  }
  void on_ctx_block(int node, sim::Time t) override {
    both(&Hooks::on_ctx_block, node, t);
  }
  void on_ctx_resume(int node, sim::Time t) override {
    both(&Hooks::on_ctx_resume, node, t);
  }

 private:
  // Arguments keep the hook's exact parameter types (references included).
  template <typename... P>
  void both(void (Hooks::*hook)(P...), std::type_identity_t<P>... args) {
    (a_->*hook)(args...);
    (b_->*hook)(args...);
  }

  Hooks* a_;
  Hooks* b_;
};

}  // namespace presto::trace
