// Deterministic discrete-event engine.
//
// Events execute in strict (time, insertion sequence) order. Simulated
// processors (sim/processor.h) run application code on their own user-level
// fibers, but exactly one fiber runs at any moment, so execution is
// sequentially deterministic and needs no other synchronization. The event
// loop itself has no dedicated context: run() drives it on the caller until
// an event resumes a processor, after which whichever fiber yields drives it
// inline (see processor.h). The whole legacy engine lives on one OS thread
// and a handoff is a user-level stack switch.
//
// The queue is built for host throughput. Ordering is a 4-ary implicit heap
// whose entries carry the (time, seq) key inline, so sifts never leave the
// heap array; they compare the key as one unsigned 128-bit value and pick
// the best of four children without a data-dependent branch. A processor
// resume -- by far the most common event, since simulated processors yield
// at nearly every charge() -- is a tagged heap entry naming the processor
// (schedule_resume), with no closure behind it. Every other event is a
// closure in a slab of fixed-size slots recycled through a freelist (no
// per-event heap allocation; see sim/inline_fn.h). In the legacy canon a
// horizon yield fuses its schedule with the next pop: the yielder's resume
// either runs in place (it is the earliest event) or replaces the root,
// costing one sift instead of a sift-up plus a sift-down.
//
// ---- Windowed (lane) mode -------------------------------------------------
//
// enable_windows() switches the engine to a conservative-window organization:
// every simulated node owns a private event *lane* (its own heap, slab,
// sequence counter and clock), and run() proceeds in global windows. Each
// window computes the low watermark (the minimum pending event time across
// lanes), sets every lane's cap to watermark + W where W is the window width
// (at most the network's minimum cross-node latency, see
// net::Network::min_latency), drains every lane independently up to its cap,
// and then runs the registered *boundary operations* in a fixed slot order —
// network mailbox flush, space growth gates, barrier scan, oracle replay,
// trace sequence stamping. Because lanes share no mutable state during a
// drain (all cross-node effects are staged and applied at the boundary), the
// lanes may be drained in any order — or concurrently by a worker pool
// (Backend::kParallel, sim/parallel.h) — and the result is bit-identical to
// draining them serially in lane order. Windowed mode is opt-in: with
// window 0 (the default) the engine is a single lane and behaves exactly as
// before, preserving every legacy golden number.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/fiber.h"
#include "sim/inline_fn.h"
#include "sim/time.h"
#include "trace/hooks.h"

namespace presto::sim {

class Processor;
class WindowPool;
struct WindowPoolStats;

// Fixed boundary-operation slots, run in enum order at every window
// boundary (serial, on run()'s caller). Re-registering a slot overwrites it,
// so a subsystem replaced mid-setup (e.g. an oracle re-attached by
// enable_oracle) simply installs its new callback over the old one.
enum class BoundaryOp {
  kNet = 0,   // flush staged cross-node messages, in source order
  kSpace,     // service deferred allocation/growth gates, in lane order
  kBarrier,   // scan deferred barrier arrivals, fold reductions, release
  kOracle,    // replay buffered shadow-image checks in canonical order
  kTrace,     // assign trace sequence numbers to this window's events
};
inline constexpr int kNumBoundaryOps = 5;

class Engine {
 public:
  explicit Engine(Backend backend = default_backend());
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Backend backend() const { return backend_; }

  // Schedules fn to run in engine context at absolute time t (clamped to the
  // current time if in the past). Events at equal times run in schedule
  // order. In windowed mode the event lands on the calling context's lane.
  template <typename F>
  void schedule_at(Time t, F&& fn) {
    push_event(t, InlineFn(std::forward<F>(fn)));
  }
  template <typename F>
  void schedule_in(Time delay, F&& fn) {
    check_delay(delay);
    push_event(now() + delay, InlineFn(std::forward<F>(fn)));
  }
  // Windowed mode: schedules onto an explicit lane (cross-lane effects at a
  // window boundary). Equivalent to schedule_at on lane 0 when windows are
  // off.
  template <typename F>
  void schedule_on(int lane, Time t, F&& fn) {
    push_event_on(lane, t, InlineFn(std::forward<F>(fn)));
  }
  // Schedules a resume of processor `proc` on `lane` at t (clamped to the
  // lane's clock), ordered exactly like a closure scheduled at the same
  // point. The entry needs no closure or slab slot. A resume that pops after
  // its processor finished is a no-op.
  void schedule_resume(int lane, Time t, int proc);

  // Time of the event currently executing (or the last one executed) on the
  // calling context's lane. Outside any lane in windowed mode this is the
  // current window's watermark.
  Time now() const {
    if (!windowed_) return lane0_->now;
    return tls_engine_ == this ? lanes_[static_cast<std::size_t>(tls_lane_)]->now
                               : global_now_;
  }

  // Earliest pending event time, or kTimeNever when the queue is empty.
  // Running processors yield when their local clock passes this horizon so
  // that cross-processor effects interleave at event granularity. Windowed
  // mode: the calling lane's head (lane-local by construction).
  Time horizon() const {
    const Lane& l =
        windowed_ && tls_engine_ == this
            ? *lanes_[static_cast<std::size_t>(tls_lane_)]
            : *lane0_;
    return l.heap.empty() ? kTimeNever : l.heap[0].t;
  }

  // Horizon variant for processor yields: the lane head only if it will
  // still execute in the current window. An event beyond the cap cannot run
  // until the next window, so a computing processor need not yield for it.
  Time yield_horizon() const {
    const Lane& l =
        windowed_ && tls_engine_ == this
            ? *lanes_[static_cast<std::size_t>(tls_lane_)]
            : *lane0_;
    if (l.heap.empty()) return kTimeNever;
    const Time h = l.heap[0].t;
    return h < l.cap ? h : kTimeNever;
  }

  // ---- Windowed mode --------------------------------------------------------

  // Switches to windowed (lane-per-node) execution: `lanes` event lanes,
  // window width `window` (>= 1; must not exceed the network's minimum
  // cross-node latency or staged deliveries could land in a lane's past).
  // With backend kParallel, `workers` persistent worker threads drain the
  // lanes concurrently (clamped to [1, lanes]); kFiber drains them
  // serially and ignores `workers`. `max_batch` caps a worker's spin-acquired
  // consecutive-window streak (0 = unbounded; host-only knob, see
  // sim/parallel.h — simulated results are invariant to it). Must be called
  // before any processor or event exists.
  void enable_windows(Time window, int lanes, int workers, int max_batch = 0);
  bool windowed() const { return windowed_; }
  Time window() const { return window_; }
  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  int workers() const { return workers_; }

  // Window-synchronization attribution (sim/parallel.h); all-zero when no
  // worker pool is active. Host-side observability only.
  WindowPoolStats window_stats();

  // Registers (or overwrites) a boundary operation; null clears the slot.
  void set_boundary_op(BoundaryOp slot, std::function<void()> fn);

  // Runs fn with exclusive access to cross-lane state: immediately when
  // windows are off or the caller is not inside a lane drain; otherwise the
  // calling processor blocks and fn runs at the next window boundary (slot
  // kSpace, lane order), after which the processor is woken at its lane's
  // current time. fn must not touch lane-private state of other lanes.
  void boundary_gate(std::function<void()> fn);

  // True when the calling context is executing inside one of this engine's
  // lane drains (windowed mode only).
  bool in_lane_context() const { return windowed_ && tls_engine_ == this; }

  // Lane the calling context is draining (0 when not in a lane).
  int current_lane() const { return in_lane_context() ? tls_lane_ : 0; }

  // Per-lane clock: time of the last event executed on that lane.
  Time lane_now(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)]->now;
  }

  // Drains one lane up to its cap, running resumed processors to their next
  // park. Called serially by run() or concurrently by a WindowPool; lanes
  // share no mutable state during a drain, so either produces the identical
  // result.
  void drain_lane(int lane);

  // ---------------------------------------------------------------------------

  // Creates a processor; valid until the engine is destroyed.
  Processor& add_processor();
  Processor& processor(int id) { return *processors_[static_cast<std::size_t>(id)]; }
  int num_processors() const { return static_cast<int>(processors_.size()); }

  // Runs events until the queue drains. Aborts (deadlock) if any processor
  // is still blocked with no pending events.
  void run();

  // Statistics (host-side observability; never part of simulated results).
  std::uint64_t events_executed() const;
  // Cross-context control transfers: a stack switch to a different
  // processor's fiber.
  std::uint64_t handoffs() const;
  // Resume events that popped while their own processor was driving — the
  // fast path costing zero context switches. Always zero in windowed mode
  // (the drain loop is the only driver).
  std::uint64_t direct_resumes() const;
  // Windows executed (windowed mode only).
  std::uint64_t windows_run() const { return windows_run_; }

  // Minimum compute time a processor may accumulate before yielding at the
  // horizon; 0 means exact event-granularity interleaving. Larger quanta
  // speed up the host at the cost of sub-quantum timing fidelity (values are
  // unaffected for data-race-free programs).
  void set_quantum_floor(Time q) { quantum_floor_ = q; }
  Time quantum_floor() const { return quantum_floor_; }

  // Per-fiber stack size for processors created after this call (tests use
  // tiny stacks to exercise overflow detection). Defaults to
  // Fiber::default_stack_size(), i.e. the PRESTO_STACK_SIZE environment
  // variable.
  void set_fiber_stack_size(std::size_t bytes) { fiber_stack_size_ = bytes; }
  std::size_t fiber_stack_size() const { return fiber_stack_size_; }

  // Observation bus (trace/hooks.h): processors report block/resume
  // through this. Null when nothing is attached.
  void set_hooks(trace::Hooks* h) { hooks_ = h; }
  trace::Hooks* hooks() const { return hooks_; }

 private:
  friend class Processor;
  friend class WindowPool;

  // Heap entries carry the ordering key so sifts are slab-free. `slot` is
  // either a slab slot index holding the event's closure or, with kResumeTag
  // set, a processor resume whose low bits are the processor id.
  struct HeapEntry {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  static constexpr std::uint32_t kResumeTag = 1u << 31;

  // (t, seq) as one unsigned 128-bit key: t with its sign bit flipped (an
  // order-preserving map to unsigned) in the high half, seq in the low half.
  // The compare compiles to a cmp/sbb pair, so sifts can select on it with
  // conditional moves instead of unpredictable branches.
  __extension__ typedef unsigned __int128 Key;
  static Key key(const HeapEntry& e) {
    return static_cast<Key>(static_cast<std::uint64_t>(e.t) ^ (1ull << 63))
               << 64 |
           e.seq;
  }
  static bool before(const HeapEntry& a, const HeapEntry& b) {
    return key(a) < key(b);
  }

  // 4-ary min-heap on before(). pop removes and returns the root;
  // replace_top returns the root and puts e in its place (one sift-down).
  static void heap_push(std::vector<HeapEntry>& h, const HeapEntry& e);
  static HeapEntry heap_pop(std::vector<HeapEntry>& h);
  static HeapEntry heap_replace_top(std::vector<HeapEntry>& h,
                                    const HeapEntry& e);
  static void sift_down(std::vector<HeapEntry>& h, HeapEntry e);

  static constexpr std::uint32_t kSlabShift = 8;  // 256 slots per slab chunk
  static constexpr std::uint32_t kSlabSize = 1u << kSlabShift;

  // One event lane: a private queue + clock. Legacy mode is exactly one
  // lane; windowed mode has one per simulated node. Heap-allocated (vector
  // of unique_ptr) so lane addresses are stable and lanes drained by
  // different workers do not share cache lines.
  struct Lane {
    std::vector<HeapEntry> heap;
    std::vector<std::unique_ptr<InlineFn[]>> slabs;
    std::vector<std::uint32_t> free;
    Time now = 0;
    Time cap = kTimeNever;  // exclusive drain horizon for the current window
    std::uint64_t seq = 0;
    std::uint64_t events = 0;
    std::uint64_t handoffs = 0;
    std::uint64_t direct_resumes = 0;
    // Windowed: the drain loop's saved context while a fiber runs app code.
    FiberContext sched_ctx;
    // Windowed: a deferred cross-lane operation (boundary_gate).
    std::function<void()> gate;
    bool gate_pending = false;
  };

  InlineFn& slot(Lane& l, std::uint32_t i) {
    return l.slabs[i >> kSlabShift][i & (kSlabSize - 1)];
  }

  Lane& lane(int i) { return *lanes_[static_cast<std::size_t>(i)]; }

  void check_delay(Time delay) const;
  void push_event(Time t, InlineFn fn);             // calling context's lane
  void push_event_on(int lane, Time t, InlineFn fn);
  void push_into(Lane& l, Time t, InlineFn fn);
  // A resume of processor proc at t (clamped to the lane clock), taking the
  // lane's next seq.
  HeapEntry resume_entry(Lane& l, Time t, int proc);

  // Executes a popped entry e as the lane's next event; returns the
  // processor it resumed, or nullptr.
  Processor* dispatch(Lane& l, const HeapEntry& e);
  // Pops and executes the lane's next event (dispatch).
  Processor* step_one(Lane& l) { return dispatch(l, heap_pop(l.heap)); }
  // Legacy canon: processor `self` yields at t. Schedules its resume fused
  // with the next pop, then drives like drive(self).
  void yield_legacy(Processor& self, Time t);
  // Tail of a legacy drive step that resumed `to`: continue in place when
  // it is self, else switch to its fiber.
  void resume(Processor* self, Processor* to);
  // Legacy event loop, called by the context in control. With self set (a
  // fiber that yielded or blocked), returns once control is back with self's
  // app code — either its own resume event popped, or control went to
  // another fiber and came back. With self null (run()'s caller), returns
  // after draining the queue or switching to a fiber; returns true iff this
  // call drained the queue.
  bool drive(Processor* self);
  // Switches from `self` (null = run()'s caller) to `to`'s fiber; returns
  // when control comes back.
  void transfer(Processor* self, Processor* to);
  // Returns the context a finished fiber must terminally switch to (the
  // next resumed processor, or run()'s caller after the drain).
  FiberContext* drive_exit_target();

  // Windowed run loop: watermark, caps, drain (serial or pooled), boundary.
  void run_windowed();
  void run_boundary();

  const Backend backend_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  Lane* lane0_;  // lanes_[0], cached for the legacy hot path

  bool windowed_ = false;
  Time window_ = 0;
  int workers_ = 1;
  Time global_now_ = 0;  // watermark of the current window
  std::uint64_t windows_run_ = 0;
  std::function<void()> boundary_ops_[kNumBoundaryOps];
  std::unique_ptr<WindowPool> pool_;

  // Calling context's lane, valid while tls_engine_ == the engine draining
  // on this thread. Lane drains never nest across engines on one thread.
  static thread_local int tls_lane_;
  static thread_local const Engine* tls_engine_;

  std::vector<std::unique_ptr<Processor>> processors_;
  Time quantum_floor_ = 0;
  std::size_t fiber_stack_size_;
  trace::Hooks* hooks_ = nullptr;

  // The saved context of run()'s caller while fibers drive the event loop
  // (legacy mode only), and whether a fiber drained the queue since.
  FiberContext main_ctx_;
  bool done_ = false;

  friend class EngineTestPeer;
};

}  // namespace presto::sim
