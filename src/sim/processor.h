// A simulated processor running application code on its own execution
// context: a user-level fiber by default, or a dedicated OS thread on the
// fallback backend (sim/fiber.h::Backend, chosen per Engine).
//
// Exactly one context executes at a time, so execution is sequentially
// deterministic. There is no dedicated engine thread handing out time
// slices: whichever application context yields (at the event horizon or in
// block()) drives the engine's event loop inline until its own resume event
// pops, and only hands the run token to the target context when an event
// resumes a *different* processor. The common case, a processor yielding
// and resuming with no other processor scheduled in between, costs zero
// context switches on either backend. A cross-processor handoff costs one
// user-level stack switch (~tens of ns) on the fiber backend; on the thread
// backend it is one wake + one park, i.e. two futex syscalls and a kernel
// context switch. Both backends execute the identical event sequence, so
// simulated results are bit-identical (tests/backend_equivalence_test.cc).
//
// Application code advances its local virtual clock with charge() and parks
// with block() until an engine-context event calls wake(). Protocol handlers
// execute in engine context (inside whichever context is driving); the cycles
// they consume on a node whose application thread is computing are
// accumulated via add_stolen() and folded into the application clock at the
// next charge() (a documented approximation, see DESIGN.md §2).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "sim/fiber.h"
#include "sim/time.h"

namespace presto::sim {

class Engine;

class Processor {
 public:
  Processor(Engine& engine, int id);
  ~Processor();

  Processor(const Processor&) = delete;
  Processor& operator=(const Processor&) = delete;

  int id() const { return id_; }
  // Event lane this processor schedules on and parks against: its own node
  // lane in windowed mode, lane 0 (the only lane) otherwise.
  int lane() const { return lane_; }

  // ---- Engine-context interface -------------------------------------------

  // Creates the execution context (fiber or thread, per the engine's
  // backend) and schedules the body to begin at start_time.
  void start(std::function<void()> body, Time start_time = 0);

  // Schedules a resume for a processor parked in block(). If the processor
  // is not parked yet (it is running or in a horizon yield), the wake is
  // latched and consumed by its next block() call, so wakes are never lost.
  void wake(Time t);

  // Records protocol handler occupancy that overlaps application compute.
  void add_stolen(Time d) { stolen_pending_ += d; }

  bool started() const { return started_; }
  bool finished() const { return finished_; }
  bool parked_in_block() const { return blocked_; }

  // ---- Application-context interface ---------------------------------------

  // Local virtual clock.
  Time now() const { return clock_; }

  // Advances the local clock by d plus any pending stolen handler time, then
  // drives pending events if the clock passed the event horizon.
  void charge(Time d);

  // Parks until wake(); on return the clock has advanced to the wake time
  // (if later than the current clock).
  void block();

  // Explicitly lets all events scheduled at or before the current clock run.
  void yield();

  // ---- Accounting ----------------------------------------------------------

  Time stolen_total() const { return stolen_total_; }
  std::uint64_t yield_count() const { return yields_; }
  std::uint64_t block_count() const { return blocks_; }

 private:
  struct Killed {};

  // Shared body wrapper: initial park, body, Killed unwind; returns whether
  // the context was killed. Runs on the fiber or the dedicated thread.
  bool run_body();
  void thread_main();
  // Fiber entry (sim/fiber.h): runs the body, then either hands the run
  // token onward via the engine's exit path or, when killed, switches back
  // to the context that performed the kill. The returned context is the
  // fiber's terminal switch target.
  static FiberContext* fiber_entry(void* self);

  // Thread backend: hands the run token to this processor's thread.
  void grant_control();
  // Thread backend: waits for the run token; throws Killed on teardown.
  // Fiber backend: the switch itself is the wait, so this only checks for a
  // teardown kill (the initial park after the first switch-in).
  void park();
  // Called after a fiber switch lands back in this processor: validates the
  // stack canary and unwinds via Killed if the engine is being torn down.
  void fiber_resumed();
  // Windowed mode: parks by returning control to the lane's drain loop
  // (stack switch on fiber-backed processors, sched handshake on the thread
  // backend). The drain loop switches back in only to deliver this
  // processor's own resume event.
  void park_to_scheduler();
  // Queue drained while this context still holds live frames (deadlock or
  // teardown): signal run()'s caller and park until killed.
  void park_forever();
  // Backend-uniform destructor path: kill + unwind only when the context
  // started and has not finished; otherwise just reclaim resources.
  void teardown();

  void absorb_stolen();
  void maybe_yield_at_horizon();
  // Schedules this processor's resume at t and parks until it pops: the
  // shared tail of both yields.
  void park_until(Time t);

  Engine& engine_;
  const int id_;
  const int lane_;

  // Thread backend.
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool go_token_ = false;  // run token: this thread may execute app code

  // Fiber backend.
  std::unique_ptr<Fiber> fiber_;
  FiberContext* kill_exit_ = nullptr;  // killer's context during teardown

  std::function<void()> body_;  // held from start() until run_body() takes it
  bool kill_ = false;

  Time clock_ = 0;
  Time stolen_pending_ = 0;
  Time stolen_total_ = 0;
  Time last_yield_clock_ = 0;

  bool started_ = false;
  bool finished_ = false;
  bool blocked_ = false;       // parked in block(), waiting for wake()
  bool wake_pending_ = false;  // wake() arrived while not parked
  Time wake_time_ = 0;
  Time resume_time_ = 0;

  std::uint64_t yields_ = 0;
  std::uint64_t blocks_ = 0;

  friend class Engine;
};

}  // namespace presto::sim
