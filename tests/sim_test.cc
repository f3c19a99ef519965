#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <queue>
#include <random>
#include <tuple>
#include <vector>

#include "sim/engine.h"
#include "sim/processor.h"

namespace presto::sim {
namespace {

TEST(Engine, EventsRunInTimeOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(30, [&] { order.push_back(3); });
  e.schedule_at(10, [&] { order.push_back(1); });
  e.schedule_at(20, [&] { order.push_back(2); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
  EXPECT_EQ(e.events_executed(), 3u);
}

TEST(Engine, TiesBreakByScheduleOrder) {
  Engine e;
  std::vector<int> order;
  e.schedule_at(5, [&] { order.push_back(1); });
  e.schedule_at(5, [&] { order.push_back(2); });
  e.schedule_at(5, [&] { order.push_back(3); });
  e.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, PastEventsClampToNow) {
  Engine e;
  Time seen = -1;
  e.schedule_at(100, [&] {
    e.schedule_at(10, [&] { seen = e.now(); });  // in the past
  });
  e.run();
  EXPECT_EQ(seen, 100);
}

TEST(Engine, NestedSchedulingFromEvents) {
  Engine e;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) e.schedule_in(7, recurse);
  };
  e.schedule_at(0, recurse);
  e.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(e.now(), 28);
}

TEST(Processor, ChargeAdvancesLocalClock) {
  Engine e;
  auto& p = e.add_processor();
  Time end = -1;
  p.start([&] {
    p.charge(100);
    p.charge(50);
    end = p.now();
  });
  e.run();
  EXPECT_EQ(end, 150);
  EXPECT_TRUE(p.finished());
}

TEST(Processor, BlockWakesAtWakeTime) {
  Engine e;
  auto& p = e.add_processor();
  Time resumed = -1;
  p.start([&] {
    p.block();
    resumed = p.now();
  });
  e.schedule_at(500, [&] { p.wake(500); });
  e.run();
  EXPECT_EQ(resumed, 500);
}

TEST(Processor, WakeBeforeBlockIsNotLost) {
  Engine e;
  auto& p = e.add_processor();
  Time resumed = -1;
  p.start([&] {
    p.charge(100);  // runs past the wake sender
    p.block();      // latched wake is consumed immediately
    resumed = p.now();
  });
  e.schedule_at(0, [&] { p.wake(40); });
  e.run();
  EXPECT_EQ(resumed, 100);  // wake time 40 already passed
}

TEST(Processor, HorizonYieldInterleavesProcessors) {
  Engine e;
  auto& a = e.add_processor();
  auto& b = e.add_processor();
  std::vector<std::pair<char, Time>> trace;
  a.start([&] {
    for (int i = 0; i < 3; ++i) {
      a.charge(10);
      trace.emplace_back('a', a.now());
    }
  });
  b.start([&] {
    for (int i = 0; i < 3; ++i) {
      b.charge(10);
      trace.emplace_back('b', b.now());
    }
  });
  e.run();
  ASSERT_EQ(trace.size(), 6u);
  // Clocks never run far apart: each records 10,20,30.
  for (const auto& [who, t] : trace) {
    (void)who;
    EXPECT_LE(t, 30);
  }
}

TEST(Processor, StolenCyclesFoldIntoNextCharge) {
  Engine e;
  auto& p = e.add_processor();
  Time end = -1;
  p.start([&] {
    p.charge(10);
    p.block();
    p.charge(5);
    end = p.now();
  });
  e.schedule_at(100, [&] {
    p.add_stolen(20);
    p.wake(100);
  });
  e.run();
  EXPECT_EQ(end, 125);  // 100 (wake) + 5 (charge) + 20 (stolen)
  EXPECT_EQ(p.stolen_total(), 20);
}

TEST(Processor, ManyProcessorsDeterministicFinish) {
  auto run_once = [] {
    Engine e;
    std::vector<Time> finish;
    const int n = 16;
    std::vector<Processor*> ps;
    for (int i = 0; i < n; ++i) ps.push_back(&e.add_processor());
    finish.resize(n);
    for (int i = 0; i < n; ++i) {
      Processor* p = ps[static_cast<std::size_t>(i)];
      finish[static_cast<std::size_t>(i)] = 0;
      p->start([p, i, &finish] {
        for (int k = 0; k < 20; ++k) p->charge(10 + (i * 7 + k) % 13);
        finish[static_cast<std::size_t>(i)] = p->now();
      });
    }
    e.run();
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Processor, DeadlockIsDetected) {
  auto deadlock = [] {
    Engine e;
    auto& p = e.add_processor();
    p.start([&] { p.block(); });  // nobody ever wakes it
    e.run();
  };
  EXPECT_DEATH(deadlock(), "deadlock");
}

TEST(Processor, QuantumFloorBatchesYields) {
  Engine exact;
  exact.set_quantum_floor(0);
  Engine coarse;
  coarse.set_quantum_floor(1000);
  for (Engine* e : {&exact, &coarse}) {
    auto& a = e->add_processor();
    auto& b = e->add_processor();
    a.start([&a] {
      for (int i = 0; i < 100; ++i) a.charge(10);
    });
    b.start([&b] {
      for (int i = 0; i < 100; ++i) b.charge(10);
    });
    e->run();
  }
  // Coarse quantum must yield strictly less often.
  EXPECT_LT(coarse.processor(0).yield_count(),
            exact.processor(0).yield_count());
}

TEST(Engine, TeardownWithNeverRunProcessorDoesNotHang) {
  // A processor whose thread was spawned but whose engine never ran must be
  // unwound cleanly by the destructor (kill path).
  auto e = std::make_unique<Engine>();
  auto& p = e->add_processor();
  p.start([&] { p.charge(10); });
  e.reset();  // engine destroyed without run()
  SUCCEED();
}

// Teardown must be clean for every processor lifecycle stage: never
// started, started but never scheduled (engine never ran), and already
// finished. Each case exercises a distinct destructor path (no fiber at all
// / Killed unwind / plain stack free).
class BackendTeardownTest : public ::testing::TestWithParam<Backend> {};

TEST_P(BackendTeardownTest, NeverStartedProcessor) {
  auto e = std::make_unique<Engine>(GetParam());
  e->add_processor();  // start() never called: no body, no context
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, StartedButNeverRunProcessor) {
  auto e = std::make_unique<Engine>(GetParam());
  auto& p = e->add_processor();
  bool ran = false;
  p.start([&] { ran = true; });
  e.reset();  // engine destroyed without run(): body must NOT execute
  EXPECT_FALSE(ran);
}

TEST_P(BackendTeardownTest, FinishedProcessor) {
  auto e = std::make_unique<Engine>(GetParam());
  auto& p = e->add_processor();
  p.start([&] { p.charge(10); });
  e->run();
  EXPECT_TRUE(p.finished());
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, MixedLifecyclesInOneEngine) {
  auto e = std::make_unique<Engine>(GetParam());
  e->add_processor();  // never started
  auto& p = e->add_processor();
  p.start([&] { p.charge(5); });  // started, never run
  e.reset();
  SUCCEED();
}

TEST_P(BackendTeardownTest, DeadlockIsDetected) {
  const Backend backend = GetParam();
  auto deadlock = [backend] {
    Engine e(backend);
    auto& p = e.add_processor();
    p.start([&] { p.block(); });  // nobody ever wakes it
    e.run();
  };
  EXPECT_DEATH(deadlock(), "deadlock");
}

TEST_P(BackendTeardownTest, ManyProcessorsDeterministicFinish) {
  const Backend backend = GetParam();
  auto run_once = [backend] {
    Engine e(backend);
    const int n = 16;
    std::vector<Processor*> ps;
    for (int i = 0; i < n; ++i) ps.push_back(&e.add_processor());
    std::vector<Time> finish(n, 0);
    for (int i = 0; i < n; ++i) {
      Processor* p = ps[static_cast<std::size_t>(i)];
      p->start([p, i, &finish] {
        for (int k = 0; k < 20; ++k) p->charge(10 + (i * 7 + k) % 13);
        finish[static_cast<std::size_t>(i)] = p->now();
      });
    }
    e.run();
    return finish;
  };
  EXPECT_EQ(run_once(), run_once());
}

// The instantiation name predates the single fiber backend; it is kept so
// the registered test names stay stable.
INSTANTIATE_TEST_SUITE_P(BothBackends, BackendTeardownTest,
                         ::testing::Values(Backend::kFiber),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(backend_name(info.param));
                         });

namespace overflow {
// Recursion with a per-frame buffer small enough that every frame touches
// its page: the PROT_NONE guard below the fiber stack faults before the
// overflow can reach a neighbouring allocation.
int burn(int depth) {
  volatile char buf[512];
  buf[0] = static_cast<char>(depth);
  if (depth <= 0) return buf[0];
  return burn(depth - 1) + buf[0];
}
}  // namespace overflow

TEST(FiberBackend, StackOverflowDiesInsteadOfCorrupting) {
  auto overflow_run = [] {
    Engine e(Backend::kFiber);
    e.set_fiber_stack_size(64 * 1024);
    auto& p = e.add_processor();
    p.start([] { overflow::burn(1 << 20); });
    e.run();
  };
  // Death by guard-page fault (no message) or by the canary check's
  // "fiber stack overflow" diagnostic, depending on where the frames land.
  EXPECT_DEATH(overflow_run(), "");
}

TEST(FiberBackend, EngineReportsSwitchCounters) {
  // Two interleaving processors: horizon yields force real handoffs.
  Engine e(Backend::kFiber);
  auto& a = e.add_processor();
  auto& b = e.add_processor();
  a.start([&a] {
    for (int i = 0; i < 10; ++i) a.charge(10);
  });
  b.start([&b] {
    for (int i = 0; i < 10; ++i) b.charge(10);
  });
  e.run();
  EXPECT_EQ(e.backend(), Backend::kFiber);
  EXPECT_GT(e.handoffs(), 0u);

  // One processor alone: its blocked context drives the wake events inline
  // and resumes itself — the zero-switch fast path, never a handoff.
  Engine solo(Backend::kFiber);
  auto& p = solo.add_processor();
  p.start([&p] {
    for (int i = 0; i < 5; ++i) {
      p.charge(10);
      p.block();
    }
  });
  for (Time t = 1; t <= 5; ++t)
    solo.schedule_at(t * 100, [&p, t] { p.wake(t * 100); });
  solo.run();
  EXPECT_GT(solo.direct_resumes(), 0u);
}

// A processor resume is a tagged heap entry, not a closure, but it takes its
// seq at the same point a closure would: scheduled between two closures at
// the same time, it runs between them.
TEST(Engine, ResumeOrdersBetweenSameTimeClosures) {
  Engine e;
  std::vector<char> order;
  auto& p = e.add_processor();
  e.schedule_at(5, [&] { order.push_back('a'); });
  p.start([&] { order.push_back('p'); }, 5);
  e.schedule_at(5, [&] { order.push_back('b'); });
  e.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'p', 'b'}));
  EXPECT_EQ(e.events_executed(), 3u);
}

// A lone processor's yields resume in place: every yield is a direct resume
// and adds no handoff (the one handoff is run()'s caller starting it). The
// charges that cross a pending closure take the fused path: the closure
// replaces the heap root, runs, and the yielder's own resume follows.
TEST(Engine, LoneYieldTakesDirectResumePath) {
  Engine e(Backend::kFiber);
  auto& p = e.add_processor();
  std::vector<Time> closures;
  for (Time t = 100; t <= 300; t += 100)
    e.schedule_at(t, [&] { closures.push_back(e.now()); });
  p.start([&] {
    for (int i = 0; i < 4; ++i) p.yield();  // earliest event: in place
    for (int i = 0; i < 6; ++i) p.charge(50);  // yields at 100, 200, 300
  });
  e.run();
  EXPECT_EQ(closures, (std::vector<Time>{100, 200, 300}));
  EXPECT_EQ(p.yield_count(), 7u);
  EXPECT_EQ(e.direct_resumes(), 7u);
  EXPECT_EQ(e.handoffs(), 1u);
  EXPECT_EQ(e.events_executed(), 1u + 3u + 7u);
}

// A resume that pops after its processor finished executes as an event but
// resumes nothing; later events still run.
TEST(Engine, StaleResumeForFinishedProcessorIsNoop) {
  Engine e;
  auto& p = e.add_processor();
  int body_runs = 0;
  bool later = false;
  p.start([&] { ++body_runs; });
  e.schedule_resume(p.lane(), 100, p.id());
  e.schedule_at(200, [&] { later = true; });
  e.run();
  EXPECT_EQ(body_runs, 1);
  EXPECT_TRUE(p.finished());
  EXPECT_TRUE(later);
  EXPECT_EQ(e.now(), 200);
  EXPECT_EQ(e.events_executed(), 3u);
  EXPECT_EQ(e.handoffs(), 1u);
}

}  // namespace

// White-box access to the event heap.
class EngineTestPeer {
 public:
  using Entry = Engine::HeapEntry;
  static void push(std::vector<Entry>& h, const Entry& e) {
    Engine::heap_push(h, e);
  }
  static Entry pop(std::vector<Entry>& h) { return Engine::heap_pop(h); }
  static Entry replace_top(std::vector<Entry>& h, const Entry& e) {
    return Engine::heap_replace_top(h, e);
  }
  static bool before(const Entry& a, const Entry& b) {
    return Engine::before(a, b);
  }
};

namespace {

using Entry = EngineTestPeer::Entry;
using Ref = std::tuple<Time, std::uint64_t, std::uint32_t>;

Ref as_ref(const Entry& e) { return {e.t, e.seq, e.slot}; }

// The wide-key compare is lexicographic (t, seq) over the whole signed time
// range, including the sign boundary and kTimeNever.
TEST(EventHeap, KeyOrderIsLexicographic) {
  const Time ts[] = {std::numeric_limits<Time>::min(), -1, 0, 1,
                     kTimeNever - 1, kTimeNever};
  const std::uint64_t seqs[] = {0, 1, std::numeric_limits<std::uint64_t>::max()};
  for (const Time ta : ts)
    for (const Time tb : ts)
      for (const std::uint64_t sa : seqs)
        for (const std::uint64_t sb : seqs) {
          const Entry a{ta, sa, 0};
          const Entry b{tb, sb, 0};
          EXPECT_EQ(EngineTestPeer::before(a, b),
                    std::make_pair(ta, sa) < std::make_pair(tb, sb))
              << ta << "/" << sa << " vs " << tb << "/" << sb;
        }
}

// Randomized push / pop / fused-yield sequences against std::priority_queue
// keyed on (t, seq). A fused yield of entry e either finds e before the root
// (it would run next: the heap is untouched) or returns the root and leaves
// e in its place — the reference pops the root and pushes e.
TEST(EventHeap, MatchesPriorityQueueReference) {
  std::mt19937_64 rng(20261017);
  for (int round = 0; round < 40; ++round) {
    std::vector<Entry> heap;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
    std::uint64_t seq = 0;
    // Few distinct times, so equal-time ties dominate; plus the extremes.
    auto draw_time = [&]() -> Time {
      switch (rng() % 8) {
        case 0: return 0;
        case 1: return kTimeNever;
        case 2: return kTimeNever - static_cast<Time>(rng() % 3);
        default: return static_cast<Time>(rng() % 6);
      }
    };
    for (int op = 0; op < 2000; ++op) {
      const unsigned kind = static_cast<unsigned>(rng() % 3);
      if (kind == 0 || ref.empty()) {
        const Entry e{draw_time(), seq++, static_cast<std::uint32_t>(op)};
        EngineTestPeer::push(heap, e);
        ref.push(as_ref(e));
      } else if (kind == 1) {
        ASSERT_EQ(as_ref(EngineTestPeer::pop(heap)), ref.top());
        ref.pop();
      } else {
        const Entry e{draw_time(), seq++, static_cast<std::uint32_t>(op)};
        if (EngineTestPeer::before(e, heap[0])) {
          ASSERT_LT(as_ref(e), ref.top());
          continue;
        }
        ASSERT_EQ(as_ref(EngineTestPeer::replace_top(heap, e)), ref.top());
        ref.pop();
        ref.push(as_ref(e));
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (!ref.empty()) {
      ASSERT_EQ(as_ref(EngineTestPeer::pop(heap)), ref.top());
      ref.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

// Exact host-counter pins for a fixed 32-processor ring: processor i
// charges 7 + i % 5 per step for 40 steps, yields explicitly every 7 steps
// and hands a token to i + 1 every 10 steps. The counts are what perfbench reports as sim.events,
// sim.handoffs and sim.direct_resumes; they depend only on the event
// sequence and must not drift.
class YieldRingTest : public ::testing::TestWithParam<Backend> {};

TEST_P(YieldRingTest, HostCountersArePinned) {
  constexpr int kProcs = 32;
  Engine e(GetParam());
  std::vector<Processor*> procs;
  for (int i = 0; i < kProcs; ++i) procs.push_back(&e.add_processor());
  for (int i = 0; i < kProcs; ++i) {
    Processor& p = *procs[static_cast<std::size_t>(i)];
    Processor& next = *procs[static_cast<std::size_t>((i + 1) % kProcs)];
    p.start([&e, &p, &next, i] {
      for (int step = 1; step <= 40; ++step) {
        p.charge(7 + i % 5);
        if (step % 7 == 0) p.yield();
        if (step % 10 == 0) {
          const Time at = p.now();
          e.schedule_at(at, [&next, at] { next.wake(at); });
          p.block();
        }
      }
    });
  }
  e.run();
  EXPECT_EQ(e.events_executed(), 1652u);
  EXPECT_EQ(e.handoffs(), 1518u);
  EXPECT_EQ(e.direct_resumes(), 6u);
}

// Named like BackendTeardownTest's instantiation, for the same reason.
INSTANTIATE_TEST_SUITE_P(BothBackends, YieldRingTest,
                         ::testing::Values(Backend::kFiber),
                         [](const ::testing::TestParamInfo<Backend>& info) {
                           return std::string(backend_name(info.param));
                         });

}  // namespace
}  // namespace presto::sim
