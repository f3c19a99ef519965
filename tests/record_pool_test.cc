// Unit tests for net::RecordPool — the pooled records that carry every
// protocol message from send to handler dispatch — and for the network's
// per-lane pool ownership: size classes up to multi-KB bulk records, LIFO
// reuse, pointer stability while a pool grows, lane isolation, metadata
// accounting, and that a whole protocol run hands every record back.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "net/record_pool.h"
#include "runtime/system.h"
#include "util/rng.h"

namespace presto::net {
namespace {

std::string rec_str(const Record* r) {
  return std::string(reinterpret_cast<const char*>(r->data()), r->len);
}

TEST(RecordPool, TwoSpanAcquireReassemblesContiguously) {
  RecordPool pool;
  const std::string head = "header--", pay = "payload-bytes";
  Record* both = pool.acquire(head.data(), head.size(), pay.data(), pay.size());
  EXPECT_EQ(rec_str(both), head + pay);

  // Either span may be empty, and a zero-length record is legal.
  Record* h = pool.acquire(head.data(), head.size(), nullptr, 0);
  Record* p = pool.acquire(nullptr, 0, pay.data(), pay.size());
  Record* none = pool.acquire(nullptr, 0, nullptr, 0);
  EXPECT_EQ(rec_str(h), head);
  EXPECT_EQ(rec_str(p), pay);
  EXPECT_EQ(none->len, 0u);
  EXPECT_EQ(pool.outstanding(), 4u);
  for (Record* r : {both, h, p, none}) pool.release(r);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(RecordPool, SizeClassesHoldMultiKilobyteBulkRecords) {
  // Blocks double per class from 64 bytes, header included.
  EXPECT_EQ(RecordPool::block_bytes(0), 64u);
  EXPECT_EQ(RecordPool::block_bytes(64 - sizeof(Record)), 64u);
  EXPECT_EQ(RecordPool::block_bytes(64 - sizeof(Record) + 1), 128u);
  EXPECT_EQ(RecordPool::block_bytes(40 + 32), 128u);  // Msg + one 32 B block

  // A coalesced bulk presend: a header plus a long run of blocks.
  RecordPool pool;
  std::vector<unsigned char> run(8192);
  for (std::size_t i = 0; i < run.size(); ++i)
    run[i] = static_cast<unsigned char>(i * 7 + 1);
  const std::string head(40, 'h');
  EXPECT_EQ(RecordPool::block_bytes(head.size() + run.size()), 16384u);
  Record* big = pool.acquire(head.data(), head.size(), run.data(), run.size());
  ASSERT_EQ(big->len, head.size() + run.size());
  EXPECT_EQ(std::memcmp(big->data(), head.data(), head.size()), 0);
  EXPECT_EQ(std::memcmp(big->data() + head.size(), run.data(), run.size()), 0);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(big->data()) % 16, 0u);

  // A small record never lands in the bulk block.
  Record* small = pool.acquire(head.data(), head.size(), nullptr, 0);
  EXPECT_NE(small, big);
  pool.release(big);
  Record* small2 = pool.acquire(head.data(), head.size(), nullptr, 0);
  EXPECT_NE(small2, big);
  // Another record of the bulk class reuses it.
  Record* big2 = pool.acquire(run.data(), run.size(), nullptr, 0);
  EXPECT_EQ(big2, big);
  for (Record* r : {small, small2, big2}) pool.release(r);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(RecordPool, ReleasedRecordIsReusedLifo) {
  RecordPool pool;
  const char msg[] = "message";
  Record* a = pool.acquire(msg, sizeof msg, nullptr, 0);
  Record* b = pool.acquire(msg, sizeof msg, nullptr, 0);
  Record* c = pool.acquire(msg, sizeof msg, nullptr, 0);
  pool.release(a);
  pool.release(c);
  // Last released, first reused.
  EXPECT_EQ(pool.acquire(msg, sizeof msg, nullptr, 0), c);
  EXPECT_EQ(pool.acquire(msg, sizeof msg, nullptr, 0), a);

  // Steady traffic of one record at a time reuses one block and never
  // carves again.
  pool.release(a);
  const std::size_t meta = pool.metadata_bytes();
  for (int i = 0; i < 10000; ++i) {
    Record* r = pool.acquire(msg, sizeof msg, nullptr, 0);
    EXPECT_EQ(r, a);
    pool.release(r);
  }
  EXPECT_EQ(pool.metadata_bytes(), meta);
  pool.release(b);
  pool.release(c);
}

TEST(RecordPool, PointersStayStableWhilePoolGrows) {
  // Delivery and dispatch events capture record pointers; carving more
  // chunks (in this class or another) must never move a live record.
  RecordPool pool;
  std::vector<std::pair<Record*, std::string>> live;
  for (int i = 0; i < 3000; ++i) {
    const std::string s = "rec-" + std::to_string(i) +
                          std::string(static_cast<std::size_t>(i % 300), 'x');
    live.emplace_back(pool.acquire(s.data(), s.size(), nullptr, 0), s);
  }
  for (const auto& [r, s] : live) EXPECT_EQ(rec_str(r), s);
  EXPECT_EQ(pool.outstanding(), live.size());
  for (const auto& [r, s] : live) pool.release(r);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(RecordPool, RandomizedChurnMatchesReference) {
  RecordPool pool;
  util::Rng rng(17);
  std::vector<std::pair<Record*, std::string>> live;
  std::size_t high_water = 0;
  for (int step = 0; step < 20000; ++step) {
    if (live.empty() || rng.next_below(3) != 0) {
      const std::size_t n = rng.next_below(rng.next_below(8) == 0 ? 5000 : 120);
      std::string s(n, '\0');
      for (auto& ch : s) ch = static_cast<char>(rng.next_below(256));
      const std::size_t cut = n == 0 ? 0 : rng.next_below(n);
      live.emplace_back(
          pool.acquire(s.data(), cut, s.data() + cut, n - cut), s);
    } else {
      const std::size_t i = rng.next_below(live.size());
      ASSERT_EQ(rec_str(live[i].first), live[i].second) << "step " << step;
      pool.release(live[i].first);
      live[i] = std::move(live.back());
      live.pop_back();
    }
    high_water = std::max(high_water, live.size());
    ASSERT_EQ(pool.outstanding(), live.size());
  }
  for (const auto& [r, s] : live) EXPECT_EQ(rec_str(r), s);
  EXPECT_GT(high_water, 100u);
}

TEST(RecordPool, MetadataBytesCountCarvedChunks) {
  RecordPool pool;
  EXPECT_EQ(pool.metadata_bytes(), 0u);
  const char msg[40] = {};
  // The first record of a class carves four blocks.
  std::vector<Record*> recs{pool.acquire(msg, sizeof msg, nullptr, 0)};
  const std::size_t one_chunk = pool.metadata_bytes();
  EXPECT_GE(one_chunk, 4 * RecordPool::kMinBlock);
  EXPECT_LT(one_chunk, 4 * RecordPool::kMinBlock + 256);
  for (int i = 0; i < 3; ++i)
    recs.push_back(pool.acquire(msg, sizeof msg, nullptr, 0));
  EXPECT_EQ(pool.metadata_bytes(), one_chunk);  // still the first chunk
  // The fifth live record needs a second chunk; capacity doubles.
  recs.push_back(pool.acquire(msg, sizeof msg, nullptr, 0));
  EXPECT_GE(pool.metadata_bytes(), one_chunk + 4 * RecordPool::kMinBlock);
  const std::size_t grown = pool.metadata_bytes();
  // Releasing keeps the blocks (high-water accounting).
  for (Record* r : recs) pool.release(r);
  EXPECT_EQ(pool.metadata_bytes(), grown);
}

// Records each delivery's record pointer and hands it straight back.
struct PointerSink : Network::MsgSink {
  Network* net = nullptr;
  std::vector<std::pair<int, Record*>> got;
  void on_msg(int dst, Record* rec) override {
    got.emplace_back(dst, rec);
    net->release(dst, rec);
  }
};

// Sends three messages from node 0, one at a time (each released before the
// next is sent): to node 1, node 2, then node 1 again. Returns the three
// record pointers the sink saw.
std::vector<Record*> send_one_at_a_time(sim::Engine& e) {
  NetConfig cfg;
  cfg.wire_latency = 100;
  cfg.per_byte = 1;  // each message arrives long before the next departs
  Network net(e, 4, cfg);
  PointerSink sink;
  sink.net = &net;
  net.set_msg_sink(&sink);
  const char msg[40] = {};
  int step = 0;
  for (int dst : {1, 2, 1}) {
    e.schedule_on(0, 1000 * ++step, [&e, &net, &msg, dst] {
      net.send_msg(0, dst, sizeof msg, e.now(), msg, sizeof msg, nullptr, 0);
    });
  }
  e.run();
  EXPECT_EQ(net.records_outstanding(), 0u);
  std::vector<Record*> out;
  for (const auto& [dst, rec] : sink.got) out.push_back(rec);
  return out;
}

TEST(RecordPool, WindowedNetworkKeepsOnePoolPerLane) {
  // Legacy canon: one pool, so each record reuses the block the previous
  // delivery released.
  sim::Engine legacy;
  const std::vector<Record*> one = send_one_at_a_time(legacy);
  ASSERT_EQ(one.size(), 3u);
  EXPECT_EQ(one[0], one[1]);
  EXPECT_EQ(one[1], one[2]);

  // Windowed: each destination lane acquires from its own pool, so node 2
  // never sees the block node 1 released, and node 1 gets its own back.
  sim::Engine windowed;
  windowed.enable_windows(/*window=*/50, /*lanes=*/4, /*workers=*/1);
  const std::vector<Record*> lanes = send_one_at_a_time(windowed);
  ASSERT_EQ(lanes.size(), 3u);
  EXPECT_NE(lanes[1], lanes[0]);
  EXPECT_EQ(lanes[2], lanes[0]);
}

TEST(RecordPool, StacheRunReleasesEveryRecord) {
  // A 32-node stache run under contention: every message record is back in
  // its pool once the queue drains (System::run checks the same invariant),
  // and the network reports the pool's bytes.
  runtime::System sys(runtime::MachineConfig::cm5_blizzard(32, 32),
                      runtime::ProtocolKind::kStache);
  const auto a = sys.space().alloc_on_node(0, 32 * 64);
  sys.run([&](runtime::NodeCtx& c) {
    for (int it = 0; it < 3; ++it) {
      c.write<int>(a + static_cast<std::uint64_t>(c.id()) * 64, it);
      c.barrier();
      EXPECT_EQ(c.read<int>(a + static_cast<std::uint64_t>((c.id() + 1) % 32) *
                                    64),
                it);
      c.barrier();
    }
  });
  EXPECT_GT(sys.network().messages_sent(), 32u);
  EXPECT_EQ(sys.network().records_outstanding(), 0u);
  EXPECT_GT(sys.network().metadata_bytes(), 0u);
}

}  // namespace
}  // namespace presto::net
