// ThreadFabric tests: the Fabric contract under real threads, and the
// full Flecc protocol running multi-threaded.
#include "rt/thread_fabric.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "../core/test_support.hpp"
#include "core/cache_manager.hpp"
#include "core/directory_manager.hpp"

namespace flecc::rt {
namespace {

struct CountingEndpoint : net::Endpoint {
  std::atomic<int> count{0};
  std::atomic<int> concurrent{0};
  std::atomic<int> max_concurrent{0};
  void on_message(const net::Message&) override {
    const int c = ++concurrent;
    int prev = max_concurrent.load();
    while (c > prev && !max_concurrent.compare_exchange_weak(prev, c)) {
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
    ++count;
    --concurrent;
  }
};

TEST(ThreadFabricTest, DeliversMessages) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  for (int i = 0; i < 10; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.msg", i, 8);
  }
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 10);
}

TEST(ThreadFabricTest, HandlersNeverRunConcurrentlyPerEndpoint) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  // Blast from several sender threads.
  std::vector<std::thread> senders;
  for (int s = 0; s < 4; ++s) {
    senders.emplace_back([&fabric, s] {
      for (int i = 0; i < 25; ++i) {
        fabric.send(net::Address{1, static_cast<net::PortId>(s)},
                    net::Address{0, 1}, "t.blast", i, 8);
      }
    });
  }
  for (auto& t : senders) t.join();
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 100);
  EXPECT_EQ(ep.max_concurrent.load(), 1);  // the Fabric contract
}

TEST(ThreadFabricTest, DistinctEndpointsRunConcurrently) {
  ThreadFabric fabric;
  CountingEndpoint a, b;
  fabric.bind(net::Address{0, 1}, a);
  fabric.bind(net::Address{0, 2}, b);
  for (int i = 0; i < 50; ++i) {
    fabric.send(net::Address{9, 9}, net::Address{0, 1}, "t.a", i, 8);
    fabric.send(net::Address{9, 9}, net::Address{0, 2}, "t.b", i, 8);
  }
  fabric.drain();
  EXPECT_EQ(a.count.load(), 50);
  EXPECT_EQ(b.count.load(), 50);
}

TEST(ThreadFabricTest, UnboundDestinationCounted) {
  ThreadFabric fabric;
  fabric.send(net::Address{0, 1}, net::Address{0, 2}, "t.void", 0, 8);
  fabric.drain();
  EXPECT_EQ(fabric.counters().get("msg.dropped.unbound"), 1u);
}

TEST(ThreadFabricTest, TimersFireAndCancel) {
  ThreadFabric fabric;
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  std::atomic<int> fired{0};
  fabric.schedule(net::Address{0, 1}, sim::msec(5), [&] { ++fired; });
  const auto id =
      fabric.schedule(net::Address{0, 1}, sim::msec(200), [&] { ++fired; });
  EXPECT_TRUE(fabric.cancel_timer(id));
  EXPECT_FALSE(fabric.cancel_timer(id));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  fabric.drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST(ThreadFabricTest, UnbindCancelsOwnersTimersAndRebindStartsClean) {
  ThreadFabric fabric;
  CountingEndpoint first, second, other;
  const net::Address addr{0, 1};
  const net::Address other_addr{0, 2};
  fabric.bind(addr, first);
  fabric.bind(other_addr, other);
  std::atomic<int> old_fired{0};
  std::atomic<int> new_fired{0};
  std::atomic<int> other_fired{0};
  fabric.schedule(addr, sim::msec(20), [&] { ++old_fired; });
  fabric.schedule_daemon(addr, sim::msec(20), [&] { ++old_fired; });
  fabric.schedule(other_addr, sim::msec(20), [&] { ++other_fired; });
  fabric.schedule_daemon(other_addr, sim::msec(20), [&] { ++other_fired; });
  fabric.send(addr, other_addr, "t.from_unbound", 0, 8);
  fabric.unbind(addr);
  fabric.bind(addr, second);
  fabric.schedule(addr, sim::msec(20), [&] { ++new_fired; });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  fabric.drain();
  EXPECT_EQ(old_fired.load(), 0);  // plain and daemon died with the binding
  EXPECT_EQ(new_fired.load(), 1);
  EXPECT_EQ(other_fired.load(), 2);  // other owners are untouched
  EXPECT_EQ(other.count.load(), 1);  // messages are not timers
}

TEST(ThreadFabricTest, NowIsMonotonic) {
  ThreadFabric fabric;
  const auto t0 = fabric.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(fabric.now(), t0);
}

TEST(ThreadFabricTest, TopologyDelaysAndDropsApply) {
  ThreadFabric::Config cfg;
  net::Topology topo;
  const auto a = topo.add_node();
  const auto b = topo.add_node();
  const auto isolated = topo.add_node();
  (void)isolated;
  net::LinkSpec link;
  link.latency = sim::msec(15);
  topo.add_link(a, b, link);
  cfg.topology = std::move(topo);
  ThreadFabric fabric(cfg);

  CountingEndpoint ep, lonely;
  fabric.bind(net::Address{b, 1}, ep);
  fabric.bind(net::Address{2, 1}, lonely);

  const auto t0 = fabric.now();
  fabric.send(net::Address{a, 1}, net::Address{b, 1}, "t.routed", 0, 8);
  fabric.send(net::Address{a, 1}, net::Address{2, 1}, "t.unroutable", 0, 8);
  fabric.drain();
  EXPECT_EQ(ep.count.load(), 1);
  EXPECT_GE(fabric.now() - t0, sim::msec(10));
  EXPECT_EQ(lonely.count.load(), 0);
  EXPECT_EQ(fabric.counters().get("msg.dropped.no_route"), 1u);
}

TEST(ThreadFabricTest, MessageDelayApplied) {
  ThreadFabric::Config cfg;
  cfg.message_delay = sim::msec(20);
  ThreadFabric fabric(cfg);
  CountingEndpoint ep;
  fabric.bind(net::Address{0, 1}, ep);
  const auto t0 = fabric.now();
  fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.slow", 0, 8);
  fabric.drain();
  EXPECT_GE(fabric.now() - t0, sim::msec(15));
  EXPECT_EQ(ep.count.load(), 1);
}

// ---- bounded mailboxes (net/flow.hpp wiring) ------------------------------

/// Holds its mailbox thread hostage on the first "t.block" message until
/// released, so the test can fill the queue behind it deterministically.
struct BlockingEndpoint : net::Endpoint {
  std::atomic<int> bulk{0};
  std::atomic<int> ctrl{0};
  std::atomic<bool> entered{false};
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;

  void on_message(const net::Message& m) override {
    if (m.type == "t.block") {
      entered = true;
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [this] { return release; });
      return;
    }
    if (m.type == "t.bulk") {
      ++bulk;
    } else {
      ++ctrl;
    }
  }

  void unblock() {
    {
      std::lock_guard<std::mutex> lock(mu);
      release = true;
    }
    cv.notify_all();
  }
};

ThreadFabric::Config bounded_config(std::size_t capacity) {
  ThreadFabric::Config cfg;
  cfg.flow.queue_capacity = capacity;
  cfg.flow.is_control = [](std::string_view type) {
    return type != "t.bulk";
  };
  cfg.flow.make_busy = [](const net::Message& shed, sim::Duration) {
    return net::BusyReply{"t.busy", shed.id, 8};
  };
  return cfg;
}

TEST(ThreadFabricFlowTest, FullMailboxNacksInsteadOfGrowing) {
  ThreadFabric fabric(bounded_config(4));
  BlockingEndpoint ep;
  CountingEndpoint sender;
  fabric.bind(net::Address{0, 1}, ep);
  fabric.bind(net::Address{0, 2}, sender);  // where Busy replies land

  fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.block", 0, 8);
  while (!ep.entered.load()) std::this_thread::yield();

  // The worker is wedged: ten bulk sends meet a capacity-4 queue, so
  // four enqueue and six are refused with a synthesized "t.busy" each.
  for (int i = 0; i < 10; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.bulk", i, 8);
  }
  ep.unblock();
  fabric.drain();

  EXPECT_EQ(ep.bulk.load(), 4);
  EXPECT_EQ(sender.count.load(), 6);  // one Busy per shed message
  EXPECT_EQ(fabric.counters().get("flow.shed"), 6u);
  EXPECT_EQ(fabric.counters().get("flow.shed.t.bulk"), 6u);
  // The bulk queue never grew past its bound (delivered == capacity
  // proves it); the published peak covers every mailbox, including the
  // sender's control-lane Busy replies, so it is bounded, not exact.
  EXPECT_GE(fabric.peak_mailbox_depth(), 4u);
  EXPECT_LE(fabric.peak_mailbox_depth(), 10u);
  EXPECT_EQ(fabric.counters().get("flow.queue.peak"),
            fabric.peak_mailbox_depth());
}

TEST(ThreadFabricFlowTest, ControlLaneBypassesShedBulkTraffic) {
  ThreadFabric fabric(bounded_config(4));
  BlockingEndpoint ep;
  CountingEndpoint sender;
  fabric.bind(net::Address{0, 1}, ep);
  fabric.bind(net::Address{0, 2}, sender);

  fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.block", 0, 8);
  while (!ep.entered.load()) std::this_thread::yield();

  for (int i = 0; i < 10; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.bulk", i, 8);
  }
  // The bulk lane is latched shut now — control traffic (acks,
  // heartbeats, grants in the real protocol) must still get through.
  for (int i = 0; i < 5; ++i) {
    fabric.send(net::Address{0, 2}, net::Address{0, 1}, "t.ctrl", i, 8);
  }
  ep.unblock();
  fabric.drain();

  EXPECT_EQ(ep.ctrl.load(), 5);  // every control message delivered
  EXPECT_EQ(ep.bulk.load(), 4);
  EXPECT_EQ(fabric.counters().get("flow.shed"), 6u);
  EXPECT_EQ(fabric.counters().get("flow.shed.t.ctrl"), 0u);
}

// ---- the actual protocol over threads ------------------------------------

TEST(ThreadFabricProtocolTest, FleccRunsUnchangedOverThreads) {
  using core::testing::KvPrimary;
  using core::testing::KvView;

  ThreadFabric fabric;
  KvPrimary primary(100);
  const net::Address dir_addr{100, 1};
  core::DirectoryManager directory(fabric, dir_addr, primary);

  constexpr int kAgents = 4;
  constexpr int kOpsEach = 10;
  std::vector<std::unique_ptr<KvView>> views;
  std::vector<std::unique_ptr<core::CacheManager>> cms;
  for (int i = 0; i < kAgents; ++i) {
    views.push_back(std::make_unique<KvView>(0, 9));
    core::CacheManager::Config cfg;
    cfg.view_name = "kv.View";
    cfg.properties = views.back()->properties();
    cfg.mode = core::Mode::kStrong;
    cms.push_back(std::make_unique<core::CacheManager>(
        fabric, net::Address{static_cast<net::NodeId>(i), 1}, dir_addr,
        *views.back(), cfg));
  }

  // Each agent thread performs strong-mode increments via the blocking
  // facade. Every CacheManager call is posted to the manager's own
  // mailbox (the rt threading rule), so the protocol object never sees
  // concurrent calls; exclusivity must serialize the agents without
  // losing updates.
  std::vector<std::thread> workers;
  for (int i = 0; i < kAgents; ++i) {
    workers.emplace_back([&, i] {
      const auto idx = static_cast<size_t>(i);
      const net::Address self = cms[idx]->address();
      for (int op = 0; op < kOpsEach; ++op) {
        wait_for([&](auto done) {
          fabric.post(self, [&, done = std::move(done)] {
            cms[idx]->start_use_image(done);
          });
        });
        wait_for([&](auto done) {
          fabric.post(self, [&, done = std::move(done)] {
            views[idx]->increment(3, 1);
            cms[idx]->end_use_image(true);
            done();
          });
        });
      }
      wait_for([&](auto done) {
        fabric.post(self, [&, done = std::move(done)] {
          cms[idx]->kill_image(done);
        });
      });
    });
  }
  for (auto& w : workers) w.join();
  fabric.drain();

  EXPECT_EQ(primary.cell(3), kAgents * kOpsEach);
  // Tear down the cache managers before the fabric.
  cms.clear();
}

}  // namespace
}  // namespace flecc::rt
