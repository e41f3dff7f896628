#include "net/batch_fabric.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/sim_fabric.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "sim/simulator.hpp"

namespace flecc::net {
namespace {

struct Recorder : Endpoint {
  std::vector<Message> received;
  void on_message(const Message& m) override { received.push_back(m); }
};

struct Fixture : ::testing::Test {
  Fixture() {
    std::vector<NodeId> hosts;
    LinkSpec spec;
    spec.latency = 100;
    auto topo = Topology::lan(3, spec, &hosts);
    inner = std::make_unique<SimFabric>(sim, std::move(topo),
                                        SimFabric::Config{});
    BatchFabric::Config cfg;
    cfg.batch_window = 25;
    cfg.max_batch = 16;
    batch = std::make_unique<BatchFabric>(*inner, cfg);
    a1 = Address{hosts[0], 1};
    a2 = Address{hosts[0], 2};
    b1 = Address{hosts[1], 1};
    b2 = Address{hosts[1], 2};
    c1 = Address{hosts[2], 1};
  }

  std::uint64_t ctr(const char* name) {
    return inner->counters().get(name);
  }

  sim::Simulator sim;
  std::unique_ptr<SimFabric> inner;
  std::unique_ptr<BatchFabric> batch;
  Address a1, a2, b1, b2, c1;
};

TEST_F(Fixture, TrainCoalescesIntoOneHopIntact) {
  Recorder rb1, rb2;
  batch->bind(b1, rb1);
  batch->bind(b2, rb2);
  // Three messages, two senders, one destination node: one frame.
  batch->send(a1, b1, "t.push", std::string("p1"), 40);
  batch->send(a2, b1, "t.push", std::string("p2"), 40);
  batch->send(a1, b2, "t.kill", std::string("p3"), 30);
  sim.run();

  ASSERT_EQ(rb1.received.size(), 2u);
  ASSERT_EQ(rb2.received.size(), 1u);
  // Send order within the train is preserved, addressing intact.
  EXPECT_EQ(payload_as<std::string>(rb1.received[0]), "p1");
  EXPECT_EQ(payload_as<std::string>(rb1.received[1]), "p2");
  EXPECT_EQ(rb1.received[0].from, a1);
  EXPECT_EQ(rb1.received[1].from, a2);
  EXPECT_EQ(payload_as<std::string>(rb2.received[0]), "p3");

  // One physical hop carried three sub-messages...
  EXPECT_EQ(inner->sent_count(), 1u);
  EXPECT_EQ(ctr("batch.frames"), 1u);
  EXPECT_EQ(ctr("batch.subs"), 3u);
  EXPECT_EQ(ctr("batch.coalesced"), 2u);
  EXPECT_EQ(ctr("batch.flush.window"), 1u);
  // ...while per-type accounting still counts every message once.
  EXPECT_EQ(ctr("msg.sent.t.push"), 2u);
  EXPECT_EQ(ctr("msg.sent.t.kill"), 1u);
  EXPECT_EQ(ctr("msg.delivered.t.push"), 2u);
  EXPECT_EQ(ctr("msg.delivered.t.kill"), 1u);
}

TEST_F(Fixture, SingleMessageSentUnwrapped) {
  Recorder rb1;
  batch->bind(b1, rb1);
  batch->send(a1, b1, "t.lone", 7, 16);
  sim.run();
  ASSERT_EQ(rb1.received.size(), 1u);
  EXPECT_EQ(payload_as<int>(rb1.received[0]), 7);
  EXPECT_EQ(ctr("batch.frames"), 0u);
  EXPECT_EQ(ctr("batch.flush.single"), 1u);
  // Unwrapped path: the inner fabric counted it as a normal send.
  EXPECT_EQ(ctr("msg.sent.t.lone"), 1u);
  EXPECT_EQ(inner->sent_count(), 1u);
}

TEST_F(Fixture, CapacityFlushesImmediately) {
  BatchFabric::Config cfg;
  cfg.batch_window = 1000000;  // would never fire in this test
  cfg.max_batch = 4;
  BatchFabric tight(*inner, cfg);
  Recorder rb1;
  tight.bind(b1, rb1);
  for (int i = 0; i < 4; ++i) tight.send(a1, b1, "t.burst", i, 8);
  sim.run();
  EXPECT_EQ(rb1.received.size(), 4u);
  EXPECT_EQ(ctr("batch.flush.capacity"), 1u);
  EXPECT_EQ(ctr("batch.frames"), 1u);
  tight.unbind(b1);
}

TEST_F(Fixture, DistinctDestinationsDistinctFrames) {
  Recorder rb1, rc1;
  batch->bind(b1, rb1);
  batch->bind(c1, rc1);
  batch->send(a1, b1, "t.x", 1, 8);
  batch->send(a1, c1, "t.x", 2, 8);
  batch->send(a1, b1, "t.x", 3, 8);
  sim.run();
  EXPECT_EQ(rb1.received.size(), 2u);
  EXPECT_EQ(rc1.received.size(), 1u);
  // node-b train framed, the lone node-c message went unwrapped.
  EXPECT_EQ(ctr("batch.frames"), 1u);
  EXPECT_EQ(ctr("batch.flush.single"), 1u);
}

TEST_F(Fixture, UnboundSubMessageDroppedNotFatal) {
  Recorder rb1;
  batch->bind(b1, rb1);
  batch->send(a1, b1, "t.x", 1, 8);
  batch->send(a1, b2, "t.x", 2, 8);  // b2 never bound
  sim.run();
  EXPECT_EQ(rb1.received.size(), 1u);
  EXPECT_EQ(ctr("batch.sub.unbound"), 1u);
  EXPECT_EQ(ctr("msg.dropped.unbound"), 1u);
}

TEST_F(Fixture, CausalClocksTickAndObservePerSubMessage) {
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  obs::CausalClock sender, receiver;
  Recorder rb1;
  batch->bind(b1, rb1);
  batch->set_clock(a1, &sender);
  batch->set_clock(b1, &receiver);
  batch->send(a1, b1, "t.x", 1, 8);
  batch->send(a1, b1, "t.x", 2, 8);
  sim.run();
  ASSERT_EQ(rb1.received.size(), 2u);
  // Each sub-message carries its own monotone stamp, and the receiver
  // observed the newest — identical to the unbatched fabric's behavior.
  EXPECT_GT(rb1.received[0].clock, 0u);
  EXPECT_GT(rb1.received[1].clock, rb1.received[0].clock);
  EXPECT_GT(receiver.value(), rb1.received[1].clock - 1);
  batch->set_clock(a1, nullptr);
  batch->set_clock(b1, nullptr);
}

TEST_F(Fixture, FlushAllDrainsPendingWithoutTimer) {
  BatchFabric::Config cfg;
  cfg.batch_window = 1000000;
  BatchFabric lazy(*inner, cfg);
  Recorder rb1;
  lazy.bind(b1, rb1);
  lazy.send(a1, b1, "t.x", 1, 8);
  lazy.send(a1, b1, "t.x", 2, 8);
  lazy.flush_all();
  sim.run();
  EXPECT_EQ(rb1.received.size(), 2u);
  lazy.unbind(b1);
}

TEST_F(Fixture, TrainSurvivesItsFirstSenderUnbinding) {
  // The flush timer belongs to the sending node's terminal, not to the
  // sender that happened to arm it: that sender going away inside the
  // window must not strand the rest of the shared train.
  Recorder ra1, ra2, rb1;
  batch->bind(a1, ra1);
  batch->bind(a2, ra2);
  batch->bind(b1, rb1);
  batch->send(a1, b1, "t.first", 1, 8);  // arms the train's flush timer
  batch->send(a2, b1, "t.second", 2, 8);
  batch->unbind(a1);
  sim.run();
  ASSERT_EQ(rb1.received.size(), 2u);
  EXPECT_EQ(rb1.received[1].from, a2);
  EXPECT_EQ(ctr("batch.flush.window"), 1u);
}

TEST(BatchFabricStandalone, FrameTraceEventsRoundTripThroughTraceIo) {
  // The fabric's obs buffer records drop events; under batching a lost
  // frame is one drop carrying the whole train. That event must survive
  // the JSONL encode/decode unchanged so offline analysis of a batched
  // chaos run keeps working.
  if (!obs::kTraceEnabled) GTEST_SKIP() << "built with FLECC_TRACE=OFF";
  sim::Simulator sim;
  std::vector<NodeId> hosts;
  auto topo = Topology::lan(2, LinkSpec{}, &hosts);
  SimFabric::Config cfg;
  cfg.loss_probability = 1.0;  // every frame is lost
  cfg.seed = 7;
  SimFabric inner(sim, std::move(topo), cfg);
  obs::TraceBuffer buffer(128);
  inner.set_trace_buffer(&buffer);
  BatchFabric batch(inner, BatchFabric::Config{});
  Recorder r;
  const Address src{hosts[0], 1};
  const Address dst{hosts[1], 1};
  batch.bind(dst, r);
  batch.send(src, dst, "t.x", 1, 8);
  batch.send(src, dst, "t.x", 2, 8);
  sim.run();
  EXPECT_TRUE(r.received.empty());
  EXPECT_EQ(inner.counters().get("msg.dropped.loss"), 1u);  // 1 frame

  const auto events = buffer.snapshot();
  ASSERT_FALSE(events.empty());
  for (const auto& e : events) {
    const std::string line = obs::to_jsonl(e);
    const auto back = obs::from_jsonl(line);
    ASSERT_TRUE(back.has_value()) << line;
    EXPECT_EQ(obs::to_jsonl(*back), line);
  }
  batch.unbind(dst);
}

TEST(BatchFabricStandalone, TracingNeverPerturbsBatchedRuns) {
  // Same seed, same sends; one run traced, one not. The batched path
  // must produce identical delivery counts and payload order.
  auto run = [](bool traced, std::vector<int>& out) {
    sim::Simulator sim;
    std::vector<NodeId> hosts;
    auto topo = Topology::lan(2, LinkSpec{}, &hosts);
    SimFabric inner(sim, std::move(topo), SimFabric::Config{});
    obs::TraceBuffer buffer(128);
    if (traced) inner.set_trace_buffer(&buffer);
    BatchFabric batch(inner, BatchFabric::Config{});
    Recorder r;
    const Address src{hosts[0], 1};
    const Address dst{hosts[1], 1};
    batch.bind(dst, r);
    for (int i = 0; i < 9; ++i) batch.send(src, dst, "t.x", i, 8);
    sim.run();
    for (const auto& m : r.received) out.push_back(payload_as<int>(m));
    batch.unbind(dst);
    return inner.sent_count();
  };
  std::vector<int> plain, traced;
  const auto hops_plain = run(false, plain);
  const auto hops_traced = run(true, traced);
  EXPECT_EQ(plain, traced);
  EXPECT_EQ(hops_plain, hops_traced);
  ASSERT_EQ(plain.size(), 9u);
}

}  // namespace
}  // namespace flecc::net
