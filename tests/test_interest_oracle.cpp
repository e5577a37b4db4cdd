// Interest oracle for the dissemination walks. Every walk answers "does y
// subscribe to the topic?" from pubsub::PublicationStamps instead of the
// subscription table. With every publication traced, each recorded hop's
// `interested` flag must equal SubscriptionTable::subscribes(to, topic),
// and the metrics' interested/uninterested message counts must equal the
// traced hop counts — on Vitis, RVR and OPT, for publishers outside the
// topic, after dynamic (un)subscription, and for a subscriber that left
// while the adjacency still lists it. The stamp type itself is checked
// against a brute-force oracle across its wrap-around reset.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "pubsub/publication_stamps.hpp"
#include "ids/hash.hpp"
#include "pubsub/system.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "support/recorder.hpp"
#include "workload/scenario.hpp"

namespace vitis {
namespace {

// --- PublicationStamps --------------------------------------------------------

TEST(PublicationStamps, MarksMatchOracleAcrossWrapAround) {
  constexpr std::size_t kNodes = 40;
  // Start a few stamps below the top so the reset runs mid-sequence.
  pubsub::PublicationStamps stamps(
      kNodes, std::numeric_limits<std::uint32_t>::max() - 9);
  sim::Rng rng(0x57a3b5ULL);
  bool wrapped = false;
  std::uint32_t previous = stamps.stamp();
  for (int round = 0; round < 12; ++round) {
    std::vector<ids::NodeIndex> subscribers;
    for (const std::size_t n : rng.sample_indices(kNodes, 1 + rng.index(15))) {
      subscribers.push_back(static_cast<ids::NodeIndex>(n));
    }
    // Publish from a subscriber on even rounds, from an outsider on odd.
    const ids::NodeIndex publisher =
        round % 2 == 0 ? subscribers.front()
                       : static_cast<ids::NodeIndex>(rng.index(kNodes));
    std::vector<bool> expected_oracle(kNodes, false);
    std::vector<bool> interested_oracle(kNodes, false);
    std::size_t expected_count = 0;
    for (const ids::NodeIndex s : subscribers) {
      interested_oracle[s] = true;
      // Odd node ids play "dead or still in join grace".
      if (s != publisher && s % 2 == 0) {
        expected_oracle[s] = true;
        ++expected_count;
      }
    }
    const std::size_t counted = stamps.begin(
        subscribers, publisher, [](ids::NodeIndex s) { return s % 2 == 0; });
    wrapped = wrapped || stamps.stamp() < previous;
    previous = stamps.stamp();
    EXPECT_EQ(stamps.stamp() % 2, 0u);
    EXPECT_EQ(counted, expected_count);
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto n = static_cast<ids::NodeIndex>(i);
      EXPECT_EQ(stamps.interested(n), interested_oracle[i]) << round << ":" << i;
      EXPECT_EQ(stamps.expected(n), expected_oracle[i]) << round << ":" << i;
    }
    // Only the publisher starts visited; every other node's first visit
    // reports a first arrival, its second does not.
    for (std::size_t i = 0; i < kNodes; ++i) {
      const auto n = static_cast<ids::NodeIndex>(i);
      EXPECT_EQ(stamps.visit(n), n != publisher) << round << ":" << i;
      EXPECT_FALSE(stamps.visit(n)) << round << ":" << i;
    }
  }
  EXPECT_TRUE(wrapped);
}

TEST(PublicationStamps, MemoryIsTwoWordsPerNode) {
  EXPECT_EQ(pubsub::PublicationStamps(100).memory_bytes(),
            2 * 100 * sizeof(std::uint32_t));
}

// --- system oracles -----------------------------------------------------------

workload::SyntheticScenario scenario() {
  workload::SyntheticScenarioParams params;
  params.subscriptions.nodes = 300;
  params.subscriptions.topics = 150;
  params.subscriptions.subs_per_node = 20;
  params.subscriptions.pattern = workload::CorrelationPattern::kRandom;
  params.events = 40;
  params.seed = 77;
  return workload::make_synthetic_scenario(params);
}

void trace_everything(pubsub::PubSubSystem& system) {
  support::RecorderConfig config;
  config.enabled = true;
  config.stride = 1000;  // traces only; samples are not under test
  config.trace_rate = 1.0;
  config.max_traces = 1000;
  config.max_hops_per_trace = std::size_t{1} << 20;
  system.configure_recorder(config);
}

/// Checks every trace recorded since `from_trace` against the system's own
/// subscription table and the metrics accumulated since the last reset;
/// returns the number of traced hops.
std::size_t check_traces(const pubsub::PubSubSystem& system,
                         std::size_t from_trace) {
  const auto& traces = system.recorder()->traces();
  const pubsub::SubscriptionTable& subs = system.subscriptions();
  std::uint64_t interested = 0;
  std::uint64_t uninterested = 0;
  std::uint64_t expected = 0;
  std::uint64_t delivered = 0;
  std::size_t hops = 0;
  for (std::size_t i = from_trace; i < traces.size(); ++i) {
    const support::PublicationTrace& trace = traces[i];
    expected += trace.expected;
    delivered += trace.delivered;
    for (const support::TraceHop& hop : trace.hops) {
      EXPECT_EQ(hop.interested, subs.subscribes(hop.to, trace.topic))
          << system.name() << " event " << trace.event_index << " hop "
          << hop.from << "->" << hop.to;
      (hop.interested ? interested : uninterested) += 1;
      ++hops;
    }
  }
  const pubsub::MetricsCollector& metrics = system.metrics();
  EXPECT_EQ(metrics.uninterested_messages(), uninterested) << system.name();
  EXPECT_EQ(metrics.total_messages() - metrics.uninterested_messages(),
            interested)
      << system.name();
  EXPECT_EQ(metrics.expected_total(), expected) << system.name();
  EXPECT_EQ(metrics.delivered_total(), delivered) << system.name();
  return hops;
}

/// A node that does not subscribe to `topic` (and, for Vitis, is no relay
/// for it), or kInvalidNode.
template <typename System>
ids::NodeIndex outsider(const System& system, ids::TopicIndex topic) {
  for (ids::NodeIndex n = 0; n < system.node_count(); ++n) {
    if (!system.is_alive(n) || system.subscriptions().subscribes(n, topic)) {
      continue;
    }
    if constexpr (std::is_same_v<System, core::VitisSystem>) {
      if (system.relay_table(n).is_relay_for(topic)) continue;
    }
    return n;
  }
  return ids::kInvalidNode;
}

/// Publishes the schedule plus one publication per topic from an outsider.
template <typename System>
void publish_mixed(System& system, const workload::SyntheticScenario& sc) {
  for (const auto& [topic, publisher] : sc.schedule) {
    (void)system.publish(topic, publisher);
  }
  for (ids::TopicIndex t = 0; t < 20; ++t) {
    const ids::NodeIndex n = outsider(system, t);
    ASSERT_NE(n, ids::kInvalidNode);
    (void)system.publish(t, n);
  }
}

template <typename System>
void run_oracle(System& system, const workload::SyntheticScenario& sc) {
  system.run_cycles(12);
  trace_everything(system);
  system.metrics().reset();
  publish_mixed(system, sc);
  ASSERT_EQ(system.recorder()->traces().size(), sc.schedule.size() + 20);
  EXPECT_GT(check_traces(system, 0), 0u);
}

TEST(InterestOracle, VitisTracedFlagsMatchSubscriptions) {
  const auto sc = scenario();
  auto system = workload::make_vitis(sc, core::VitisConfig{}, 77);
  run_oracle(*system, sc);
  // Only the outsider publications take the rendezvous route: a
  // subscribing publisher starts the cluster flood itself.
  std::size_t routed = 0;
  for (const auto& trace : system->recorder()->traces()) {
    const bool outside =
        !system->subscriptions().subscribes(trace.publisher, trace.topic);
    for (const auto& hop : trace.hops) {
      if (!hop.route) continue;
      EXPECT_TRUE(outside) << "event " << trace.event_index;
      ++routed;
    }
  }
  EXPECT_GT(routed, 0u);
}

TEST(InterestOracle, VitisOutsiderRouteSurvivesDetours) {
  // With publication hops dropped and the successor fallback armed, an
  // outsider's route restarts its greedy descent at the detour node, which
  // overwrites the route buffer mid-walk. The traced route hops must still
  // form one chain from the publisher, and the oracle must still hold.
  const auto sc = scenario();
  core::VitisConfig config;
  config.route_fallback_limit = 3;
  auto system = workload::make_vitis(sc, config, 77);
  system->run_cycles(12);
  trace_everything(*system);
  sim::FaultConfig fault;
  fault.drop = 0.3;
  system->set_fault_plan(fault);
  system->metrics().reset();

  std::size_t detoured = 0;
  for (ids::TopicIndex t = 0; t < 60; ++t) {
    const ids::NodeIndex publisher = outsider(*system, t);
    ASSERT_NE(publisher, ids::kInvalidNode);
    const auto greedy = system->lookup(publisher, ids::topic_ring_id(t));
    (void)system->publish(t, publisher);
    const support::PublicationTrace& trace =
        system->recorder()->traces().back();
    ids::NodeIndex at = publisher;
    std::size_t k = 1;
    bool diverged = false;
    for (const support::TraceHop& hop : trace.hops) {
      if (!hop.route) continue;
      EXPECT_EQ(hop.from, at) << "topic " << t;
      at = hop.to;
      diverged = diverged || k >= greedy.path.size() || greedy.path[k] != at;
      ++k;
    }
    detoured += diverged ? 1 : 0;
  }
  EXPECT_GT(check_traces(*system, 0), 0u);
  EXPECT_GT(detoured, 0u);
}

TEST(InterestOracle, RvrTracedFlagsMatchSubscriptions) {
  const auto sc = scenario();
  auto system = workload::make_rvr(sc, baselines::rvr::RvrConfig{}, 77);
  run_oracle(*system, sc);
}

TEST(InterestOracle, OptTracedFlagsMatchSubscriptions) {
  const auto sc = scenario();
  auto system = workload::make_opt(sc, baselines::opt::OptConfig{}, 77);
  run_oracle(*system, sc);
}

TEST(InterestOracle, VitisAfterSubscribeAndUnsubscribe) {
  const auto sc = scenario();
  auto system = workload::make_vitis(sc, core::VitisConfig{}, 77);
  system->run_cycles(12);
  trace_everything(*system);
  system->metrics().reset();

  // Topic 3 gains an outsider, topic 4 loses one of its subscribers; no
  // cycle runs in between, so the overlay still reflects the old relation
  // while the walk must answer from the new one.
  const ids::TopicIndex gained = 3;
  const ids::TopicIndex lost = 4;
  const ids::NodeIndex joiner = outsider(*system, gained);
  ASSERT_NE(joiner, ids::kInvalidNode);
  ASSERT_TRUE(system->subscribe(joiner, gained));
  const auto lost_subs = system->subscriptions().subscribers(lost);
  ASSERT_GE(lost_subs.size(), 3u);
  const ids::NodeIndex leaver = lost_subs[1];
  ASSERT_TRUE(system->unsubscribe(leaver, lost));
  EXPECT_TRUE(system->subscriptions().subscribes(joiner, gained));
  EXPECT_FALSE(system->subscriptions().subscribes(leaver, lost));

  for (const ids::TopicIndex t : {gained, lost}) {
    for (const ids::NodeIndex p : system->subscriptions().subscribers(t)) {
      (void)system->publish(t, p);
    }
  }
  (void)system->publish(lost, leaver);  // now an outsider of `lost`
  EXPECT_GT(check_traces(*system, 0), 0u);

  // After cycles the overlay adapts; the oracle still holds.
  system->run_cycles(3);
  system->metrics().reset();
  const std::size_t from = system->recorder()->traces().size();
  for (const ids::TopicIndex t : {gained, lost}) {
    (void)system->publish(t, system->subscriptions().subscribers(t)[0]);
  }
  EXPECT_GT(check_traces(*system, from), 0u);
}

/// Removes, without running a cycle, one subscriber of each of the first
/// topics that another subscriber lists as a neighbor, then publishes
/// those topics from a surviving subscriber. Returns the number of traced
/// hops that reached a departed node.
template <typename System>
std::size_t leave_then_publish(System& system) {
  system.run_cycles(12);
  trace_everything(system);
  system.metrics().reset();
  std::vector<std::pair<ids::TopicIndex, ids::NodeIndex>> plan;
  std::vector<ids::NodeIndex> left;
  for (ids::TopicIndex t = 0; t < 30; ++t) {
    const auto subs = system.subscriptions().subscribers(t);
    if (subs.size() < 3) continue;
    const ids::NodeIndex victim = subs[1];
    if (!system.is_alive(victim) || !system.is_alive(subs[0])) continue;
    system.node_leave(victim);
    left.push_back(victim);
    plan.emplace_back(t, subs[0]);
  }
  for (const auto& [topic, publisher] : plan) {
    if (system.is_alive(publisher)) (void)system.publish(topic, publisher);
  }
  EXPECT_GT(check_traces(system, 0), 0u);
  std::size_t to_dead = 0;
  for (const auto& trace : system.recorder()->traces()) {
    for (const auto& hop : trace.hops) {
      if (!system.is_alive(hop.to)) ++to_dead;
    }
  }
  return to_dead;
}

TEST(InterestOracle, VitisLeaveWithoutCycle) {
  const auto sc = scenario();
  auto system = workload::make_vitis(sc, core::VitisConfig{}, 77);
  // The adjacency still lists the departed subscribers, so some hops reach
  // them, and they count as interested like any subscriber.
  EXPECT_GT(leave_then_publish(*system), 0u);
}

TEST(InterestOracle, RvrLeaveWithoutCycle) {
  const auto sc = scenario();
  auto system = workload::make_rvr(sc, baselines::rvr::RvrConfig{}, 77);
  (void)leave_then_publish(*system);  // the tree walk skips dead peers
}

TEST(InterestOracle, OptLeaveWithoutCycle) {
  const auto sc = scenario();
  auto system = workload::make_opt(sc, baselines::opt::OptConfig{}, 77);
  EXPECT_GT(leave_then_publish(*system), 0u);
}

}  // namespace
}  // namespace vitis
