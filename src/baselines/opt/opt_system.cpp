#include "baselines/opt/opt_system.hpp"

#include <limits>

#include "support/check.hpp"

namespace vitis::baselines::opt {

BaselineConfig OptSystem::effective_base(const OptConfig& config) {
  BaselineConfig base = config.base;
  if (config.unbounded) {
    // Lift the degree bound; BaselineSystem clamps table capacity to the
    // network size.
    base.routing_table_size = std::numeric_limits<std::size_t>::max();
  }
  return base;
}

OptSystem::OptSystem(OptConfig config, pubsub::SubscriptionTable subscriptions,
                     std::uint64_t seed, bool start_online)
    : BaselineSystem(effective_base(config), std::move(subscriptions), seed,
                     start_online),
      config_(config),
      selector_(config.coverage_target, this->subscriptions()) {
  if (config_.pair_cache_slots > 0 && core::utility_cache_env_enabled()) {
    coverage_cache_.reset(config_.pair_cache_slots);
    selector_.set_cache(&coverage_cache_);
  }
  if (config_.unbounded) {
    coverage_.resize(node_count());
    for (std::size_t i = 0; i < node_count(); ++i) {
      coverage_[i].assign(
          this->subscriptions().of(static_cast<ids::NodeIndex>(i)).size(), 0);
    }
    linked_.assign(node_count(), 0);
  }
}

void OptSystem::select_neighbors(ids::NodeIndex self,
                                 std::span<const gossip::Descriptor> candidates,
                                 overlay::RoutingTable& rt, sim::Rng& rng) {
  (void)rng;  // coverage selection is fully deterministic
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kRanking);
  const auto& my_subs = subscriptions().of(self);
  if (config_.unbounded) {
    // Additive: keep every existing link, add what coverage still needs.
    // Topics covered only by lost links are re-counted as under-covered
    // (without memo calls, so static runs replay the same memo history).
    if (rt.size() != linked_[self]) {
      selector_.count_coverage(my_subs, rt, coverage_[self]);
    }
    for (const auto& entry :
         selector_.select_additional(my_subs, candidates, rt,
                                     coverage_[self], set_id(self))) {
      (void)rt.add(entry);
    }
    linked_[self] = rt.size();
    return;
  }
  rt.assign(selector_.select_bounded(my_subs, candidates,
                                     base_config().routing_table_size,
                                     set_id(self)));
}

void OptSystem::sync_cache_counters(support::Profiler& profiler) const {
  const core::UtilityCacheStats& stats = coverage_cache_.stats();
  profiler.set_counter(support::Counter::kUtilityCacheHits, stats.hits);
  profiler.set_counter(support::Counter::kUtilityCacheMisses, stats.misses);
  profiler.set_counter(support::Counter::kUtilityCacheEvictions,
                       stats.evictions);
  profiler.set_counter(support::Counter::kUtilityCacheInvalidations,
                       stats.invalidations);
}

double OptSystem::cache_hit_rate() const {
  return coverage_cache_.stats().hit_rate();
}

pubsub::DisseminationReport OptSystem::publish(ids::TopicIndex topic,
                                               ids::NodeIndex publisher) {
  const support::ScopedPhase phase(&profiler_mut(),
                                   support::Phase::kDelivery);
  PublishContext ctx = start_publish(topic, publisher);

  // Pure per-topic flooding: only links between subscribers carry the
  // event; there is no relay mechanism (hence zero traffic overhead but no
  // connectivity guarantee).
  std::vector<pubsub::WalkItem>& queue = walk_queue();
  queue.clear();
  queue.push_back(pubsub::WalkItem{publisher, ids::kInvalidNode, 0});
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const pubsub::WalkItem item = queue[head];
    for (const ids::NodeIndex y : undirected(item.node)) {
      if (y == item.from) continue;
      if (!interested(ctx, y)) continue;
      if (fault_active() &&
          !fault_deliver(item.node, y, sim::MessageKind::kPublication)) {
        continue;
      }
      if (transmit(ctx, item.node, y, item.hop + 1)) {
        queue.push_back(pubsub::WalkItem{y, item.node, item.hop + 1});
      }
    }
  }

  finish_publish(ctx);
  return ctx.report;
}

}  // namespace vitis::baselines::opt
