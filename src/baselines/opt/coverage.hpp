// SpiderCast-like k-coverage neighbor selection for the OPT baseline
// (§IV: "an unstructured solution that constructs an Overlay Per Topic,
// while minimizing node degrees by exploiting the subscription
// correlations, similar to SpiderCast").
//
// A node wants at least `coverage_target` neighbors sharing each of its
// topics. Selection is greedy: repeatedly pick the candidate that covers
// the most still-under-covered topics (one link can cover many topics at
// once when subscriptions correlate — SpiderCast's core idea). Remaining
// slots are filled by interest similarity.
//
// Each call stamps the selecting node's own topics into an epoch-stamped
// topic → position index, so a candidate's shared topics become a bitmask
// over those positions (⌈|mine|/64⌉ words, independent of the topic
// universe), built with O(1) stamp tests per candidate topic. The greedy
// gain is then popcount(mask & under_covered), and a position's bit is
// cleared once its coverage reaches the target.
//
// The similarity merge reuses the same core::PairUtilityCache machinery as
// Vitis' ranking (set_cache + interned SetIds): the cache memoizes the
// shared-topic *count* of a set pair, and a remembered count of zero lets
// disjoint pairs — the overwhelming majority under uncorrelated workloads —
// skip the mask build entirely. Non-zero pairs still build their mask
// (positions are needed, not just the count), so results are bit-identical
// with the cache on, off, or cold.
//
// Working sets (masks, counts, coverage, fill order, the selected entries)
// are members reused across calls: after a warm-up over a pool of the same
// size, selection performs no heap allocation.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/utility.hpp"
#include "gossip/descriptor.hpp"
#include "overlay/routing_table.hpp"
#include "pubsub/subscription.hpp"
#include "pubsub/subscription_registry.hpp"

namespace vitis::baselines::opt {

class CoverageSelector {
 public:
  /// `subscriptions_of(node)` resolves a candidate's subscription set.
  CoverageSelector(std::size_t coverage_target,
                   const pubsub::SubscriptionTable& subscriptions);

  /// Attach a shared-count memo (not owned; nullptr detaches). The cache
  /// instance must be dedicated to this selector — its values are shared
  /// counts, not utilities.
  void set_cache(core::PairUtilityCache* cache) { cache_ = cache; }

  /// Bounded-degree selection: rebuild a table of at most `capacity`
  /// entries from the candidate buffer. `my_set_id` (optional) keys the
  /// shared-count memo; candidates contribute their descriptor snapshot id.
  /// The returned view aliases selector storage and stays valid until the
  /// next selection call.
  [[nodiscard]] std::span<const overlay::RoutingEntry> select_bounded(
      const pubsub::SubscriptionSet& my_subs,
      std::span<const gossip::Descriptor> candidates, std::size_t capacity,
      pubsub::SetId my_set_id = pubsub::kInvalidSetId);

  /// Unbounded-degree selection: given the coverage already provided by the
  /// current table (per-topic counts aligned with `my_subs`), return the
  /// additional candidates needed to reach the coverage target. `coverage`
  /// is updated in place for the chosen candidates. The returned view
  /// aliases selector storage and stays valid until the next call.
  [[nodiscard]] std::span<const overlay::RoutingEntry> select_additional(
      const pubsub::SubscriptionSet& my_subs,
      std::span<const gossip::Descriptor> candidates,
      const overlay::RoutingTable& current,
      std::vector<std::uint8_t>& coverage,
      pubsub::SetId my_set_id = pubsub::kInvalidSetId);

  /// Recount `coverage` (per-topic link counts aligned with `my_subs`)
  /// from the links `table` holds now. Never touches the memo, so memo
  /// counters and eviction order do not depend on when recounts happen.
  void count_coverage(const pubsub::SubscriptionSet& my_subs,
                      const overlay::RoutingTable& table,
                      std::vector<std::uint8_t>& coverage);

  [[nodiscard]] std::size_t coverage_target() const { return target_; }

 private:
  /// Stamp my_subs' topics into the position index and size the mask
  /// width for this call.
  void index_topics(const pubsub::SubscriptionSet& my_subs);

  /// Zero and fill the first `candidates.size()` masks; shared_[i] gets
  /// candidate i's shared-topic count. Candidates `current` already links
  /// to (when given) are skipped without a memo call. Memo lookups and
  /// inserts happen in pool order, one per fingerprint-overlapping pair.
  void build_masks(const pubsub::SubscriptionSet& my_subs,
                   pubsub::SetId my_id,
                   std::span<const gossip::Descriptor> candidates,
                   const overlay::RoutingTable* current);

  /// Fill `mask` with the positions of the topics `other` shares with the
  /// indexed set; returns their count.
  std::size_t shared_mask(const pubsub::SubscriptionSet& my_subs,
                          pubsub::SetId my_id,
                          const pubsub::SubscriptionSet& other,
                          pubsub::SetId other_id, std::uint64_t* mask);

  [[nodiscard]] const std::uint64_t* mask(std::size_t i) const {
    return masks_.data() + i * words_;
  }

  /// Still-under-covered positions `mask` would cover.
  [[nodiscard]] std::size_t gain(const std::uint64_t* mask) const;

  /// Count one more link over `mask`'s positions (saturating at 255) and
  /// clear under_ bits that reach the target.
  void cover(const std::uint64_t* mask, std::span<std::uint8_t> coverage);

  /// Set under_ from `coverage`: bit p is set iff coverage[p] < target.
  void mark_under_covered(std::span<const std::uint8_t> coverage);

  std::size_t target_;
  const pubsub::SubscriptionTable* subscriptions_;
  core::PairUtilityCache* cache_ = nullptr;  // not owned

  // Topic → position index of the selecting node's set (valid where
  // stamp_[topic] == epoch_).
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> pos_;
  std::uint32_t epoch_ = 0;

  std::size_t words_ = 0;               // mask width of the current call
  std::vector<std::uint64_t> masks_;    // candidate i at [i*words_, +words_)
  std::vector<std::uint32_t> shared_;   // popcount of each mask
  std::vector<std::uint64_t> under_;    // positions with coverage < target
  std::vector<std::uint8_t> coverage_;  // select_bounded's coverage
  std::vector<std::uint32_t> order_;    // similarity-fill order
  std::vector<overlay::RoutingEntry> selected_;
};

}  // namespace vitis::baselines::opt
