#include "baselines/opt/coverage.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace vitis::baselines::opt {
namespace {

constexpr std::size_t kWordBits = 64;

overlay::RoutingEntry coverage_link(const gossip::Descriptor& d) {
  return overlay::RoutingEntry{d.node, d.id, overlay::LinkKind::kCoverage, 0};
}

}  // namespace

CoverageSelector::CoverageSelector(
    std::size_t coverage_target,
    const pubsub::SubscriptionTable& subscriptions)
    : target_(coverage_target),
      subscriptions_(&subscriptions),
      stamp_(subscriptions.topic_count(), 0),
      pos_(subscriptions.topic_count(), 0) {
  VITIS_CHECK(coverage_target > 0);
}

void CoverageSelector::index_topics(const pubsub::SubscriptionSet& my_subs) {
  if (++epoch_ == 0) {  // wrapped: invalidate every stale stamp
    std::fill(stamp_.begin(), stamp_.end(), 0U);
    epoch_ = 1;
  }
  const auto mine = my_subs.topics();
  for (std::size_t i = 0; i < mine.size(); ++i) {
    VITIS_DCHECK(mine[i] < stamp_.size());
    stamp_[mine[i]] = epoch_;
    pos_[mine[i]] = static_cast<std::uint32_t>(i);
  }
  words_ = (mine.size() + kWordBits - 1) / kWordBits;
}

std::size_t CoverageSelector::shared_mask(
    const pubsub::SubscriptionSet& my_subs, pubsub::SetId my_id,
    const pubsub::SubscriptionSet& other, pubsub::SetId other_id,
    std::uint64_t* mask) {
  // Disjoint fingerprints prove an empty intersection, so those pairs never
  // touch the memo.
  if (pubsub::fingerprints_disjoint(my_subs.fingerprint(),
                                    other.fingerprint())) {
    return 0;
  }
  // The memo stores the shared-topic count; a remembered zero proves the
  // pair disjoint and skips the mask build. Non-zero hits still build it —
  // the caller needs the positions — so the memo only ever removes work
  // whose result is known to be empty.
  const bool cacheable = cache_ != nullptr && cache_->enabled() &&
                         my_id != pubsub::kInvalidSetId &&
                         other_id != pubsub::kInvalidSetId;
  bool memoize = false;
  if (cacheable) {
    double cached = 0.0;
    if (cache_->lookup(my_id, other_id, cached)) {
      if (cached == 0.0) return 0;
    } else {
      memoize = true;
    }
  }
  std::size_t shared = 0;
  for (const ids::TopicIndex topic : other.topics()) {
    VITIS_DCHECK(topic < stamp_.size());
    if (stamp_[topic] != epoch_) continue;
    const std::uint32_t p = pos_[topic];
    mask[p / kWordBits] |= std::uint64_t{1} << (p % kWordBits);
    ++shared;
  }
  if (memoize) {
    cache_->insert(my_id, other_id, static_cast<double>(shared));
  }
  return shared;
}

void CoverageSelector::build_masks(
    const pubsub::SubscriptionSet& my_subs, pubsub::SetId my_id,
    std::span<const gossip::Descriptor> candidates,
    const overlay::RoutingTable* current) {
  const std::size_t n = candidates.size();
  masks_.assign(n * words_, 0);
  shared_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const gossip::Descriptor& d = candidates[i];
    if (current != nullptr && current->contains(d.node)) continue;
    shared_[i] = static_cast<std::uint32_t>(
        shared_mask(my_subs, my_id, subscriptions_->of(d.node), d.set_id,
                    masks_.data() + i * words_));
  }
}

std::size_t CoverageSelector::gain(const std::uint64_t* mask) const {
  std::size_t gain = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    gain += static_cast<std::size_t>(std::popcount(mask[w] & under_[w]));
  }
  return gain;
}

void CoverageSelector::cover(const std::uint64_t* mask,
                             std::span<std::uint8_t> coverage) {
  for (std::size_t w = 0; w < words_; ++w) {
    for (std::uint64_t bits = mask[w]; bits != 0; bits &= bits - 1) {
      const std::size_t p =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      if (coverage[p] < 255) ++coverage[p];
      if (coverage[p] >= target_) {
        under_[w] &= ~(std::uint64_t{1} << (p % kWordBits));
      }
    }
  }
}

void CoverageSelector::mark_under_covered(
    std::span<const std::uint8_t> coverage) {
  under_.assign(words_, 0);
  for (std::size_t p = 0; p < coverage.size(); ++p) {
    if (coverage[p] < target_) {
      under_[p / kWordBits] |= std::uint64_t{1} << (p % kWordBits);
    }
  }
}

std::span<const overlay::RoutingEntry> CoverageSelector::select_bounded(
    const pubsub::SubscriptionSet& my_subs,
    std::span<const gossip::Descriptor> candidates, std::size_t capacity,
    pubsub::SetId my_set_id) {
  const std::size_t n = candidates.size();
  index_topics(my_subs);
  build_masks(my_subs, my_set_id, candidates, nullptr);
  coverage_.assign(my_subs.size(), 0);
  mark_under_covered(coverage_);
  selected_.clear();

  // Greedy k-coverage phase. Ties on gain go to the candidate sharing more
  // topics, then to the smaller node index. A selected candidate's shared
  // count is zeroed, which takes it out of both phases.
  while (selected_.size() < capacity) {
    std::size_t best = n;
    std::size_t best_gain = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (shared_[i] == 0) continue;
      const std::size_t g = gain(mask(i));
      const bool better =
          g > best_gain ||
          (g == best_gain && g > 0 && best < n &&
           (shared_[i] > shared_[best] ||
            (shared_[i] == shared_[best] &&
             candidates[i].node < candidates[best].node)));
      if (better) {
        best = i;
        best_gain = g;
      }
    }
    if (best == n || best_gain == 0) break;
    cover(mask(best), coverage_);
    shared_[best] = 0;
    selected_.push_back(coverage_link(candidates[best]));
  }

  // Interest-similarity fill: spend leftover slots on the candidates that
  // share the most topics, even when all topics are already covered (extra
  // redundancy improves per-topic connectivity).
  order_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (shared_[i] != 0) order_.push_back(static_cast<std::uint32_t>(i));
  }
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (shared_[a] != shared_[b]) return shared_[a] > shared_[b];
              return candidates[a].node < candidates[b].node;
            });
  for (const std::uint32_t i : order_) {
    if (selected_.size() >= capacity) break;
    selected_.push_back(coverage_link(candidates[i]));
  }
  return selected_;
}

std::span<const overlay::RoutingEntry> CoverageSelector::select_additional(
    const pubsub::SubscriptionSet& my_subs,
    std::span<const gossip::Descriptor> candidates,
    const overlay::RoutingTable& current,
    std::vector<std::uint8_t>& coverage, pubsub::SetId my_set_id) {
  VITIS_CHECK(coverage.size() == my_subs.size());
  index_topics(my_subs);
  build_masks(my_subs, my_set_id, candidates, &current);
  mark_under_covered(coverage);
  selected_.clear();
  // Pool order: a candidate is added when it covers any topic still under
  // the target after the candidates before it.
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (shared_[i] == 0 || gain(mask(i)) == 0) continue;
    cover(mask(i), coverage);
    selected_.push_back(coverage_link(candidates[i]));
  }
  return selected_;
}

void CoverageSelector::count_coverage(const pubsub::SubscriptionSet& my_subs,
                                      const overlay::RoutingTable& table,
                                      std::vector<std::uint8_t>& coverage) {
  index_topics(my_subs);
  coverage.assign(my_subs.size(), 0);
  for (const overlay::RoutingEntry& entry : table.entries()) {
    const pubsub::SubscriptionSet& other = subscriptions_->of(entry.node);
    if (pubsub::fingerprints_disjoint(my_subs.fingerprint(),
                                      other.fingerprint())) {
      continue;
    }
    for (const ids::TopicIndex topic : other.topics()) {
      if (stamp_[topic] != epoch_) continue;
      std::uint8_t& count = coverage[pos_[topic]];
      if (count < 255) ++count;
    }
  }
}

}  // namespace vitis::baselines::opt
