// Per-publication node marks for one dissemination walk.
//
// A walk needs three facts about a node y: has the event already reached y
// (visit), does y subscribe to the topic (interest), and must y receive it
// for the hit ratio (expected: an alive, post-grace subscriber other than
// the publisher). All three are epoch stamps over two node-indexed arrays,
// so each test is a single load and starting a publication costs
// O(|subscribers(topic)|), not O(nodes).
//
// Stamps advance by 2 per publication. With `base` the current stamp, the
// interest array holds `base` for an interested node, `base + 1` for one
// that is interested and expected, and anything below `base` otherwise, so
// "interested" is `interest >= base` and "expected" is `interest ==
// base + 1`. The visit array holds `base` once the event reached the node.
// When the next stamp would overflow, both arrays are zeroed once and
// stamps restart. Queries describe the publication opened by the last
// begin().
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "ids/id.hpp"

namespace vitis::pubsub {

/// One frontier entry of a dissemination walk: `node` holds the event,
/// received from `from` after `hop` hops.
struct WalkItem {
  ids::NodeIndex node;
  ids::NodeIndex from;
  std::uint32_t hop;
};

class PublicationStamps {
 public:
  /// `last_stamp` seeds the stamp counter (tests start it near the
  /// wrap-around); the arrays start zeroed.
  explicit PublicationStamps(std::size_t nodes = 0,
                             std::uint32_t last_stamp = 0)
      : visit_(nodes, 0), interest_(nodes, 0), base_(last_stamp & ~1U) {}

  /// Open a publication: mark every node of `subscribers` (the topic's
  /// full reverse index, dead and joining nodes included) as interested,
  /// those for which `is_expected(s)` holds (and that are not `publisher`)
  /// also as expected, and `publisher` as visited. Returns the expected
  /// count.
  template <typename ExpectedFn>
  std::size_t begin(std::span<const ids::NodeIndex> subscribers,
                    ids::NodeIndex publisher, ExpectedFn&& is_expected) {
    if (base_ > std::numeric_limits<std::uint32_t>::max() - 3) {
      std::fill(visit_.begin(), visit_.end(), 0U);
      std::fill(interest_.begin(), interest_.end(), 0U);
      base_ = 0;
    }
    base_ += 2;
    std::size_t expected = 0;
    for (const ids::NodeIndex s : subscribers) {
      const bool counted = s != publisher && is_expected(s);
      interest_[s] = base_ + (counted ? 1U : 0U);
      expected += counted ? 1U : 0U;
    }
    visit_[publisher] = base_;
    return expected;
  }

  [[nodiscard]] bool interested(ids::NodeIndex node) const {
    return interest_[node] >= base_;
  }
  [[nodiscard]] bool expected(ids::NodeIndex node) const {
    return interest_[node] == base_ + 1;
  }
  /// Mark `node` visited; true when this is its first arrival.
  bool visit(ids::NodeIndex node) {
    if (visit_[node] == base_) return false;
    visit_[node] = base_;
    return true;
  }

  /// The current publication's stamp (even; 0 before the first begin()
  /// unless seeded); lets tests see the wrap-around reset.
  [[nodiscard]] std::uint32_t stamp() const { return base_; }

  /// Logical footprint of the two arrays (memory_footprint() contract).
  [[nodiscard]] std::size_t memory_bytes() const {
    return (visit_.size() + interest_.size()) * sizeof(std::uint32_t);
  }

 private:
  std::vector<std::uint32_t> visit_;
  std::vector<std::uint32_t> interest_;
  std::uint32_t base_ = 0;
};

}  // namespace vitis::pubsub
