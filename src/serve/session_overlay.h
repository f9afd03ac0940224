// Per-session rated-item deltas applied at request time.
//
// A session accumulates the items a user consumed since the serving
// snapshot was trained (clicked, purchased, just-recommended...) without
// touching the immutable snapshot: at request time the overlay's item
// set is handed to RecommendationService::TopN as extra exclusions, so
// freshly consumed items drop out of the candidate set with zero
// retraining: the selection kernels mask them beside the user's rated
// items, and the snapshot's scores are never copied or changed.
//
// SessionOverlay is single-session, unsynchronized state (one protocol
// connection, one test). SessionRegistry is the thread-safe keyed map
// `ganc_serve` uses when many concurrent connections share sessions.

#ifndef GANC_SERVE_SESSION_OVERLAY_H_
#define GANC_SERVE_SESSION_OVERLAY_H_

#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "data/dataset.h"

namespace ganc {

/// The consumed-item deltas of one session: per user, a sorted unique
/// item-id set that grows monotonically as the session progresses.
class SessionOverlay {
 public:
  /// Records that `u` consumed `items` (duplicates and already-known
  /// ids are absorbed).
  void MarkConsumed(UserId u, std::span<const ItemId> items);

  /// The items `u` has consumed this session, ascending, deduplicated.
  /// Empty span for users with no deltas. Borrowed: valid until the next
  /// MarkConsumed for the same user.
  std::span<const ItemId> ConsumedOf(UserId u) const;

  /// Number of users with at least one consumed item.
  size_t num_users() const { return consumed_.size(); }

  /// Total consumed items across users.
  size_t total_consumed() const { return total_; }

 private:
  std::unordered_map<UserId, std::vector<ItemId>> consumed_;
  size_t total_ = 0;
};

/// Thread-safe session-id -> overlay map for the request frontends.
/// Overlays are created on first touch and live for the registry's
/// lifetime (sessions in this protocol have no explicit close).
class SessionRegistry {
 public:
  /// Records consumed items under `session`.
  void MarkConsumed(const std::string& session, UserId u,
                    std::span<const ItemId> items);

  /// Overwrites `*out` with the union of the session's consumed items
  /// for `u` and `extra`, sorted ascending and deduplicated — the
  /// exclusion list a TopN request hands to the service. Copies under
  /// the registry lock so concurrent MarkConsumed calls from other
  /// connections cannot invalidate the span mid-request.
  void CollectExclusions(const std::string& session, UserId u,
                         std::span<const ItemId> extra,
                         std::vector<ItemId>* out) const;

  size_t num_sessions() const;

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, SessionOverlay> sessions_;
};

}  // namespace ganc

#endif  // GANC_SERVE_SESSION_OVERLAY_H_
