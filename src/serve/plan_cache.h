// Bounded LRU cache of prepared QueryPlans, keyed on a normalized
// filter-rectangle fingerprint. Bounded two ways: by entry count and —
// because plans vary enormously in size (a point lookup plans one range, a
// broad rectangle over a fragmented grid plans thousands) — by estimated
// bytes, optionally mirrored into a ResourceGovernor's plan-cache pool.
//
// The serving path's planning cost (region collection, grid cell
// enumeration, binary-search refinement, secondary-range merging) repeats
// on every arrival of ad-hoc traffic even when the traffic itself repeats —
// dashboards refresh the same rectangles, applications template the same
// statements with identical constants. The cache closes that gap: a plan is
// keyed by (index identity, normalized filter rectangle, aggregate list),
// so any later query answer-equivalent to a cached one replays the prepared
// ExecutePlan path without re-routing or re-planning. Normalization
// (NormalizedFilters in types.h) sorts predicates by dimension and
// intersects same-dimension conjuncts, so filter order and redundant
// conjuncts do not fragment the cache; the `type` label is excluded — it
// never affects answers.
//
// Plans are handed out as shared_ptr<const QueryPlan>: hits are a hash
// probe plus a refcount, never a task-vector copy, and an evicted plan
// stays alive for whoever is still executing it.
//
// Invalidation: plans record the producing index's StoreVersion(); a hit
// whose version no longer matches is dropped (releasing the plan's snapshot
// pin) and counted as a stale miss, so cached plans never scan a superseded
// snapshot. Static indexes are always version 0, where this check is free
// and never fires — for those, a cache still must not outlive its index or
// survive an in-place rebuild (QueryService owns one cache per index for
// exactly this reason). Versioned stores (src/ingest) bump the version on
// every publish; wiring IngestStore::AddPublishListener to InvalidateIndex
// additionally drops stale entries eagerly, bounding how long a dead
// version stays pinned by idle cache entries. Delta inserts do NOT
// invalidate — delta rows are a FinishPlan epilogue read at execution time,
// not part of the plan (and a chunk roll bumps the version anyway).
//
// Thread-safe; one mutex. Lookups are a short critical section and misses
// prepare *outside* the lock, so concurrent submitters never serialize
// behind each other's planning (two racing misses on the same key both
// prepare and the loser's insert becomes a refresh — wasted work, never a
// wrong answer).
#ifndef TSUNAMI_SERVE_PLAN_CACHE_H_
#define TSUNAMI_SERVE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "src/common/index.h"
#include "src/common/resource_governor.h"
#include "src/common/types.h"

namespace tsunami {

class PlanCache {
 public:
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Entries dropped because their store_version fell behind the index
    /// (each also counted as a miss when dropped on lookup).
    int64_t stale = 0;
    int64_t size = 0;   // Entries currently cached.
    int64_t bytes = 0;  // Estimated footprint of the cached entries.

    double HitRate() const {
      int64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) /
                             static_cast<double>(total)
                       : 0.0;
    }
  };

  /// `capacity` caps the number of cached plans; 0 disables caching
  /// entirely (every GetOrPrepare prepares fresh — the cold baseline the
  /// bench A/Bs against). `max_bytes` additionally caps the cache's
  /// estimated footprint (a giant plan — many tasks — counts for what it
  /// actually costs, not "one entry"); 0 = entries-only. `governor` (when
  /// set; must outlive the cache) mirrors the footprint into
  /// ResourcePool::kPlanCache so the process-wide resource picture
  /// includes cached plans.
  explicit PlanCache(int64_t capacity, int64_t max_bytes = 0,
                     ResourceGovernor* governor = nullptr)
      : capacity_(capacity), max_bytes_(max_bytes), governor_(governor) {}
  ~PlanCache() { Clear(); }

  /// Estimated heap footprint of one cached plan (the eviction currency).
  static int64_t EstimatePlanBytes(const QueryPlan& plan);

  /// The cached plan for a query answer-equivalent to `query` on `index`,
  /// or nullptr. Counts a hit or miss.
  std::shared_ptr<const QueryPlan> Lookup(const MultiDimIndex& index,
                                          const Query& query);

  /// Cache-through prepare: Lookup, and on a miss call index.Prepare
  /// (outside the lock) and insert the result.
  std::shared_ptr<const QueryPlan> GetOrPrepare(const MultiDimIndex& index,
                                                const Query& query);

  /// Inserts (or refreshes) the plan for `query`, evicting the least
  /// recently used entry when over capacity. No-op at capacity 0.
  void Insert(const MultiDimIndex& index, const Query& query,
              std::shared_ptr<const QueryPlan> plan);

  /// Drops every entry (stats persist). Call when the backing index is
  /// rebuilt in place.
  void Clear();

  /// Drops every entry for `index`, returning how many. The eager arm of
  /// version invalidation: a versioned store's publish listener calls this
  /// so idle cached plans release their superseded snapshot pins promptly
  /// instead of waiting to be looked up or evicted.
  int64_t InvalidateIndex(const MultiDimIndex& index);

  Stats stats() const;

 private:
  /// A query's cache identity, normalized once per call — *outside* mu_ —
  /// so the locked sections compare plain lists instead of re-running
  /// NormalizedFilters (which allocates) per candidate entry.
  struct Key {
    uint64_t fingerprint = 0;
    /// The query's aggregate list, with NormalizedFilters(query) as its
    /// filters; `type` is left unset (it never affects answers).
    Query normalized;

    static Key Of(const Query& query);
    bool Matches(const Key& other) const;
  };
  struct Entry {
    const MultiDimIndex* index = nullptr;
    Key key;  // For collision confirmation on fingerprint match.
    std::shared_ptr<const QueryPlan> plan;
    int64_t bytes = 0;  // Estimated footprint charged for this entry.
  };
  using LruList = std::list<Entry>;

  /// Finds the entry for (index, key) in the bucket map, confirming
  /// semantic equivalence allocation-free. Caller holds mu_.
  LruList::iterator FindLocked(const MultiDimIndex& index, const Key& key);

  /// Removes one entry from the list and its bucket. Caller holds mu_.
  void EraseLocked(LruList::iterator entry);

  /// Adjusts bytes_ by `delta` and mirrors it into the governor's
  /// plan-cache pool. Caller holds mu_.
  void AccountLocked(int64_t delta);

  std::shared_ptr<const QueryPlan> LookupKeyed(const MultiDimIndex& index,
                                               const Key& key);
  void InsertKeyed(const MultiDimIndex& index, Key key,
                   std::shared_ptr<const QueryPlan> plan);

  int64_t capacity_;
  int64_t max_bytes_;
  ResourceGovernor* governor_;
  mutable std::mutex mu_;
  LruList lru_;  // Front = most recently used.
  /// fingerprint -> entries (collisions chain); iterators into lru_ stay
  /// valid across splices.
  std::unordered_multimap<uint64_t, LruList::iterator> map_;
  int64_t bytes_ = 0;  // Sum of Entry::bytes (mu_).
  Stats stats_;
};

}  // namespace tsunami

#endif  // TSUNAMI_SERVE_PLAN_CACHE_H_
