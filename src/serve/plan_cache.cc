#include "src/serve/plan_cache.h"

#include <algorithm>
#include <utility>

namespace tsunami {

int64_t PlanCache::EstimatePlanBytes(const QueryPlan& plan) {
  // The dominant variable cost is the task vector — a broad rectangle over
  // a fragmented grid can plan thousands of ranges while a point lookup
  // plans one — plus the bound query's filter vector. The cache entry's
  // key (normalized rect + aggregate list) and list/map node overhead ride
  // in the sizeof(Entry) constant added at insert time.
  int64_t bytes = static_cast<int64_t>(sizeof(QueryPlan));
  bytes += static_cast<int64_t>(plan.tasks.capacity() * sizeof(RangeTask));
  bytes += static_cast<int64_t>(plan.query.filters.capacity() *
                                sizeof(Predicate));
  bytes += static_cast<int64_t>(plan.counters.extra.capacity() *
                                sizeof(int64_t));
  return bytes;
}

namespace {

/// Footprint of one Entry beyond the plan itself: its key's normalized
/// rectangle and the bucket-map node.
int64_t EntryOverheadBytes(const std::vector<Predicate>& rect) {
  return static_cast<int64_t>(rect.capacity() * sizeof(Predicate)) +
         64;  // List/map node bookkeeping, amortized.
}

}  // namespace

PlanCache::Key PlanCache::Key::Of(const Query& query) {
  Key key;
  key.normalized.filters = NormalizedFilters(query);
  key.normalized.SetAggregates(query.aggs());
  key.fingerprint =
      QueryFingerprint(key.normalized.filters, key.normalized.aggs());
  return key;
}

bool PlanCache::Key::Matches(const Key& other) const {
  return std::ranges::equal(normalized.aggs(), other.normalized.aggs()) &&
         NormalizedRectEqual(normalized.filters, other.normalized.filters);
}

PlanCache::LruList::iterator PlanCache::FindLocked(const MultiDimIndex& index,
                                                   const Key& key) {
  auto [first, last] = map_.equal_range(key.fingerprint);
  for (auto it = first; it != last; ++it) {
    LruList::iterator entry = it->second;
    if (entry->index == &index && entry->key.Matches(key)) {
      return entry;
    }
  }
  return lru_.end();
}

std::shared_ptr<const QueryPlan> PlanCache::LookupKeyed(
    const MultiDimIndex& index, const Key& key) {
  // Read the version outside the lock (it's an atomic on versioned stores,
  // a constant 0 elsewhere).
  const uint64_t version = index.StoreVersion();
  std::lock_guard<std::mutex> lock(mu_);
  LruList::iterator entry = FindLocked(index, key);
  if (entry == lru_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (entry->plan->store_version != version) {
    // The store published a new snapshot since this plan was prepared: the
    // plan's tasks (and its pin) address a superseded version. Drop the
    // entry — releasing the stale snapshot pin — and miss, so the caller
    // re-prepares against the current version.
    EraseLocked(entry);
    ++stats_.stale;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, entry);  // Touch: move to MRU position.
  return entry->plan;
}

std::shared_ptr<const QueryPlan> PlanCache::Lookup(const MultiDimIndex& index,
                                                   const Query& query) {
  return LookupKeyed(index, Key::Of(query));
}

std::shared_ptr<const QueryPlan> PlanCache::GetOrPrepare(
    const MultiDimIndex& index, const Query& query) {
  // Normalize and hash once, outside the lock; hits and the miss's insert
  // both reuse the key.
  Key key = Key::Of(query);
  if (std::shared_ptr<const QueryPlan> plan = LookupKeyed(index, key)) {
    return plan;
  }
  // Prepare outside the lock: planning is the expensive part and must not
  // serialize concurrent submitters. A racing miss on the same key wastes
  // one Prepare; Insert below deduplicates the cache itself.
  auto plan = std::make_shared<const QueryPlan>(index.Prepare(query));
  InsertKeyed(index, std::move(key), plan);
  return plan;
}

void PlanCache::InsertKeyed(const MultiDimIndex& index, Key key,
                            std::shared_ptr<const QueryPlan> plan) {
  if (capacity_ <= 0) return;
  const int64_t entry_bytes = static_cast<int64_t>(sizeof(Entry)) +
                              EstimatePlanBytes(*plan) +
                              EntryOverheadBytes(key.normalized.filters);
  std::lock_guard<std::mutex> lock(mu_);
  LruList::iterator existing = FindLocked(index, key);
  if (existing != lru_.end()) {
    // Racing preparer got here first: refresh (the plans are equivalent)
    // and touch. Re-account: the fresh plan's footprint can differ.
    AccountLocked(entry_bytes - existing->bytes);
    existing->bytes = entry_bytes;
    existing->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, existing);
  } else {
    const uint64_t fp = key.fingerprint;
    lru_.push_front(Entry{&index, std::move(key), std::move(plan),
                          entry_bytes});
    map_.emplace(fp, lru_.begin());
    AccountLocked(entry_bytes);
  }
  // Evict by entries AND bytes: a giant plan costs what it costs, not
  // "one slot". The newest entry itself is never evicted — a cache whose
  // budget fits nothing degenerates to caching exactly the MRU plan.
  while (lru_.size() > 1 &&
         (static_cast<int64_t>(lru_.size()) > capacity_ ||
          (max_bytes_ > 0 && bytes_ > max_bytes_))) {
    EraseLocked(std::prev(lru_.end()));
    ++stats_.evictions;
  }
}

void PlanCache::AccountLocked(int64_t delta) {
  bytes_ += delta;
  if (governor_ != nullptr) {
    if (delta >= 0) {
      governor_->Charge(ResourcePool::kPlanCache, delta);
    } else {
      governor_->Release(ResourcePool::kPlanCache, -delta);
    }
  }
}

void PlanCache::EraseLocked(LruList::iterator entry) {
  auto [first, last] = map_.equal_range(entry->key.fingerprint);
  for (auto it = first; it != last; ++it) {
    if (it->second == entry) {
      map_.erase(it);
      break;
    }
  }
  AccountLocked(-entry->bytes);
  lru_.erase(entry);
}

int64_t PlanCache::InvalidateIndex(const MultiDimIndex& index) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t dropped = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    LruList::iterator entry = it++;
    if (entry->index == &index) {
      EraseLocked(entry);
      ++dropped;
    }
  }
  stats_.stale += dropped;
  return dropped;
}

void PlanCache::Insert(const MultiDimIndex& index, const Query& query,
                       std::shared_ptr<const QueryPlan> plan) {
  InsertKeyed(index, Key::Of(query), std::move(plan));
}

void PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
  lru_.clear();
  AccountLocked(-bytes_);
}

PlanCache::Stats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.size = static_cast<int64_t>(lru_.size());
  out.bytes = bytes_;
  return out;
}

}  // namespace tsunami
