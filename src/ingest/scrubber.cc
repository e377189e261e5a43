#include "src/ingest/scrubber.h"

#include <chrono>

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "src/storage/column_store.h"

namespace tsunami {
namespace ingest {

Scrubber::Scrubber(IngestStore* store, const ScrubberOptions& options)
    : store_(store), options_(options) {
  if (options_.poll_ms <= 0) options_.poll_ms = 1;
  if (options_.blocks_per_slice <= 0) options_.blocks_per_slice = 1;
}

Scrubber::~Scrubber() { Stop(); }

void Scrubber::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (thread_.joinable()) return;
  stop_ = false;
  thread_ = std::thread([this] { Loop(); });
}

void Scrubber::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!thread_.joinable()) return;
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

int64_t Scrubber::ScrubSlice() {
  const auto snap = store_->CurrentSnapshot();
  const ColumnStore& cs = snap->index().store();
  const int dims = cs.dims();
  if (dims == 0) return 0;
  const std::shared_ptr<const TsunamiIndex>& index = snap->index_ptr();
  if (cursor_index_.owner_before(index) || index.owner_before(cursor_index_)) {
    // A fold, reorg or repair published a new sorted index; the old blocks
    // no longer exist. Restart the sweep against the new index.
    cursor_index_ = index;
    cursor_dim_ = 0;
    cursor_block_ = 0;
  }
  int64_t scrubbed = 0;
  int64_t found = 0;
  while (scrubbed < options_.blocks_per_slice) {
    const EncodedColumn& col = cs.encoded(cursor_dim_);
    if (cursor_block_ >= col.num_blocks()) {
      cursor_block_ = 0;
      if (++cursor_dim_ >= dims) {
        cursor_dim_ = 0;
        sweeps_.fetch_add(1, std::memory_order_relaxed);
        break;  // Sweep complete; next slice starts the store over.
      }
      continue;
    }
    if (!col.IsQuarantined(cursor_block_) && !col.ScrubBlock(cursor_block_)) {
      ++found;
    }
    ++cursor_block_;
    ++scrubbed;
  }
  slices_.fetch_add(1, std::memory_order_relaxed);
  blocks_.fetch_add(scrubbed, std::memory_order_relaxed);
  if (found > 0) {
    corruptions_.fetch_add(found, std::memory_order_relaxed);
    if (options_.repair) {
      repaired_.fetch_add(store_->RepairQuarantined(),
                          std::memory_order_relaxed);
    }
  }
  return scrubbed;
}

void Scrubber::Loop() {
#if defined(__linux__)
  // Same discipline as the Compactor: scrubbing soaks up idle cycles, it
  // must never contend with query workers. Failure is ignored — priority
  // is an optimization, never a correctness requirement.
  if (options_.nice_value != 0) {
    setpriority(PRIO_PROCESS, static_cast<id_t>(syscall(SYS_gettid)),
                options_.nice_value);
  }
#endif
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::milliseconds(options_.poll_ms),
                   [this] { return stop_; });
      if (stop_) return;
    }
    ScrubSlice();
  }
}

Scrubber::Stats Scrubber::stats() const {
  Stats s;
  s.slices = slices_.load(std::memory_order_relaxed);
  s.sweeps = sweeps_.load(std::memory_order_relaxed);
  s.blocks_scrubbed = blocks_.load(std::memory_order_relaxed);
  s.corruptions_found = corruptions_.load(std::memory_order_relaxed);
  s.blocks_repaired = repaired_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace ingest
}  // namespace tsunami
