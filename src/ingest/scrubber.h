// Scrubber: background integrity sweeps over the serving store.
//
// EnsureReadable verifies a block's XxHash64 checksum exactly once — on its
// first scan touch. A bit that rots *after* that touch (or in a block no
// query ever reads) stays invisible until it silently corrupts a result.
// The Scrubber closes that gap: a low-priority thread (same
// `background_nice` discipline as the Compactor) walks the current
// snapshot's sorted index block by block on idle cycles, recomputing every
// checksum with EncodedColumn::ScrubBlock. A mismatch quarantines the
// block — scans skip it and flag results degraded, exactly as if a query
// had tripped over it — and the Scrubber immediately feeds the hit into
// the existing quarantine-and-repair path (IngestStore::RepairQuarantined,
// which publishes a healed copy rebuilt from the fold backup).
//
// Sweeps are pace-limited (blocks_per_slice per wakeup) so scrubbing never
// competes with serving for memory bandwidth. A publish that replaces the
// sorted index (fold, reorg, repair) restarts the sweep against the new
// index (the old blocks are gone); a chunk roll keeps the index, and the
// sweep carries on.
//
// Fault site (src/common/fault_injection.h): `scrub.corrupt_block` — the
// scrubber's recomputed hash mismatches for the matching block index,
// driving the quarantine + repair path without corrupting memory.
#ifndef TSUNAMI_INGEST_SCRUBBER_H_
#define TSUNAMI_INGEST_SCRUBBER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>

#include "src/ingest/ingest_store.h"

namespace tsunami {
namespace ingest {

struct ScrubberOptions {
  /// Sleep between pace-limited slices.
  int poll_ms = 100;
  /// Blocks verified per wakeup (across columns). The pace limit: at the
  /// defaults a 1M-row, 8-column store (~8k blocks) is fully swept in
  /// ~3 s of idle time while each slice costs well under a millisecond.
  int64_t blocks_per_slice = 256;
  /// Nice value for the scrub thread (Linux; 0 = leave alone). Rides the
  /// same maintenance discipline as IngestOptions::background_nice.
  int nice_value = 10;
  /// Publish a healed copy (IngestStore::RepairQuarantined) as soon as a
  /// sweep finds corruption. Off: quarantine only (tests inspect state).
  bool repair = true;
};

class Scrubber {
 public:
  explicit Scrubber(IngestStore* store, const ScrubberOptions& options = {});
  ~Scrubber();
  Scrubber(const Scrubber&) = delete;
  Scrubber& operator=(const Scrubber&) = delete;

  void Start();
  void Stop();  // Idempotent; joins the thread.

  /// One pace-limited slice, runnable synchronously without the thread
  /// (tests, and the examples' soak driver). Returns blocks scrubbed.
  int64_t ScrubSlice();

  struct Stats {
    int64_t slices = 0;
    int64_t sweeps = 0;             // Completed full passes over a version.
    int64_t blocks_scrubbed = 0;
    int64_t corruptions_found = 0;  // Blocks quarantined by the scrubber.
    int64_t blocks_repaired = 0;    // Healed via RepairQuarantined.
  };
  Stats stats() const;

 private:
  void Loop();

  IngestStore* store_;
  ScrubberOptions options_;

  // Sweep cursor over the blocks of `cursor_index_`, the sorted index the
  // sweep runs against. Weak, so it never keeps a superseded index alive;
  // compared by owner, so a new index at a reused address still restarts
  // the sweep. Touched only by the scrub thread / ScrubSlice caller.
  std::weak_ptr<const TsunamiIndex> cursor_index_;
  int cursor_dim_ = 0;
  int64_t cursor_block_ = 0;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;

  std::atomic<int64_t> slices_{0};
  std::atomic<int64_t> sweeps_{0};
  std::atomic<int64_t> blocks_{0};
  std::atomic<int64_t> corruptions_{0};
  std::atomic<int64_t> repaired_{0};
};

}  // namespace ingest
}  // namespace tsunami

#endif  // TSUNAMI_INGEST_SCRUBBER_H_
