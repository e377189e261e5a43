// Z-order index (§6.1 baseline 2): rows sorted by the Morton code of their
// per-dimension equi-depth bucket numbers, grouped into pages; pages keep
// min/max metadata per dimension for skipping.
#ifndef TSUNAMI_BASELINES_ZORDER_H_
#define TSUNAMI_BASELINES_ZORDER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cdf/cdf_model.h"
#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// Interleaves the low `bits_per_dim` bits of each coordinate into a single
/// Morton code; coordinate i contributes bit j to code bit j*dims + i.
/// Monotone in each coordinate, so the min/max codes of a query box are at
/// its corners.
uint64_t MortonEncode(const std::vector<uint32_t>& coords, int bits_per_dim);

/// Inverse of MortonEncode (used by tests).
std::vector<uint32_t> MortonDecode(uint64_t code, int dims, int bits_per_dim);

class ZOrderIndex : public RangePlanIndex {
 public:
  struct Options {
    int64_t page_size = 4096;  // Rows per page (tunable, §6.3).
    int bits_per_dim = 0;      // 0 = auto: min(16, 63 / dims).
  };

  explicit ZOrderIndex(const Dataset& data) : ZOrderIndex(data, Options()) {}
  ZOrderIndex(const Dataset& data, const Options& options);

  std::string Name() const override { return "ZOrder"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Page {
    int64_t begin = 0;
    int64_t end = 0;
    uint64_t z_min = 0;
    uint64_t z_max = 0;
    std::vector<Value> min;  // Per-dimension minima of rows in the page.
    std::vector<Value> max;
  };

  uint32_t BucketOf(int dim, Value v) const;

  int dims_ = 0;
  int bits_per_dim_ = 8;
  std::vector<std::unique_ptr<EquiDepthCdf>> bucket_models_;
  std::vector<Page> pages_;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_ZORDER_H_
