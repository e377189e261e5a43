// UB-tree baseline (Ramsak et al. [36], cited in §6.1/§7): rows sorted by
// Z-order and grouped into pages ("Z-regions"), with range queries driven
// by the Tropf-Herzog BIGMIN algorithm, which jumps directly to the next
// Z-address inside the query box and skips pages that provably contain
// none. This differs from the ZOrderIndex baseline, which skips pages via
// per-dimension min/max metadata instead of Z-address arithmetic.
#ifndef TSUNAMI_BASELINES_UB_TREE_H_
#define TSUNAMI_BASELINES_UB_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/cdf/cdf_model.h"
#include "src/common/index.h"
#include "src/common/types.h"
#include "src/storage/column_store.h"

namespace tsunami {

/// The smallest Z-address strictly greater than `z` whose per-dimension
/// coordinates all lie inside the box spanned by the corner addresses
/// `minz` and `maxz` (BIGMIN / "GetNextZ"). Bit p of a code belongs to
/// dimension p % dims (MortonEncode's layout). Returns false if no such
/// address exists.
bool ZBigMin(uint64_t z, uint64_t minz, uint64_t maxz, int dims,
             int bits_per_dim, uint64_t* out);

class UbTreeIndex : public RangePlanIndex {
 public:
  struct Options {
    int64_t page_size = 4096;  // Rows per Z-region (tunable, §6.3).
    int bits_per_dim = 0;      // 0 = auto: min(16, 63 / dims).
  };

  explicit UbTreeIndex(const Dataset& data) : UbTreeIndex(data, Options()) {}
  UbTreeIndex(const Dataset& data, const Options& options);

  std::string Name() const override { return "UBTree"; }
  int64_t IndexSizeBytes() const override;
  const ColumnStore& store() const override { return store_; }

  int64_t num_pages() const { return static_cast<int64_t>(pages_.size()); }

 private:
  void PlanTasks(const Query& query, std::vector<RangeTask>* tasks,
                 QueryResult* counters) const override;

  struct Page {
    int64_t begin = 0;
    int64_t end = 0;
    uint64_t z_min = 0;  // Z-region address interval (inclusive).
    uint64_t z_max = 0;
  };

  uint32_t BucketOf(int dim, Value v) const;

  int dims_ = 0;
  int bits_per_dim_ = 8;
  std::vector<std::unique_ptr<EquiDepthCdf>> bucket_models_;
  std::vector<Page> pages_;
  ColumnStore store_;
};

}  // namespace tsunami

#endif  // TSUNAMI_BASELINES_UB_TREE_H_
