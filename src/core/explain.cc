// EXPLAIN-style introspection of optimized index structures: a readable
// dump of the Grid Tree's splits and each region's Augmented Grid choices.
// Kept out of the hot-path translation units; pure string formatting.
#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/grid_tree.h"
#include "src/core/tsunami.h"

namespace tsunami {

namespace {

std::string DimName(const std::vector<std::string>& names, int dim) {
  if (dim >= 0 && dim < static_cast<int>(names.size())) return names[dim];
  return "d" + std::to_string(dim);
}

void AppendFormatted(std::string* out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out->append(buffer);
}

std::string DescribeSkeleton(const Skeleton& skeleton,
                             const std::vector<std::string>& names) {
  std::string out = "[";
  for (int d = 0; d < skeleton.num_dims(); ++d) {
    if (d > 0) out += ", ";
    const DimSpec& spec = skeleton.dims[d];
    switch (spec.strategy) {
      case PartitionStrategy::kIndependent:
        out += DimName(names, d);
        break;
      case PartitionStrategy::kMapped:
        out += DimName(names, d) + "->" + DimName(names, spec.other);
        break;
      case PartitionStrategy::kConditional:
        out += DimName(names, d) + "|" + DimName(names, spec.other);
        break;
    }
  }
  return out + "]";
}

}  // namespace

std::string GridTree::Describe(
    const std::vector<std::string>& dim_names) const {
  std::string out;
  if (nodes_.empty()) {
    return "GridTree: (empty — single region covering the whole space)\n";
  }
  AppendFormatted(&out, "GridTree: %d nodes, depth %d, %d regions\n",
                  num_nodes(), depth(), num_regions());
  // Depth-first dump; children of a node are printed indented below it.
  struct Frame {
    int32_t node;
    int indent;
  };
  std::vector<Frame> stack = {{0, 1}};
  while (!stack.empty()) {
    Frame frame = stack.back();
    stack.pop_back();
    const Node& node = nodes_[frame.node];
    out.append(2 * frame.indent, ' ');
    if (node.split_dim < 0) {
      AppendFormatted(&out, "region %d\n", node.region);
      continue;
    }
    AppendFormatted(&out, "split on %s at {",
                    DimName(dim_names, node.split_dim).c_str());
    for (size_t i = 0; i < node.split_values.size(); ++i) {
      AppendFormatted(&out, i == 0 ? "%lld" : ", %lld",
                      static_cast<long long>(node.split_values[i]));
    }
    out += "}\n";
    // Push in reverse so children print in value order.
    for (auto it = node.children.rbegin(); it != node.children.rend(); ++it) {
      stack.push_back({*it, frame.indent + 1});
    }
  }
  return out;
}

std::string TsunamiIndex::Describe(
    const std::vector<std::string>& dim_names) const {
  std::string out;
  AppendFormatted(&out,
                  "%s: %lld rows, %d query types, %lld cells, %lld B index\n",
                  name_.c_str(), static_cast<long long>(store_.size()),
                  stats_.num_query_types,
                  static_cast<long long>(stats_.total_cells),
                  static_cast<long long>(IndexSizeBytes()));
  // Storage footprint: per-column encoded bytes vs the logical raw
  // (8 B/value) footprint, with the block codec-width mix.
  if (store_.size() > 0) {
    const int64_t raw_col_bytes =
        store_.size() * static_cast<int64_t>(sizeof(Value));
    AppendFormatted(
        &out, "storage: %lld B encoded of %lld B raw (%.2fx)\n",
        static_cast<long long>(store_.DataSizeBytes()),
        static_cast<long long>(raw_col_bytes * store_.dims()),
        static_cast<double>(raw_col_bytes * store_.dims()) /
            static_cast<double>(store_.DataSizeBytes()));
    for (int d = 0; d < store_.dims(); ++d) {
      const int64_t bytes = store_.encoded(d).SizeBytes();
      int64_t widths[4] = {0, 0, 0, 0};
      store_.encoded(d).WidthHistogram(widths);
      AppendFormatted(
          &out,
          "  column %s: %lld B (%.2fx; blocks w8:%lld w16:%lld w32:%lld "
          "raw:%lld)\n",
          DimName(dim_names, d).c_str(), static_cast<long long>(bytes),
          static_cast<double>(raw_col_bytes) / static_cast<double>(bytes),
          static_cast<long long>(widths[0]), static_cast<long long>(widths[1]),
          static_cast<long long>(widths[2]),
          static_cast<long long>(widths[3]));
    }
  }
  if (use_grid_tree_) out += tree_.Describe(dim_names);
  for (size_t r = 0; r < regions_.size(); ++r) {
    const Region& region = regions_[r];
    AppendFormatted(&out, "region %zu: rows [%lld, %lld)", r,
                    static_cast<long long>(region.begin),
                    static_cast<long long>(region.end));
    if (!region.has_grid) {
      out += " — unindexed (no queries intersect; scanned on demand)\n";
      continue;
    }
    AppendFormatted(&out, ", %lld queries at build\n",
                    static_cast<long long>(region.query_count));
    AppendFormatted(
        &out, "  skeleton %s\n",
        DescribeSkeleton(region.grid.skeleton(), dim_names).c_str());
    out += "  partitions:";
    const std::vector<int>& partitions = region.grid.partitions();
    for (int d = 0; d < static_cast<int>(partitions.size()); ++d) {
      if (region.grid.skeleton().dims[d].strategy ==
          PartitionStrategy::kMapped) {
        continue;  // Mapped dimensions are not in the grid.
      }
      AppendFormatted(&out, " %s=%d", DimName(dim_names, d).c_str(),
                      partitions[d]);
    }
    AppendFormatted(&out, "\n  sort dim %s, %lld cells, %lld outlier rows\n",
                    DimName(dim_names, region.grid.sort_dim()).c_str(),
                    static_cast<long long>(region.grid.num_cells()),
                    static_cast<long long>(region.grid.num_outliers()));
  }
  return out;
}

}  // namespace tsunami
