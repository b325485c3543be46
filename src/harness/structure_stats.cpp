#include "harness/structure_stats.h"

#include <algorithm>

#include "util/check.h"

namespace fg {

StructureStats structure_stats(const ForgivingGraph& fg, int histogram_buckets) {
  FG_CHECK(histogram_buckets >= 1);
  StructureStats out;
  out.helper_histogram.assign(static_cast<size_t>(histogram_buckets), 0);

  auto alive = fg.healed().alive_nodes();
  int64_t helper_total = 0;
  for (NodeId v : alive) {
    int helpers = fg.helper_count(v);
    helper_total += helpers;
    out.max_helpers_per_processor = std::max(out.max_helpers_per_processor, helpers);
    size_t bucket =
        std::min<size_t>(static_cast<size_t>(helpers), out.helper_histogram.size() - 1);
    ++out.helper_histogram[bucket];
  }
  out.total_helpers = helper_total;
  if (!alive.empty())
    out.avg_helpers_per_processor =
        static_cast<double>(helper_total) / static_cast<double>(alive.size());

  const VirtualForest& forest = fg.forest();
  for (VNodeId h = 0; h < forest.arena_size(); ++h) {
    if (!forest.exists(h)) continue;
    const auto& n = forest.node(h);
    if (n.is_leaf) ++out.total_leaves;
    if (n.parent == kNoVNode) {
      ++out.rt_count;
      out.largest_rt_leaves = std::max<int64_t>(out.largest_rt_leaves, n.leaf_count);
      out.max_rt_depth = std::max<int>(out.max_rt_depth, n.height);
    }
  }
  return out;
}

}  // namespace fg
