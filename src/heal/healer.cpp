#include "heal/healer.h"

#include <algorithm>
#include <charconv>

#include "heal/baselines.h"
#include "heal/forgiving_tree.h"
#include "util/check.h"

namespace fg {

NodeId BaselineHealer::insert(std::span<const NodeId> neighbors) {
  NodeId id = gprime_.add_node();
  NodeId id2 = g_.add_node();
  FG_CHECK(id == id2);
  for (NodeId y : neighbors) {
    FG_CHECK_MSG(g_.is_alive(y), "insertion neighbor must be alive");
    gprime_.add_edge(id, y);
    g_.add_edge(id, y);
  }
  return id;
}

void BaselineHealer::remove(NodeId v) {
  FG_CHECK(g_.is_alive(v));
  // NeighborView is already sorted; copy only because remove_node
  // invalidates views.
  NeighborView view = g_.neighbors(v);
  std::vector<NodeId> neighbors(view.begin(), view.end());
  g_.remove_node(v);
  heal_after(v, neighbors);
}

std::unique_ptr<Healer> make_healer(const std::string& name, const Graph& g0) {
  if (name == "forgiving") return std::make_unique<ForgivingGraphHealer>(g0);
  if (name == "forgiving-tree") return std::make_unique<ForgivingTreeHealer>(g0);
  if (name == "none") return std::make_unique<NoHealer>(g0);
  if (name == "line") return std::make_unique<LineHealer>(g0);
  if (name == "star") return std::make_unique<StarHealer>(g0);
  if (name == "binary-tree") return std::make_unique<BinaryTreeHealer>(g0);
  if (name.rfind("kary:", 0) == 0) {
    // The whole suffix must parse: "kary:3x" is as unknown as "kary:x".
    const char* first = name.data() + 5;
    const char* last = name.data() + name.size();
    int k = 0;
    auto [end, ec] = std::from_chars(first, last, k);
    if (ec != std::errc() || end != last || k < 2) return nullptr;
    return std::make_unique<KAryHealer>(g0, k);
  }
  return nullptr;
}

}  // namespace fg
