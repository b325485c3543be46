// Deterministic union-find: the representative of a set is always its
// smallest index, so the partition — and any numbering read off it — is
// independent of the order the unions arrive in. The planner's region
// partition and the stabilizer's component numbering both rest on that.
#pragma once

#include <numeric>
#include <utility>
#include <vector>

namespace fg::util {

struct Dsu {
  std::vector<int> parent;

  explicit Dsu(int n) : parent(static_cast<size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }

  /// The representative of x's set, halving the path on the way.
  int find(int x) {
    while (parent[static_cast<size_t>(x)] != x) {
      parent[static_cast<size_t>(x)] = parent[static_cast<size_t>(parent[static_cast<size_t>(x)])];
      x = parent[static_cast<size_t>(x)];
    }
    return x;
  }

  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (a > b) std::swap(a, b);
    parent[static_cast<size_t>(b)] = a;
  }
};

}  // namespace fg::util
