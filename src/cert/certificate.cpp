#include "cert/certificate.h"

#include <algorithm>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "graph/algorithms.h"
#include "util/radix_sort.h"

namespace fg::cert {

int ceil_log2(int64_t l) {
  int bits = 0;
  while ((int64_t{1} << bits) < l) ++bits;
  return bits;
}

// ---------------------------------------------------------------------------
// Serialization. One claim per line; every count is explicit so a truncated
// certificate is a parse error, never a silently weaker statement.

void WaveCertificate::save(std::ostream& os, bool include_cost) const {
  os << kFormatVersionLine << '\n';
  os << "wave " << wave << '\n';
  os << "net " << net_nodes << ' ' << alive_after << '\n';
  os << "degree-constant " << degree_constant << '\n';
  os << "stretch-bound " << stretch_bound << '\n';
  os << "victims " << victims.size();
  for (NodeId v : victims) os << ' ' << v;
  os << '\n';
  os << "assign";
  for (int r : assign) os << ' ' << r;
  os << '\n';
  os << "regions " << regions.size() << '\n';
  for (const RegionCert& rc : regions) {
    os << "region " << rc.id << '\n';
    os << "rvictims " << rc.victims.size();
    for (NodeId v : rc.victims) os << ' ' << v;
    os << '\n';
    os << "anchors " << rc.anchors.size() << '\n';
    for (const auto& [owner, dead] : rc.anchors)
      os << "a " << owner << ' ' << dead << '\n';
    os << "rt " << rc.nodes.size() << '\n';
    for (size_t i = 0; i < rc.nodes.size(); ++i) {
      const RtNode& n = rc.nodes[i];
      os << "v " << i << ' ' << (n.is_leaf ? "leaf" : "help") << ' ' << n.owner
         << ' ' << n.other << ' ' << n.parent << ' ' << n.left << ' ' << n.right
         << '\n';
    }
    os << "iedges " << rc.image_edges.size() << '\n';
    for (const auto& [u, v] : rc.image_edges) os << "e " << u << ' ' << v << '\n';
    os << "endregion\n";
  }
  os << "degrees " << degrees.size() << '\n';
  for (const DegreeClaim& d : degrees)
    os << "d " << d.node << ' ' << d.gprime << ' ' << d.g_before << ' '
       << d.g_after << '\n';
  os << "stretch " << stretch.size() << '\n';
  for (const StretchWitness& s : stretch) {
    os << "s " << s.x << ' ' << s.y << ' ' << s.dist_gprime << ' '
       << (s.path.empty() ? 0 : s.path.size() - 1);
    for (NodeId n : s.path) os << ' ' << n;
    os << '\n';
  }
  os << "facts " << facts.size() << '\n';
  for (const EdgeFact& f : facts) {
    os << "f " << f.u << ' ' << f.v << ' ';
    switch (f.kind) {
      case EdgeFact::Kind::kGPrime: os << "gp"; break;
      case EdgeFact::Kind::kRtWave: os << "rt " << f.region; break;
      case EdgeFact::Kind::kRtPrior: os << "rtp"; break;
    }
    os << '\n';
  }
  if (include_cost && cost.present)
    os << "cost " << cost.messages << ' ' << cost.words << ' ' << cost.rounds
       << ' ' << cost.deleted_degree << '\n';
  os << "end\n";
}

std::string WaveCertificate::structural_text() const {
  std::ostringstream os;
  save(os, /*include_cost=*/false);
  return os.str();
}

// ---------------------------------------------------------------------------
// Parsing. Line-oriented and defensive: fgcheck consumes untrusted input, so
// every malformation is a diagnostic, never an abort. Blank lines between
// certificates are tolerated; everything else is exact.

namespace {

class LineReader {
 public:
  explicit LineReader(std::istream& is) : is_(is) {}

  /// Next non-empty line, or false at end of stream.
  bool next(std::string* out) {
    while (std::getline(is_, *out)) {
      ++lineno_;
      if (!out->empty()) return true;
    }
    return false;
  }

  int lineno() const { return lineno_; }

 private:
  std::istream& is_;
  int lineno_ = 0;
};

/// Tokenized view of one line with typed, checked extraction.
class Fields {
 public:
  explicit Fields(const std::string& line) : ss_(line) {}

  bool word(std::string* out) { return static_cast<bool>(ss_ >> *out); }

  template <class T>
  bool num(T* out) {
    return static_cast<bool>(ss_ >> *out);
  }

  bool done() {
    std::string rest;
    return !(ss_ >> rest);
  }

 private:
  std::istringstream ss_;
};

struct Parser {
  LineReader reader;
  long wave = -1;  // for diagnostics once the wave line is read
  CheckResult error;

  explicit Parser(std::istream& is) : reader(is) {}

  CheckResult fail(const std::string& rule, const std::string& detail) {
    std::ostringstream os;
    if (wave >= 0)
      os << "wave " << wave << ": ";
    os << rule << ": line " << reader.lineno() << ": " << detail;
    return CheckResult{false, os.str()};
  }
};

bool expect_key(Fields& f, const char* key) {
  std::string w;
  return f.word(&w) && w == key;
}

}  // namespace

CheckResult parse(std::istream& is, WaveCertificate* out, bool* eof) {
  *out = WaveCertificate{};
  *eof = false;
  Parser p(is);
  std::string line;

  if (!p.reader.next(&line)) {
    *eof = true;
    return CheckResult{};
  }
  if (line != kFormatVersionLine)
    return p.fail("version", "expected \"" + std::string(kFormatVersionLine) +
                                 "\", got \"" + line + "\"");

  auto read_kv = [&](const char* key, auto*... vals) -> bool {
    if (!p.reader.next(&line)) return false;
    Fields f(line);
    if (!expect_key(f, key)) return false;
    return (f.num(vals) && ...) && f.done();
  };

  if (!read_kv("wave", &out->wave) || out->wave < 0)
    return p.fail("format", "malformed wave line");
  p.wave = out->wave;
  if (!read_kv("net", &out->net_nodes, &out->alive_after) || out->net_nodes < 1 ||
      out->alive_after < 0)
    return p.fail("format", "malformed net line");
  if (!read_kv("degree-constant", &out->degree_constant))
    return p.fail("format", "malformed degree-constant line");
  if (!read_kv("stretch-bound", &out->stretch_bound))
    return p.fail("format", "malformed stretch-bound line");

  // victims <k> <ids...>
  {
    if (!p.reader.next(&line)) return p.fail("format", "missing victims line");
    Fields f(line);
    size_t k = 0;
    if (!expect_key(f, "victims") || !f.num(&k) || k > size_t{1} << 24)
      return p.fail("format", "malformed victims line");
    out->victims.resize(k);
    for (size_t i = 0; i < k; ++i)
      if (!f.num(&out->victims[i]))
        return p.fail("format", "victims line shorter than its count");
    if (!f.done()) return p.fail("format", "victims line longer than its count");
  }
  // assign — one region id per victim.
  {
    if (!p.reader.next(&line)) return p.fail("format", "missing assign line");
    Fields f(line);
    if (!expect_key(f, "assign")) return p.fail("format", "malformed assign line");
    out->assign.resize(out->victims.size());
    for (size_t i = 0; i < out->assign.size(); ++i)
      if (!f.num(&out->assign[i]))
        return p.fail("partition", "assign line shorter than the victim count");
    if (!f.done())
      return p.fail("partition", "assign line longer than the victim count");
  }

  size_t region_count = 0;
  if (!read_kv("regions", &region_count) || region_count > size_t{1} << 24)
    return p.fail("format", "malformed regions line");
  out->regions.resize(region_count);
  for (size_t r = 0; r < region_count; ++r) {
    RegionCert& rc = out->regions[r];
    if (!read_kv("region", &rc.id))
      return p.fail("format", "malformed region header");
    {
      if (!p.reader.next(&line)) return p.fail("format", "missing rvictims line");
      Fields f(line);
      size_t k = 0;
      if (!expect_key(f, "rvictims") || !f.num(&k) || k > size_t{1} << 24)
        return p.fail("format", "malformed rvictims line");
      rc.victims.resize(k);
      for (size_t i = 0; i < k; ++i)
        if (!f.num(&rc.victims[i]))
          return p.fail("format", "rvictims line shorter than its count");
      if (!f.done())
        return p.fail("format", "rvictims line longer than its count");
    }
    size_t anchor_count = 0;
    if (!read_kv("anchors", &anchor_count) || anchor_count > size_t{1} << 24)
      return p.fail("format", "malformed anchors line");
    rc.anchors.resize(anchor_count);
    for (auto& [owner, dead] : rc.anchors) {
      if (!p.reader.next(&line)) return p.fail("format", "missing anchor line");
      Fields f(line);
      if (!expect_key(f, "a") || !f.num(&owner) || !f.num(&dead) || !f.done())
        return p.fail("anchors", "malformed anchor line");
    }
    size_t node_count = 0;
    if (!read_kv("rt", &node_count) || node_count > size_t{1} << 26)
      return p.fail("format", "malformed rt line");
    rc.nodes.resize(node_count);
    for (size_t i = 0; i < node_count; ++i) {
      if (!p.reader.next(&line)) return p.fail("format", "missing vnode line");
      Fields f(line);
      size_t idx = 0;
      std::string kind;
      RtNode& n = rc.nodes[i];
      if (!expect_key(f, "v") || !f.num(&idx) || !f.word(&kind) ||
          !f.num(&n.owner) || !f.num(&n.other) || !f.num(&n.parent) ||
          !f.num(&n.left) || !f.num(&n.right) || !f.done())
        return p.fail("rt-structure", "malformed vnode line");
      if (idx != i)
        return p.fail("rt-structure", "vnode index out of order in region " +
                                          std::to_string(rc.id));
      if (kind == "leaf")
        n.is_leaf = true;
      else if (kind == "help")
        n.is_leaf = false;
      else
        return p.fail("rt-structure", "unknown vnode kind \"" + kind + "\"");
    }
    size_t edge_count = 0;
    if (!read_kv("iedges", &edge_count) || edge_count > size_t{1} << 26)
      return p.fail("format", "malformed iedges line");
    rc.image_edges.resize(edge_count);
    for (auto& [u, v] : rc.image_edges) {
      if (!p.reader.next(&line)) return p.fail("format", "missing iedge line");
      Fields f(line);
      if (!expect_key(f, "e") || !f.num(&u) || !f.num(&v) || !f.done())
        return p.fail("image-edges", "malformed iedge line");
    }
    if (!p.reader.next(&line) || line != "endregion")
      return p.fail("format", "missing endregion");
  }

  size_t degree_count = 0;
  if (!read_kv("degrees", &degree_count) || degree_count > size_t{1} << 26)
    return p.fail("format", "malformed degrees line");
  out->degrees.resize(degree_count);
  for (DegreeClaim& d : out->degrees) {
    if (!p.reader.next(&line)) return p.fail("format", "missing degree line");
    Fields f(line);
    if (!expect_key(f, "d") || !f.num(&d.node) || !f.num(&d.gprime) ||
        !f.num(&d.g_before) || !f.num(&d.g_after) || !f.done())
      return p.fail("degree", "malformed degree line");
  }

  size_t stretch_count = 0;
  if (!read_kv("stretch", &stretch_count) || stretch_count > size_t{1} << 20)
    return p.fail("format", "malformed stretch line");
  out->stretch.resize(stretch_count);
  for (StretchWitness& s : out->stretch) {
    if (!p.reader.next(&line)) return p.fail("format", "missing stretch line");
    Fields f(line);
    size_t len = 0;
    if (!expect_key(f, "s") || !f.num(&s.x) || !f.num(&s.y) ||
        !f.num(&s.dist_gprime) || !f.num(&len) || len > size_t{1} << 24)
      return p.fail("stretch", "malformed stretch witness line");
    s.path.resize(len + 1);
    for (NodeId& n : s.path)
      if (!f.num(&n))
        return p.fail("stretch", "witness path shorter than its length claim");
    if (!f.done())
      return p.fail("stretch", "witness path longer than its length claim");
  }

  size_t fact_count = 0;
  if (!read_kv("facts", &fact_count) || fact_count > size_t{1} << 24)
    return p.fail("format", "malformed facts line");
  out->facts.resize(fact_count);
  for (EdgeFact& fact : out->facts) {
    if (!p.reader.next(&line)) return p.fail("format", "missing fact line");
    Fields f(line);
    std::string kind;
    if (!expect_key(f, "f") || !f.num(&fact.u) || !f.num(&fact.v) ||
        !f.word(&kind))
      return p.fail("stretch", "malformed edge fact line");
    if (kind == "gp") {
      fact.kind = EdgeFact::Kind::kGPrime;
    } else if (kind == "rtp") {
      fact.kind = EdgeFact::Kind::kRtPrior;
    } else if (kind == "rt") {
      fact.kind = EdgeFact::Kind::kRtWave;
      if (!f.num(&fact.region))
        return p.fail("stretch", "rt edge fact missing its region");
    } else {
      return p.fail("stretch", "unknown edge fact kind \"" + kind + "\"");
    }
    if (!f.done()) return p.fail("stretch", "malformed edge fact line");
  }

  if (!p.reader.next(&line)) return p.fail("format", "missing end line");
  if (line.rfind("cost ", 0) == 0) {
    Fields f(line);
    out->cost.present = true;
    if (!expect_key(f, "cost") || !f.num(&out->cost.messages) ||
        !f.num(&out->cost.words) || !f.num(&out->cost.rounds) ||
        !f.num(&out->cost.deleted_degree) || !f.done())
      return p.fail("cost", "malformed cost line");
    if (!p.reader.next(&line)) return p.fail("format", "missing end line");
  }
  if (line != "end") return p.fail("format", "expected end line");
  return CheckResult{};
}

// ---------------------------------------------------------------------------
// Checking. Every rule recomputes its claim from the certificate's own data;
// nothing the emitter wrote is trusted beyond being the statement to verify.

namespace {

// Every list the size of an RT sorts through util::radix_sort, as
// order-preserving keys: util::ordered_key for an id, util::pair_key for an
// id pair, so the sorted order is the signed (lexicographic) id order and
// every diagnostic that names a smallest or largest element names the same
// one. The ids are untrusted: negative ones sort below zero, and no buffer
// is sized by an id.

/// The ordered keys of `ids`, sorted.
std::vector<uint32_t> sorted_keys(const std::vector<NodeId>& ids) {
  std::vector<uint32_t> keys, scratch;
  keys.reserve(ids.size());
  for (NodeId v : ids) keys.push_back(util::ordered_key(v));
  util::radix_sort(&keys, &scratch);
  return keys;
}

template <class Key>
bool contains(const std::vector<Key>& sorted, Key key) {
  return std::binary_search(sorted.begin(), sorted.end(), key);
}

/// Per position of `keys`: 1 when an earlier position holds the same key.
/// `*sorted` receives the keys sorted, which shows the keys listed more
/// than once; only those are then followed in list order, so a
/// listed-twice rule still reports the first repeat in list order, as a
/// running seen-set would.
template <class Key>
std::vector<char> repeats(const std::vector<Key>& keys, std::vector<Key>* sorted) {
  std::vector<Key> scratch, twice;
  *sorted = keys;
  util::radix_sort(sorted, &scratch);
  for (size_t i = 1; i < sorted->size(); ++i)
    if ((*sorted)[i] == (*sorted)[i - 1] && (twice.empty() || twice.back() != (*sorted)[i]))
      twice.push_back((*sorted)[i]);
  std::vector<char> repeat(keys.size(), 0);
  std::vector<char> seen(twice.size(), 0);
  for (size_t i = 0; i < keys.size() && !twice.empty(); ++i) {
    auto at = std::lower_bound(twice.begin(), twice.end(), keys[i]);
    if (at == twice.end() || *at != keys[i]) continue;
    char& once = seen[static_cast<size_t>(at - twice.begin())];
    repeat[i] = once;
    once = 1;
  }
  return repeat;
}

struct Checker {
  const WaveCertificate& c;
  int region = -1;  // current region for diagnostics, -1 = wave level

  CheckResult fail(const std::string& rule, const std::string& detail) const {
    std::ostringstream os;
    os << "wave " << c.wave;
    if (region >= 0) os << " region " << region;
    os << ": " << rule << ": " << detail;
    return CheckResult{false, os.str()};
  }
};

/// Recompute (leaf_count, height) of `idx`'s subtree iteratively (postorder
/// over the parent-pointer tree), verifying the haft property at every
/// internal node. Returns ok or the violated rule.
CheckResult check_subtree(Checker& ck, const std::vector<RtNode>& nodes, int root,
                          std::vector<int64_t>* leaves, std::vector<int>* height) {
  std::vector<int> stack{root};
  std::vector<int> order;
  order.reserve(nodes.size());
  while (!stack.empty()) {
    int i = stack.back();
    stack.pop_back();
    order.push_back(i);
    const RtNode& n = nodes[static_cast<size_t>(i)];
    for (int child : {n.left, n.right}) {
      if (child < 0) continue;
      if (order.size() + stack.size() > nodes.size() * 2)
        return ck.fail("rt-structure", "cycle among child pointers");
      stack.push_back(child);
    }
  }
  for (size_t k = order.size(); k-- > 0;) {
    int i = order[k];
    const RtNode& n = nodes[static_cast<size_t>(i)];
    if (n.is_leaf) {
      (*leaves)[static_cast<size_t>(i)] = 1;
      (*height)[static_cast<size_t>(i)] = 0;
      continue;
    }
    int64_t ll = (*leaves)[static_cast<size_t>(n.left)];
    int64_t rl = (*leaves)[static_cast<size_t>(n.right)];
    int lh = (*height)[static_cast<size_t>(n.left)];
    int rh = (*height)[static_cast<size_t>(n.right)];
    // H2: the left child roots a perfect subtree at least as leafy as the
    // right child.
    if (ll != (int64_t{1} << lh))
      return ck.fail("haft", "left child of vnode " + std::to_string(i) +
                                 " is not perfect");
    if (ll < rl)
      return ck.fail("haft", "left child of vnode " + std::to_string(i) +
                                 " holds fewer leaves than the right");
    (*leaves)[static_cast<size_t>(i)] = ll + rl;
    (*height)[static_cast<size_t>(i)] = 1 + std::max(lh, rh);
  }
  return CheckResult{};
}

/// Check one region's claims. `wave_victims` is the wave's victim list as
/// sorted keys; on success `*image` holds the region's verified image
/// edges as sorted, duplicate-free pair keys.
CheckResult check_region(Checker& ck, const RegionCert& rc,
                         const std::vector<uint32_t>& wave_victims,
                         std::vector<uint64_t>* image) {
  const std::vector<RtNode>& nodes = rc.nodes;
  const size_t n = nodes.size();

  // rt-structure: link symmetry, one root, arity by kind.
  int root = -1;
  for (size_t i = 0; i < n; ++i) {
    const RtNode& nd = nodes[i];
    for (int link : {nd.parent, nd.left, nd.right})
      if (link < -1 || link >= static_cast<int>(n))
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) + " links outside the witness");
    if (nd.parent == -1) {
      if (root != -1)
        return ck.fail("rt-structure", "more than one root (vnodes " +
                                           std::to_string(root) + " and " +
                                           std::to_string(i) + ")");
      root = static_cast<int>(i);
    } else {
      const RtNode& parent = nodes[static_cast<size_t>(nd.parent)];
      if (parent.left != static_cast<int>(i) && parent.right != static_cast<int>(i))
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) +
                           " names a parent that does not link back");
    }
    if (nd.is_leaf) {
      if (nd.left != -1 || nd.right != -1)
        return ck.fail("rt-structure",
                       "leaf vnode " + std::to_string(i) + " has children");
    } else {
      if (nd.left == -1 || nd.right == -1)
        return ck.fail("rt-structure",
                       "helper vnode " + std::to_string(i) + " lacks a child");
      if (nd.left == nd.right)
        return ck.fail("rt-structure", "helper vnode " + std::to_string(i) +
                                           " links the same child twice");
      for (int child : {nd.left, nd.right})
        if (nodes[static_cast<size_t>(child)].parent != static_cast<int>(i))
          return ck.fail("rt-structure",
                         "child link of vnode " + std::to_string(i) +
                             " is not mirrored by its parent pointer");
    }
  }
  if (n > 0 && root == -1) return ck.fail("rt-structure", "no root vnode");

  if (n > 0) {
    // haft + depth (H1-H2, Lemma 1.3), recomputed bottom-up. The walk also
    // proves every node is reachable from the root (counts must match).
    std::vector<int64_t> leaves(n, 0);
    std::vector<int> height(n, 0);
    CheckResult sub = check_subtree(ck, nodes, root, &leaves, &height);
    if (!sub.ok) return sub;
    // Reachability from the root: with the link-symmetry checks above the
    // child pointers form a forest, so anything the walk missed is a
    // detached component smuggled into the witness.
    std::vector<char> reach(n, 0);
    std::vector<int> stack{root};
    while (!stack.empty()) {
      int i = stack.back();
      stack.pop_back();
      if (reach[static_cast<size_t>(i)]) continue;
      reach[static_cast<size_t>(i)] = 1;
      const RtNode& nd = nodes[static_cast<size_t>(i)];
      for (int child : {nd.left, nd.right})
        if (child >= 0) stack.push_back(child);
    }
    for (size_t i = 0; i < n; ++i)
      if (!reach[i])
        return ck.fail("rt-structure",
                       "vnode " + std::to_string(i) + " unreachable from the root");
    if (height[static_cast<size_t>(root)] >
        ceil_log2(std::max<int64_t>(1, leaves[static_cast<size_t>(root)])))
      return ck.fail("depth", "RT height " +
                                  std::to_string(height[static_cast<size_t>(root)]) +
                                  " exceeds ceil(log2 " +
                                  std::to_string(leaves[static_cast<size_t>(root)]) +
                                  ") (Lemma 1)");
  }

  // anchors: each claimed re-anchored slot (owner, dead) is a leaf of the
  // witness and its dead endpoint is one of the region's victims.
  if (!rc.anchors.empty() && n == 0)
    return ck.fail("anchors", "anchors claimed but no RT witness");
  std::vector<uint64_t> leaf_slots, scratch;
  for (const RtNode& nd : nodes)
    if (nd.is_leaf) leaf_slots.push_back(util::pair_key(nd.owner, nd.other));
  util::radix_sort(&leaf_slots, &scratch);
  const std::vector<uint32_t> region_victims = sorted_keys(rc.victims);
  for (const auto& [owner, dead] : rc.anchors) {
    if (!contains(region_victims, util::ordered_key(dead)))
      return ck.fail("anchors", "anchor (" + std::to_string(owner) + ", " +
                                    std::to_string(dead) +
                                    ") names a dead endpoint outside the region");
    if (!contains(leaf_slots, util::pair_key(owner, dead)))
      return ck.fail("anchors", "anchor (" + std::to_string(owner) + ", " +
                                    std::to_string(dead) +
                                    ") has no matching RT leaf");
  }
  for (NodeId v : rc.victims)
    if (!contains(wave_victims, util::ordered_key(v)))
      return ck.fail("partition",
                     "region victim " + std::to_string(v) + " not in the wave");

  // image-edges: the claimed healed-network edges equal the homomorphic
  // image of the witness — tree edges whose endpoints have distinct owners.
  // Both sides sorted (the claimed side only when the emitter's ascending
  // order does not hold); on a mismatch the witness pair is the largest
  // edge of derived \ claimed, else the largest of claimed \ derived.
  std::vector<uint64_t>& derived = *image;
  derived.clear();
  for (size_t i = 0; i < n; ++i) {
    const RtNode& nd = nodes[i];
    if (nd.parent < 0) continue;
    NodeId a = nd.owner;
    NodeId b = nodes[static_cast<size_t>(nd.parent)].owner;
    if (a != b) derived.push_back(util::pair_key(std::min(a, b), std::max(a, b)));
  }
  util::radix_sort(&derived, &scratch, /*drop_repeats=*/true);
  std::vector<uint64_t> claimed;
  claimed.reserve(rc.image_edges.size());
  for (const auto& [u, v] : rc.image_edges) claimed.push_back(util::pair_key(u, v));
  if (!std::is_sorted(claimed.begin(), claimed.end())) util::radix_sort(&claimed, &scratch);
  if (std::adjacent_find(claimed.begin(), claimed.end()) != claimed.end())
    return ck.fail("image-edges", "duplicate claimed image edge");
  if (claimed != derived) {
    std::vector<uint64_t> diff;
    std::set_difference(derived.begin(), derived.end(), claimed.begin(),
                        claimed.end(), std::back_inserter(diff));
    if (diff.empty())
      std::set_difference(claimed.begin(), claimed.end(), derived.begin(),
                          derived.end(), std::back_inserter(diff));
    const auto [u, v] = util::key_pair(diff.back());
    return ck.fail("image-edges",
                   "claimed edges differ from the RT witness image at (" +
                       std::to_string(u) + ", " + std::to_string(v) + ")");
  }

  // rt-connectivity: the region's owners form one connected component under
  // exactly the claimed image edges — the spanning check, run through the
  // real graph substrate (the checker's one src/graph dependency). The
  // verified image is sorted and duplicate-free, and renumbering owners by
  // rank keeps it so: it bulk-loads as is. Its u sides ascend, so their
  // ranks come from one forward walk over the sorted owners; each v side,
  // above its u, is searched for past it.
  if (n > 0) {
    std::vector<uint32_t> owners, owner_scratch;
    owners.reserve(n);
    for (const RtNode& nd : nodes) owners.push_back(util::ordered_key(nd.owner));
    util::radix_sort(&owners, &owner_scratch, /*drop_repeats=*/true);
    std::vector<std::pair<uint32_t, uint32_t>> local_edges;
    local_edges.reserve(derived.size());
    size_t ru = 0;
    for (uint64_t key : derived) {
      const uint32_t u = static_cast<uint32_t>(key >> 32);
      const uint32_t v = static_cast<uint32_t>(key);
      while (owners[ru] != u) ++ru;
      const size_t rv = static_cast<size_t>(
          std::lower_bound(owners.begin() + static_cast<std::ptrdiff_t>(ru) + 1, owners.end(), v) -
          owners.begin());
      local_edges.emplace_back(static_cast<uint32_t>(ru), static_cast<uint32_t>(rv));
    }
    Graph og(static_cast<int>(owners.size()));
    og.add_edges_bulk(local_edges);
    if (!is_connected(og))
      return ck.fail("rt-connectivity",
                     "the RT's image does not connect all its owners");
  }
  return CheckResult{};
}

}  // namespace

CheckResult check(const WaveCertificate& c) {
  Checker ck{c, -1};

  if (c.degree_constant != kDegreeConstant)
    return ck.fail("degree", "degree-constant " +
                                 std::to_string(c.degree_constant) +
                                 " is not the paper's accounting bound " +
                                 std::to_string(kDegreeConstant));
  if (c.stretch_bound !=
      std::max(1, ceil_log2(std::max<int64_t>(1, c.net_nodes))))
    return ck.fail("stretch", "stretch-bound " + std::to_string(c.stretch_bound) +
                                  " does not match ceil(log2 " +
                                  std::to_string(c.net_nodes) + ")");

  // partition: victims distinct, every victim assigned to a declared region,
  // region victim lists consistent with the assignment (wave order).
  std::vector<uint32_t> victims;
  {
    if (c.assign.size() != c.victims.size())
      return ck.fail("partition", std::string("assign list ") +
                                      (c.assign.size() > c.victims.size() ? "longer" : "shorter") +
                                      " than the victim count");
    std::vector<uint32_t> keys;
    keys.reserve(c.victims.size());
    for (NodeId v : c.victims) keys.push_back(util::ordered_key(v));
    const std::vector<char> repeated = repeats(keys, &victims);
    for (size_t i = 0; i < c.victims.size(); ++i)
      if (repeated[i])
        return ck.fail("partition",
                       "victim " + std::to_string(c.victims[i]) + " repeated");
    const int r_count = static_cast<int>(c.regions.size());
    for (size_t i = 0; i < c.assign.size(); ++i)
      if (c.assign[i] < 0 || c.assign[i] >= r_count)
        return ck.fail("partition", "victim " + std::to_string(c.victims[i]) +
                                        " assigned to unknown region " +
                                        std::to_string(c.assign[i]));
    std::vector<std::vector<NodeId>> expect(static_cast<size_t>(r_count));
    for (size_t i = 0; i < c.victims.size(); ++i)
      expect[static_cast<size_t>(c.assign[i])].push_back(c.victims[i]);
    for (int r = 0; r < r_count; ++r) {
      if (c.regions[static_cast<size_t>(r)].id != r)
        return ck.fail("partition", "region ids out of order at " +
                                        std::to_string(r));
      if (expect[static_cast<size_t>(r)] != c.regions[static_cast<size_t>(r)].victims)
        return ck.fail("partition",
                       "region " + std::to_string(r) +
                           " victim list disagrees with the assignment");
    }
  }

  std::vector<std::vector<uint64_t>> images(c.regions.size());
  for (size_t r = 0; r < c.regions.size(); ++r) {
    ck.region = c.regions[r].id;
    CheckResult res = check_region(ck, c.regions[r], victims, &images[r]);
    if (!res.ok) return res;
  }
  ck.region = -1;

  // The wave's deduplicated image edges, for the degree-delta bound, as a
  // sorted endpoint list: a node's incident count is its equal_range.
  // Both halves of a pair key are the endpoints' ordered keys.
  std::vector<uint32_t> endpoints;
  {
    std::vector<uint64_t> wave_edges, scratch;
    for (const std::vector<uint64_t>& image : images)
      wave_edges.insert(wave_edges.end(), image.begin(), image.end());
    util::radix_sort(&wave_edges, &scratch, /*drop_repeats=*/true);
    endpoints.reserve(2 * wave_edges.size());
    for (uint64_t key : wave_edges) {
      endpoints.push_back(static_cast<uint32_t>(key >> 32));
      endpoints.push_back(static_cast<uint32_t>(key));
    }
    std::vector<uint32_t> endpoint_scratch;
    util::radix_sort(&endpoints, &endpoint_scratch);
  }

  // degree: no victim may be claimed as a survivor; every claim respects the
  // accounting constant and the wave's own new incident edges.
  {
    std::vector<uint32_t> keys, listed;
    keys.reserve(c.degrees.size());
    for (const DegreeClaim& d : c.degrees) keys.push_back(util::ordered_key(d.node));
    const std::vector<char> repeated = repeats(keys, &listed);
    for (size_t i = 0; i < c.degrees.size(); ++i) {
      const DegreeClaim& d = c.degrees[i];
      if (contains(victims, util::ordered_key(d.node)))
        return ck.fail("degree", "victim " + std::to_string(d.node) +
                                     " listed as a surviving node");
      if (repeated[i])
        return ck.fail("degree",
                       "node " + std::to_string(d.node) + " listed twice");
      if (d.gprime < 0 || d.g_before < 0 || d.g_after < 0)
        return ck.fail("degree",
                       "negative degree at node " + std::to_string(d.node));
      if (d.gprime > 0 && d.g_after > c.degree_constant * d.gprime)
        return ck.fail("degree",
                       "node " + std::to_string(d.node) + " has degree " +
                           std::to_string(d.g_after) + " > " +
                           std::to_string(c.degree_constant) + " * " +
                           std::to_string(d.gprime) + " (Theorem 1.1)");
      const auto [lo, hi] =
          std::equal_range(endpoints.begin(), endpoints.end(), util::ordered_key(d.node));
      const int incident = static_cast<int>(hi - lo);
      if (d.g_after > d.g_before + incident)
        return ck.fail("degree", "node " + std::to_string(d.node) + " gained " +
                                     std::to_string(d.g_after - d.g_before) +
                                     " edges but the wave only adds " +
                                     std::to_string(incident) + " incident");
    }
    // Every anchor owner survives the wave and must be accounted for.
    for (const RegionCert& rc : c.regions)
      for (const auto& [owner, dead] : rc.anchors) {
        (void)dead;
        if (!contains(listed, util::ordered_key(owner))) {
          ck.region = rc.id;
          return ck.fail("degree", "anchor owner " + std::to_string(owner) +
                                       " missing from the degree section");
        }
      }
    ck.region = -1;
  }

  // stretch: witness paths continuous, every hop justified by an edge fact,
  // length within stretch-bound * dist_G'.
  {
    std::vector<uint64_t> keys, fact_keys;
    keys.reserve(c.facts.size());
    for (const EdgeFact& f : c.facts) keys.push_back(util::pair_key(f.u, f.v));
    const std::vector<char> repeated = repeats(keys, &fact_keys);
    for (size_t i = 0; i < c.facts.size(); ++i) {
      const EdgeFact& f = c.facts[i];
      if (f.u >= f.v)
        return ck.fail("stretch", "edge fact (" + std::to_string(f.u) + ", " +
                                      std::to_string(f.v) +
                                      ") not normalized (u < v)");
      if (repeated[i])
        return ck.fail("stretch", "edge fact (" + std::to_string(f.u) + ", " +
                                      std::to_string(f.v) + ") repeated");
      if (f.kind == EdgeFact::Kind::kRtWave) {
        if (f.region < 0 || f.region >= static_cast<int>(c.regions.size()))
          return ck.fail("stretch", "edge fact names unknown region " +
                                        std::to_string(f.region));
        if (!contains(images[static_cast<size_t>(f.region)], keys[i]))
          return ck.fail("stretch",
                         "edge fact (" + std::to_string(f.u) + ", " +
                             std::to_string(f.v) + ") is not an image edge of region " +
                             std::to_string(f.region));
      }
    }
    for (const StretchWitness& s : c.stretch) {
      if (s.path.size() < 2 || s.path.front() != s.x || s.path.back() != s.y)
        return ck.fail("stretch", "witness path endpoints do not match pair (" +
                                      std::to_string(s.x) + ", " +
                                      std::to_string(s.y) + ")");
      if (s.dist_gprime < 1)
        return ck.fail("stretch", "pair (" + std::to_string(s.x) + ", " +
                                      std::to_string(s.y) +
                                      ") claims G' distance < 1");
      for (size_t i = 0; i + 1 < s.path.size(); ++i) {
        NodeId u = std::min(s.path[i], s.path[i + 1]);
        NodeId v = std::max(s.path[i], s.path[i + 1]);
        if (u == v)
          return ck.fail("stretch", "witness path repeats node " +
                                        std::to_string(u));
        if (!contains(fact_keys, util::pair_key(u, v)))
          return ck.fail("stretch", "witness hop (" + std::to_string(u) + ", " +
                                        std::to_string(v) +
                                        ") has no supporting edge fact");
      }
      int64_t len = static_cast<int64_t>(s.path.size()) - 1;
      if (len > static_cast<int64_t>(c.stretch_bound) * s.dist_gprime)
        return ck.fail("stretch",
                       "pair (" + std::to_string(s.x) + ", " +
                           std::to_string(s.y) + ") stretches " +
                           std::to_string(len) + " / " +
                           std::to_string(s.dist_gprime) + " beyond the bound " +
                           std::to_string(c.stretch_bound) + " (Theorem 1.2)");
    }
  }

  // cost: the Lemma-4 envelope (only the distributed engine writes one).
  if (c.cost.present) {
    const int logn = std::max(1, ceil_log2(std::max<int64_t>(2, c.net_nodes)));
    const int d = std::max(1, c.cost.deleted_degree);
    const int64_t msg_budget =
        int64_t{kMessageBudgetFactor} * d * logn;
    const int round_budget = kRoundBudgetFactor * ceil_log2(std::max(2, d)) + logn;
    if (c.cost.messages < 0 || c.cost.words < 0 || c.cost.rounds < 0 ||
        c.cost.deleted_degree < 0)
      return ck.fail("cost", "negative cost claim");
    if (c.cost.words < c.cost.messages)
      return ck.fail("cost", "fewer words than messages");
    if (c.cost.messages > msg_budget)
      return ck.fail("cost", std::to_string(c.cost.messages) +
                                 " messages exceed the Lemma-4 budget " +
                                 std::to_string(msg_budget));
    if (c.cost.rounds > round_budget)
      return ck.fail("cost", std::to_string(c.cost.rounds) +
                                 " rounds exceed the Lemma-4 budget " +
                                 std::to_string(round_budget));
    int anchors = 0;
    for (const RegionCert& rc : c.regions)
      anchors += static_cast<int>(rc.anchors.size());
    if (c.cost.deleted_degree < anchors)
      return ck.fail("cost", "deleted degree " +
                                 std::to_string(c.cost.deleted_degree) +
                                 " below the wave's anchor count " +
                                 std::to_string(anchors));
  }

  return CheckResult{};
}

StreamResult check_stream(std::istream& is) {
  StreamResult out;
  for (;;) {
    WaveCertificate c;
    bool eof = false;
    CheckResult parsed = parse(is, &c, &eof);
    if (eof) break;
    if (!parsed.ok)
      return StreamResult{false, out.waves_checked, parsed.diagnostic,
                          /*malformed=*/true};
    CheckResult checked = check(c);
    if (!checked.ok)
      return StreamResult{false, out.waves_checked, checked.diagnostic,
                          /*malformed=*/false};
    ++out.waves_checked;
  }
  return out;
}

}  // namespace fg::cert
