#include "common/ids.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace manet {

bool insert_sorted(NodeSet& s, NodeId v) {
  auto it = std::lower_bound(s.begin(), s.end(), v);
  if (it != s.end() && *it == v) return false;
  s.insert(it, v);
  return true;
}

bool contains_sorted(const NodeSet& s, NodeId v) {
  return std::binary_search(s.begin(), s.end(), v);
}

bool erase_sorted(NodeSet& s, NodeId v) {
  auto it = std::lower_bound(s.begin(), s.end(), v);
  if (it == s.end() || *it != v) return false;
  s.erase(it);
  return true;
}

void apply_sorted_flips(NodeSet& s, const NodeSet& removed,
                        const NodeSet& added) {
  if (!removed.empty()) {
    auto r = removed.begin();
    auto out = std::lower_bound(s.begin(), s.end(), *r);
    for (auto it = out; it != s.end(); ++it) {
      while (r != removed.end() && *r < *it) ++r;
      if (r != removed.end() && *r == *it) continue;
      *out++ = *it;
    }
    s.erase(out, s.end());
  }
  // Backward merge into the grown tail: every element moves at most once.
  std::size_t i = s.size();
  std::size_t j = added.size();
  s.resize(i + j);
  for (std::size_t k = s.size(); j > 0;) {
    MANET_ASSERT(i == 0 || s[i - 1] != added[j - 1],
                 "flip adds an element already in the set");
    if (i > 0 && s[i - 1] > added[j - 1]) {
      s[--k] = s[--i];
    } else {
      s[--k] = added[--j];
    }
  }
}

void normalize(NodeSet& s) {
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
}

NodeSet set_difference(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

NodeSet set_intersection(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

NodeSet set_union(const NodeSet& a, const NodeSet& b) {
  NodeSet out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::size_t intersection_size(const NodeSet& a, const NodeSet& b) {
  std::size_t count = 0;
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      ++count;
      ++ia;
      ++ib;
    }
  }
  return count;
}

bool is_subset(const NodeSet& a, const NodeSet& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

}  // namespace manet
