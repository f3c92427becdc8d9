#include "relation/static_relation.h"

#include <algorithm>

#include "util/check.h"

namespace dyndex {

StaticRelation::StaticRelation(std::vector<Pair> pairs, uint32_t num_objects,
                               uint32_t num_labels)
    : num_objects_(num_objects), num_labels_(num_labels) {
  // Purge/merge rebuilds feed pairs back in S order; the O(n) sortedness
  // check makes those batch constructions skip the sort entirely.
  if (!std::is_sorted(pairs.begin(), pairs.end())) {
    std::sort(pairs.begin(), pairs.end());
  }
  std::vector<uint32_t> labels;
  labels.reserve(pairs.size());
  BitVector n(pairs.size() + num_objects);
  uint64_t bit = 0;
  uint64_t next = 0;
  for (uint32_t o = 0; o < num_objects; ++o) {
    while (next < pairs.size() && pairs[next].object == o) {
      DYNDEX_CHECK(pairs[next].label < num_labels);
      labels.push_back(pairs[next].label);
      n.Set(bit++, true);
      ++next;
    }
    ++bit;  // the 0 terminating object o's run
  }
  DYNDEX_CHECK(next == pairs.size());  // all objects within range
  s_ = WaveletTree(std::move(labels), num_labels == 0 ? 1 : num_labels);
  n_.Build(std::move(n));
}

std::pair<uint64_t, uint64_t> StaticRelation::ObjectRange(uint32_t o) const {
  DYNDEX_CHECK(o < num_objects_);
  uint64_t begin = o == 0 ? 0 : n_.Select0(o - 1) - (o - 1);
  uint64_t end = n_.Select0(o) - o;
  return {begin, end};
}

uint64_t StaticRelation::FindPair(uint32_t o, uint32_t a) const {
  if (o >= num_objects_ || a >= num_labels_) return kNotFound;
  auto [l, r] = ObjectRange(o);
  uint64_t before = s_.Rank(a, l);
  if (before >= s_.Count(a)) return kNotFound;
  uint64_t pos = s_.Select(a, before);
  return pos < r ? pos : kNotFound;
}

}  // namespace dyndex
