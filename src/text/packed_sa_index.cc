#include "text/packed_sa_index.h"

#include <algorithm>

#include "suffix/sais.h"
#include "util/bits.h"
#include "util/check.h"

namespace dyndex {

PackedSaIndex PackedSaIndex::Build(const ConcatText& text,
                                   const Options& options) {
  (void)options;
  PackedSaIndex idx;
  idx.starts_ = text.starts();
  idx.lens_ = text.lens();
  idx.sigma_ = text.sigma();
  idx.width_ = BitWidth(idx.sigma_ - 1);

  const std::vector<Symbol>& t = text.symbols();  // ends with the sentinel
  uint64_t n_rows = t.size();
  idx.text_.Reset(n_rows, idx.width_);
  for (uint64_t i = 0; i < n_rows; ++i) idx.text_.Set(i, t[i]);

  uint32_t row_width = BitWidth(n_rows - 1 == 0 ? 1 : n_rows - 1);
  idx.sa_.Reset(n_rows, row_width);
  idx.isa_.Reset(n_rows, row_width);
  WithSuffixArray(t, idx.sigma_, [&](const auto& sa) {
    for (uint64_t row = 0; row < n_rows; ++row) {
      idx.sa_.Set(row, sa[row]);
      idx.isa_.Set(sa[row], row);
    }
  });
  return idx;
}

uint32_t PackedSaIndex::DocOfPos(uint64_t pos) const {
  auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
  DYNDEX_DCHECK(it != starts_.begin());
  return static_cast<uint32_t>((it - starts_.begin()) - 1);
}

int PackedSaIndex::CompareSuffix(uint64_t row, const Symbol* pattern,
                                 uint64_t len) const {
  uint64_t pos = sa_.Get(row);
  uint64_t n = NumRows();
  uint64_t avail = n - pos;
  uint32_t per_word = width_ == 0 ? 64 : 64 / width_;
  // Pattern symbols are pre-packed by Find into words; here we compare by
  // re-packing on the fly in chunks of per_word symbols.
  uint64_t i = 0;
  while (i < len) {
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>({per_word, len - i, avail > i ? avail - i : 0}));
    if (chunk == 0) return -1;  // suffix exhausted: it is a proper prefix of P
    uint64_t text_bits = text_.GetBits((pos + i) * width_,
                                       chunk * width_);
    uint64_t pat_bits = 0;
    for (uint32_t j = 0; j < chunk; ++j) {
      pat_bits |= static_cast<uint64_t>(pattern[i + j]) << (j * width_);
    }
    if (text_bits != pat_bits) {
      // Locate the first differing symbol within the chunk. Symbols are
      // packed LSB-first, so the lowest differing bit pins the symbol index.
      uint32_t sym = Ctz(text_bits ^ pat_bits) / width_;
      uint64_t tc = (text_bits >> (sym * width_)) & LowMask(width_);
      uint64_t pc = (pat_bits >> (sym * width_)) & LowMask(width_);
      return tc < pc ? -1 : 1;
    }
    i += chunk;
  }
  return 0;  // P is a prefix of the suffix (or equal)
}

RowRange PackedSaIndex::Find(const Symbol* pattern, uint64_t len) const {
  uint64_t n = NumRows();
  if (n == 0) return {0, 0};
  for (uint64_t i = 0; i < len; ++i) {
    if (pattern[i] >= sigma_) return {0, 0};
  }
  // Lower bound: first row with CompareSuffix >= 0.
  uint64_t lo = 0, hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (CompareSuffix(mid, pattern, len) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  uint64_t begin = lo;
  // Upper bound: first row with CompareSuffix > 0.
  hi = n;
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (CompareSuffix(mid, pattern, len) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return {begin, lo};
}

void PackedSaIndex::Extract(uint64_t pos, uint64_t len,
                            std::vector<Symbol>* out) const {
  DYNDEX_CHECK(pos + len <= TextSize());
  out->reserve(out->size() + len);
  for (uint64_t i = 0; i < len; ++i) {
    out->push_back(static_cast<Symbol>(text_.Get(pos + i)));
  }
}

uint64_t PackedSaIndex::SpaceBytes() const {
  return text_.SpaceBytes() + sa_.SpaceBytes() + isa_.SpaceBytes() +
         (starts_.capacity() + lens_.capacity()) * sizeof(uint64_t);
}

}  // namespace dyndex
