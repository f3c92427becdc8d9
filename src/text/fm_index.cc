#include "text/fm_index.h"

#include <algorithm>

#include "suffix/sais.h"
#include "util/check.h"

namespace dyndex {

FmIndex FmIndex::Build(const ConcatText& text, const Options& options) {
  FmIndex idx;
  idx.sample_rate_ = options.sample_rate == 0 ? 1 : options.sample_rate;
  idx.starts_ = text.starts();
  idx.lens_ = text.lens();
  idx.sigma_ = text.sigma();

  // Sampling: rows whose SA value is a multiple of s, in row order, plus the
  // inverse samples for extraction; and the row of each separator suffix.
  const std::vector<Symbol>& t = text.symbols();  // ends with the sentinel
  uint64_t n_rows = t.size();
  uint32_t s = idx.sample_rate_;
  uint64_t num_samples = (n_rows - 1) / s + 1;
  uint32_t row_width = BitWidth(n_rows - 1);
  BitVector sampled(n_rows);
  idx.sa_samples_.Reset(num_samples, BitWidth((num_samples - 1) * s));
  idx.inv_samples_.Reset(num_samples, row_width);
  idx.sep_rows_.Reset(text.num_docs(), row_width);
  idx.c_.assign(idx.sigma_ + 1, 0);

  // One pass over the SA takes all of the above, counts the C array and
  // overwrites each entry with its row's BWT symbol, so the SA buffer itself
  // becomes the wavelet tree's input.
  std::vector<Symbol> bwt = WithSuffixArray(t, idx.sigma_, [&](auto sa) {
    uint64_t next_sample = 0;
    for (uint64_t row = 0; row < n_rows; ++row) {
      uint64_t pos = sa[row];
      if (pos % s == 0) {
        sampled.Set(row, true);
        idx.sa_samples_.Set(next_sample++, pos);
        idx.inv_samples_.Set(pos / s, row);
      }
      if (t[pos] == kSeparator) idx.sep_rows_.Set(idx.DocOfPos(pos), row);
      Symbol c = t[pos == 0 ? n_rows - 1 : pos - 1];
      ++idx.c_[c + 1];
      sa[row] = c;
    }
    return IntoSymbols(std::move(sa));
  });
  for (uint32_t c = 1; c <= idx.sigma_; ++c) idx.c_[c] += idx.c_[c - 1];
  idx.sampled_.Build(std::move(sampled));
  idx.wt_ = WaveletTree(std::move(bwt), idx.sigma_);
  return idx;
}

uint32_t FmIndex::DocOfPos(uint64_t pos) const {
  DYNDEX_DCHECK(!starts_.empty());
  auto it = std::upper_bound(starts_.begin(), starts_.end(), pos);
  DYNDEX_DCHECK(it != starts_.begin());
  return static_cast<uint32_t>((it - starts_.begin()) - 1);
}

RowRange FmIndex::Find(const Symbol* pattern, uint64_t len) const {
  uint64_t lo = 0, hi = NumRows();
  for (uint64_t k = len; k > 0; --k) {
    Symbol c = pattern[k - 1];
    if (c >= sigma_) return {0, 0};
    lo = c_[c] + wt_.Rank(c, lo);
    hi = c_[c] + wt_.Rank(c, hi);
    if (lo >= hi) return {0, 0};
  }
  return {lo, hi};
}

uint64_t FmIndex::Locate(uint64_t row) const {
  uint64_t k = 0;
  while (!sampled_.Get(row)) {
    row = LF(row);
    ++k;
  }
  return sa_samples_.Get(sampled_.Rank1(row)) + k;
}

void FmIndex::Extract(uint64_t pos, uint64_t len,
                      std::vector<Symbol>* out) const {
  uint64_t n = TextSize();
  DYNDEX_CHECK(pos + len <= n);
  if (len == 0) return;
  uint64_t target = pos + len;
  uint32_t s = sample_rate_;
  // The nearest sampled text position at or after `target`; position n (the
  // sentinel) is always reachable as row 0.
  uint64_t p = CeilDiv(target, s) * s;
  uint64_t row;
  if (p >= n) {
    p = n;
    row = 0;  // sentinel suffix has the smallest row
  } else {
    row = inv_samples_.Get(p / s);
  }
  std::vector<Symbol> buf(p - pos);
  uint64_t q = p;
  while (q > pos) {
    auto [c, r] = wt_.InverseSelect(row);
    buf[q - 1 - pos] = c;
    row = c_[c] + r;
    --q;
  }
  out->insert(out->end(), buf.begin(), buf.begin() + static_cast<int64_t>(len));
}

uint64_t FmIndex::SpaceBytes() const {
  return wt_.SpaceBytes() + c_.capacity() * sizeof(uint64_t) +
         sampled_.SpaceBytes() + sa_samples_.SpaceBytes() +
         inv_samples_.SpaceBytes() + sep_rows_.SpaceBytes() +
         (starts_.capacity() + lens_.capacity()) * sizeof(uint64_t);
}

}  // namespace dyndex
