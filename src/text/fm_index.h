// FM-index: the static compressed index I_s plugged into the paper's
// Transformations. Backward search over a wavelet tree on the BWT, suffix
// array sampled every `sample_rate` text positions (the paper's parameter s).
//
//   Find      : trange  = O(|P| log sigma)
//   Locate    : tlocate = O(s log sigma) per occurrence
//   Extract   : textract= O((s + l) log sigma)
//   ForEachDocRow (deletion support): O(1) LF-steps per suffix from the
//     stored separator row (the paper's tSA hook).
#ifndef DYNDEX_TEXT_FM_INDEX_H_
#define DYNDEX_TEXT_FM_INDEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "bits/rank_select.h"
#include "seq/wavelet_tree.h"
#include "text/concat_text.h"
#include "text/row_range.h"
#include "util/int_vector.h"

namespace dyndex {

/// Compressed full-text index over a document concatenation.
class FmIndex {
 public:
  struct Options {
    /// SA sample rate s: every s-th text position is sampled. Smaller s means
    /// faster locate/extract and more space — the Table 1 trade-off knob.
    uint32_t sample_rate = 32;
  };

  FmIndex() = default;

  /// Builds the index in O(n log sigma) time. The only n-entry workspace is
  /// the suffix array: one pass overwrites it with the BWT, which is moved
  /// into the wavelet tree (peak about 9.4 B/symbol above `text` with a
  /// 32-bit SA; tests/build_memory_test.cc gates it at 12).
  static FmIndex Build(const ConcatText& text, const Options& options);

  /// Number of suffix-array rows (text size + 1 for the sentinel).
  uint64_t NumRows() const { return wt_.size(); }
  /// Concatenation length (excluding the sentinel).
  uint64_t TextSize() const { return wt_.size() == 0 ? 0 : wt_.size() - 1; }
  uint32_t sigma() const { return sigma_; }
  uint32_t num_docs() const { return static_cast<uint32_t>(starts_.size()); }
  uint64_t doc_start(uint32_t d) const { return starts_[d]; }
  uint64_t doc_len(uint32_t d) const { return lens_[d]; }

  /// Backward search: rows whose suffixes start with `pattern`.
  RowRange Find(const Symbol* pattern, uint64_t len) const;
  RowRange Find(const std::vector<Symbol>& p) const {
    return Find(p.data(), p.size());
  }

  /// Text position of the suffix at `row`. O(s) LF-steps.
  uint64_t Locate(uint64_t row) const;

  /// Extracts text[pos, pos+len) into `out` (appends). O(s + len) LF-steps.
  void Extract(uint64_t pos, uint64_t len, std::vector<Symbol>* out) const;

  /// One backward step: row of the suffix starting one position earlier.
  uint64_t LF(uint64_t row) const {
    auto [c, r] = wt_.InverseSelect(row);
    return c_[c] + r;
  }

  /// Calls fn(row) for every suffix-array row of suffixes starting inside
  /// document d (including its separator suffix): doc_len(d)+1 rows.
  template <typename Fn>
  void ForEachDocRow(uint32_t d, Fn fn) const {
    uint64_t row = sep_rows_.Get(d);
    fn(row);
    for (uint64_t k = 0; k < lens_[d]; ++k) {
      row = LF(row);
      fn(row);
    }
  }

  /// Local document containing text position `pos`; the separator at a
  /// document's end belongs to that document.
  uint32_t DocOfPos(uint64_t pos) const;

  uint64_t SpaceBytes() const;

 private:
  WaveletTree wt_;              // over the BWT
  std::vector<uint64_t> c_;     // C array: rows starting with symbol < c
  RankSelect sampled_;          // rows whose SA value is a multiple of s
  IntVector sa_samples_;        // SA values of sampled rows, in row order
  IntVector inv_samples_;       // inv_samples_[j] = row of suffix at j*s
  IntVector sep_rows_;          // row of each doc's separator suffix
  std::vector<uint64_t> starts_, lens_;
  uint32_t sigma_ = 0;
  uint32_t sample_rate_ = 32;
};

}  // namespace dyndex

#endif  // DYNDEX_TEXT_FM_INDEX_H_
