#include "baseline/dynamic_fm_index.h"

#include <algorithm>
#include <functional>

#include "suffix/sais.h"
#include "util/bits.h"
#include "util/check.h"

namespace dyndex {

DynamicFmIndex::DynamicFmIndex(const Options& opt)
    : opt_(opt),
      bwt_(opt.max_docs + (opt.max_symbol - kMinSymbol)),
      counts_(opt.max_docs + (opt.max_symbol - kMinSymbol)) {
  DYNDEX_CHECK(opt.max_docs >= 1);
  DYNDEX_CHECK(opt.max_symbol > kMinSymbol);
  if (opt_.sample_rate == 0) opt_.sample_rate = 1;
  free_seps_.reserve(opt.max_docs);
  for (uint32_t s = opt.max_docs; s-- > 0;) free_seps_.push_back(s);
}

void DynamicFmIndex::InsertRow(uint64_t row, uint32_t bwt_sym, DocId doc,
                               uint64_t offset) {
  bwt_.Insert(row, bwt_sym);
  counts_.Add(bwt_sym, 1);
  bool sample = offset % opt_.sample_rate == 0;
  sampled_.Insert(row, sample);
  if (sample) {
    uint64_t k = sampled_.Rank1(row);
    samples_.insert(samples_.begin() + static_cast<int64_t>(k),
                    {doc, offset});
  }
}

void DynamicFmIndex::EraseRow(uint64_t row, uint32_t bwt_sym) {
  counts_.Add(bwt_sym, -1);
  if (sampled_.Get(row)) {
    uint64_t k = sampled_.Rank1(row);
    samples_.erase(samples_.begin() + static_cast<int64_t>(k));
  }
  sampled_.Erase(row);
  bwt_.Erase(row);
}

DocId DynamicFmIndex::Insert(const std::vector<Symbol>& symbols) {
  DYNDEX_CHECK(!symbols.empty());
  DYNDEX_CHECK(!free_seps_.empty());  // max_docs exhausted otherwise
  for (Symbol s : symbols) {
    DYNDEX_CHECK(s >= kMinSymbol && s < opt_.max_symbol);
  }
  DocId id = next_id_++;
  uint32_t sep = free_seps_.back();
  free_seps_.pop_back();
  uint64_t m = symbols.size();
  docs_[id] = {sep, m};
  live_symbols_ += m;

  // Row of the suffix "$_d": all rows starting with a smaller symbol.
  uint64_t row = static_cast<uint64_t>(counts_.PrefixSum(sep));
  uint32_t ch = m > 0 ? Internal(symbols[m - 1]) : sep;
  InsertRow(row, ch, id, m);
  uint32_t prev = ch;
  for (uint64_t i = m; i-- > 0;) {
    // Row of S_i = LF of the row of S_{i+1}; the char written at the previous
    // row is exactly T[i] (= prev). The +1 accounts for the already-inserted
    // "$_d"-starting row whose BWT counterpart (the final sep write) is still
    // pending: first-symbol counts run one separator ahead of counts_.
    uint64_t next_row = LfStep(prev, row) + 1;
    uint32_t c = i > 0 ? Internal(symbols[i - 1]) : sep;
    InsertRow(next_row, c, id, i);
    prev = c;
    row = next_row;
  }
  return id;
}

std::vector<DocId> DynamicFmIndex::InsertBulk(
    const std::vector<std::vector<Symbol>>& docs) {
  std::vector<DocId> ids;
  ids.reserve(docs.size());
  for (std::size_t d = 0; d < docs.size(); ++d) ids.push_back(next_id_++);
  BulkLoad(docs, ids);
  return ids;
}

void DynamicFmIndex::BulkLoad(const std::vector<std::vector<Symbol>>& docs,
                              const std::vector<DocId>& ids) {
  DYNDEX_CHECK(bwt_.size() == 0);  // the bulk path loads an empty index
  DYNDEX_CHECK(docs.size() <= free_seps_.size());
  DYNDEX_CHECK(docs.size() == ids.size());
  if (docs.empty()) return;
  uint64_t total = 0;
  for (const auto& d : docs) {
    DYNDEX_CHECK(!d.empty());
    for (Symbol s : d) DYNDEX_CHECK(s >= kMinSymbol && s < opt_.max_symbol);
    total += d.size();
  }
  uint64_t n_rows = total + docs.size();

  // Concatenate T_0 $_0 T_1 $_1 ... with every internal symbol shifted +1 so
  // value 0 can serve as the SA-IS sentinel. Separators take their pool
  // values in pool order, and separators sort below text symbols, so suffix
  // comparisons terminate at the first separator and the resulting row order
  // is exactly the one incremental insertion produces.
  std::vector<uint32_t> text;
  text.reserve(n_rows + 1);
  std::vector<uint32_t> seps(docs.size());
  std::vector<uint64_t> start(docs.size());
  for (uint64_t d = 0; d < docs.size(); ++d) {
    DocId id = ids[d];
    seps[d] = free_seps_.back();
    free_seps_.pop_back();
    start[d] = text.size();
    for (Symbol s : docs[d]) text.push_back(Internal(s) + 1);
    text.push_back(seps[d] + 1);
    docs_[id] = {seps[d], docs[d].size()};
    live_symbols_ += docs[d].size();
  }
  text.push_back(0);
  uint32_t sigma = opt_.max_docs + (opt_.max_symbol - kMinSymbol) + 1;

  // Emit rows in suffix order, skipping the sentinel suffix, and overwrite
  // the SA with them: row r's BWT symbol lands at r or r-1, already read.
  // The BWT char of a document's first-symbol row is its own separator (the
  // per-document cyclic BWT the incremental walk maintains), not the
  // concatenation's predecessor.
  std::vector<uint64_t> sampled_words(CeilDiv(n_rows, 64), 0);
  std::vector<uint64_t> freq(sigma, 0);
  std::vector<uint32_t> bwt_syms = WithSuffixArray(text, sigma, [&](auto sa) {
    using Idx = typename decltype(sa)::value_type;
    std::vector<Idx> doc_of(n_rows);  // position -> local doc index
    std::vector<Idx> off_of(n_rows);  // position -> offset (len at sep)
    for (uint64_t d = 0; d < docs.size(); ++d) {
      for (uint64_t k = 0; k <= docs[d].size(); ++k) {
        doc_of[start[d] + k] = static_cast<Idx>(d);
        off_of[start[d] + k] = static_cast<Idx>(k);
      }
    }
    uint64_t row = 0;
    for (uint64_t r = 0; r < sa.size(); ++r) {
      uint64_t p = sa[r];
      if (p == n_rows) continue;  // sentinel suffix
      uint64_t d = doc_of[p];
      uint32_t sym = p == start[d] ? seps[d] : text[p - 1] - 1;
      sa[row] = sym;
      ++freq[sym];
      uint64_t off = off_of[p];
      if (off % opt_.sample_rate == 0) {
        sampled_words[row >> 6] |= 1ull << (row & 63);
        samples_.push_back({ids[d], off});
      }
      ++row;
    }
    DYNDEX_DCHECK(row == n_rows);
    sa.resize(n_rows);
    return IntoSymbols(std::move(sa));
  });
  text = std::vector<uint32_t>();
  for (uint32_t sym = 0; sym + 1 < sigma; ++sym) {
    if (freq[sym] != 0) counts_.Add(sym, static_cast<int64_t>(freq[sym]));
  }
  // Park the old (empty, but possibly node-bearing) wavelet tree for
  // in-flight optimistic readers instead of freeing it under the assignment.
  Retire(std::move(bwt_));
  bwt_ = DynamicWaveletTree(opt_.max_docs + (opt_.max_symbol - kMinSymbol),
                            std::move(bwt_syms));
  sampled_.Build(sampled_words.data(), n_rows);
}

void DynamicFmIndex::ExportSnapshot(std::vector<Document>* docs,
                                    DocId* next_id) const {
  const std::size_t before = docs->size();
  docs_.ForEach([&](DocId id, const DocInfo& info) {
    docs->push_back(Document{id, Extract(id, 0, info.len)});
  });
  // Hash order is an implementation detail; exported state is id-ordered.
  std::sort(docs->begin() + static_cast<int64_t>(before), docs->end(),
            [](const Document& a, const Document& b) { return a.id < b.id; });
  *next_id = next_id_;
}

void DynamicFmIndex::LoadSnapshot(std::vector<Document> docs, DocId next_id) {
  DYNDEX_CHECK(num_docs() == 0 && bwt_.size() == 0);
  next_id_ = next_id;
  std::vector<std::vector<Symbol>> texts;
  std::vector<DocId> ids;
  texts.reserve(docs.size());
  ids.reserve(docs.size());
  for (Document& d : docs) {
    ids.push_back(d.id);
    texts.push_back(std::move(d.symbols));
  }
  BulkLoad(texts, ids);
}

bool DynamicFmIndex::Erase(DocId id) {
  const DocInfo* info = docs_.Find(id);
  if (info == nullptr) return false;
  uint32_t sep = info->sep;
  live_symbols_ -= info->len;
  // Walk the complete structure first, collecting the rows of all |T|+1
  // suffixes of the document; then delete them in descending row order so
  // earlier deletions never shift later targets. This avoids the off-by-one
  // bookkeeping of interleaved LF-steps and deletions.
  std::vector<uint64_t> rows;
  rows.reserve(info->len + 1);
  uint64_t row = static_cast<uint64_t>(counts_.PrefixSum(sep));
  while (true) {
    rows.push_back(row);
    uint32_t c = bwt_.Access(row);
    if (c == sep) break;
    row = LfStep(c, row);
  }
  std::sort(rows.begin(), rows.end(), std::greater<uint64_t>());
  for (uint64_t r : rows) {
    uint32_t c = bwt_.Access(r);
    EraseRow(r, c);
  }
  free_seps_.push_back(sep);
  docs_.Erase(id);
  return true;
}

bool DynamicFmIndex::BackwardSearch(const std::vector<Symbol>& pattern,
                                    uint64_t* lo, uint64_t* hi) const {
  DYNDEX_CHECK(!pattern.empty());
  uint64_t a = 0, b = bwt_.size();
  for (uint64_t k = pattern.size(); k-- > 0;) {
    Symbol s = pattern[k];
    if (s < kMinSymbol || s >= opt_.max_symbol) return false;
    uint32_t c = Internal(s);
    // Both LF-steps share one wavelet-tree descent via RankPair.
    uint64_t base = static_cast<uint64_t>(counts_.PrefixSum(c));
    auto [ra, rb] = bwt_.RankPair(c, a, b);
    a = base + ra;
    b = base + rb;
    if (a >= b) return false;
  }
  *lo = a;
  *hi = b;
  return true;
}

uint64_t DynamicFmIndex::Count(const std::vector<Symbol>& pattern) const {
  uint64_t lo, hi;
  if (!BackwardSearch(pattern, &lo, &hi)) return 0;
  return hi - lo;
}

std::vector<Occurrence> DynamicFmIndex::Find(
    const std::vector<Symbol>& pattern) const {
  std::vector<Occurrence> out;
  uint64_t lo, hi;
  if (!BackwardSearch(pattern, &lo, &hi)) return out;
  out.reserve(hi - lo);
  for (uint64_t r = lo; r < hi; ++r) {
    uint64_t row = r;
    uint64_t steps = 0;
    while (!sampled_.Get(row)) {
      uint32_t c = bwt_.Access(row);
      row = LfStep(c, row);
      // Samples sit every sample_rate offsets along each document, so a
      // consistent walk hits one within sample_rate steps; a torn read
      // (optimistic serve-layer readers) could otherwise cycle forever.
      DYNDEX_CHECK(++steps <= opt_.sample_rate);
    }
    uint64_t k = sampled_.Rank1(row);
    DYNDEX_CHECK(k < samples_.size());
    const Sample& s = samples_[k];
    out.push_back({s.doc, s.offset + steps});
  }
  return out;
}

std::vector<Symbol> DynamicFmIndex::Extract(DocId id, uint64_t from,
                                            uint64_t len) const {
  const DocInfo* info = docs_.Find(id);
  DYNDEX_CHECK(info != nullptr);
  uint64_t m = info->len;
  DYNDEX_CHECK(from + len <= m);
  // Walking LF from the "$_d" row yields T[m-1], T[m-2], ...; stop once the
  // walk passes `from` — positions below it are never needed.
  std::vector<Symbol> out(len);
  uint32_t sep = info->sep;
  uint64_t row = static_cast<uint64_t>(counts_.PrefixSum(sep));
  for (uint64_t i = m; i-- > from;) {
    uint32_t c = bwt_.Access(row);
    DYNDEX_CHECK(c != sep);
    if (i < from + len) out[i - from] = c - opt_.max_docs + kMinSymbol;
    row = LfStep(c, row);
  }
  return out;
}

uint64_t DynamicFmIndex::DocLenOf(DocId id) const {
  const DocInfo* info = docs_.Find(id);
  DYNDEX_CHECK(info != nullptr);
  return info->len;
}

uint64_t DynamicFmIndex::SpaceBytes() const {
  return bwt_.SpaceBytes() + counts_.SpaceBytes() + sampled_.SpaceBytes() +
         samples_.capacity() * sizeof(Sample) + docs_.MemoryBytes() +
         free_seps_.capacity() * sizeof(uint32_t);
}

}  // namespace dyndex
