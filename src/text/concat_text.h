// Symbol conventions and the document-concatenation input to static indexes.
//
// Symbols are uint32 values. Value 0 is the global SA-IS sentinel, value 1 the
// document separator; user symbols start at 2 (byte strings map to 2..257).
// Patterns never contain 0/1, so matches never cross document borders.
#ifndef DYNDEX_TEXT_CONCAT_TEXT_H_
#define DYNDEX_TEXT_CONCAT_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dyndex {

using Symbol = uint32_t;

inline constexpr Symbol kSentinel = 0;
inline constexpr Symbol kSeparator = 1;
inline constexpr Symbol kMinSymbol = 2;

/// Stable handle of a document within a dynamic collection.
using DocId = uint64_t;
inline constexpr DocId kInvalidDocId = ~0ull;

/// A document: stable id + its symbols (all >= kMinSymbol, non-empty).
struct Document {
  DocId id = kInvalidDocId;
  std::vector<Symbol> symbols;
};

/// Widens a byte string into symbols (byte value + kMinSymbol).
std::vector<Symbol> SymbolsFromString(std::string_view s);

/// Inverse of SymbolsFromString (values must be in [kMinSymbol, 257]).
std::string StringFromSymbols(const std::vector<Symbol>& symbols);

/// Concatenation "doc0 sep doc1 sep ... docm-1 sep sentinel" plus boundary
/// metadata. The trailing SA-IS sentinel is stored, so symbols() is the exact
/// input of BuildSuffixArray and index builders read it without a copy.
class ConcatText {
 public:
  ConcatText() : symbols_(1, kSentinel) {}

  /// Builds the concatenation. Documents must be non-empty with symbols in
  /// [kMinSymbol, 2^32).
  explicit ConcatText(const std::vector<Document>& docs);

  /// Total symbols: one separator per document plus the trailing sentinel,
  /// i.e. the number of suffix-array rows.
  uint64_t size() const { return symbols_.size(); }
  uint32_t num_docs() const { return static_cast<uint32_t>(starts_.size()); }
  /// Alphabet bound: max symbol value + 1 (>= 2).
  uint32_t sigma() const { return sigma_; }

  const std::vector<Symbol>& symbols() const { return symbols_; }
  uint64_t doc_start(uint32_t local_doc) const { return starts_[local_doc]; }
  /// Length excluding the separator.
  uint64_t doc_len(uint32_t local_doc) const { return lens_[local_doc]; }
  const std::vector<uint64_t>& starts() const { return starts_; }
  const std::vector<uint64_t>& lens() const { return lens_; }

 private:
  std::vector<Symbol> symbols_;
  std::vector<uint64_t> starts_;
  std::vector<uint64_t> lens_;
  uint32_t sigma_ = kMinSymbol;
};

}  // namespace dyndex

#endif  // DYNDEX_TEXT_CONCAT_TEXT_H_
