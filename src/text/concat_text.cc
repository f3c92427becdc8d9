#include "text/concat_text.h"

#include "util/check.h"

namespace dyndex {

std::vector<Symbol> SymbolsFromString(std::string_view s) {
  std::vector<Symbol> out;
  out.reserve(s.size());
  for (unsigned char c : s) out.push_back(static_cast<Symbol>(c) + kMinSymbol);
  return out;
}

std::string StringFromSymbols(const std::vector<Symbol>& symbols) {
  std::string out;
  out.reserve(symbols.size());
  for (Symbol s : symbols) {
    DYNDEX_CHECK(s >= kMinSymbol && s < kMinSymbol + 256);
    out.push_back(static_cast<char>(s - kMinSymbol));
  }
  return out;
}

ConcatText::ConcatText(const std::vector<Document>& docs) {
  uint64_t total = 1;  // the sentinel
  for (const Document& d : docs) total += d.symbols.size() + 1;
  symbols_.reserve(total);
  starts_.reserve(docs.size());
  lens_.reserve(docs.size());
  for (const Document& d : docs) {
    DYNDEX_CHECK(!d.symbols.empty());
    starts_.push_back(symbols_.size());
    lens_.push_back(d.symbols.size());
    for (Symbol s : d.symbols) {
      DYNDEX_CHECK(s >= kMinSymbol);
      if (s + 1 > sigma_) sigma_ = s + 1;
      symbols_.push_back(s);
    }
    symbols_.push_back(kSeparator);
  }
  symbols_.push_back(kSentinel);
}

}  // namespace dyndex
