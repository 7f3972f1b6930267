#ifndef KBFORGE_RDF_TERM_H_
#define KBFORGE_RDF_TERM_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/statusor.h"

namespace kb {
namespace rdf {

/// The kind of an RDF term. KBForge follows the SPO triple model the
/// tutorial describes in §2 "Digital Knowledge".
enum class TermKind : uint8_t {
  kIri = 0,      ///< A resource, e.g. <kb:Steve_Jobs>
  kLiteral = 1,  ///< A (possibly typed or language-tagged) literal
  kBlank = 2,    ///< A blank node, e.g. _:b42
};

/// An RDF term. Literals carry an optional language tag ("@en") or
/// datatype IRI (xsd:integer etc.), mutually exclusive per RDF 1.1.
class Term {
 public:
  Term() : kind_(TermKind::kIri) {}

  /// Factory for an IRI term; `iri` is stored without angle brackets.
  static Term Iri(std::string iri);

  /// Factory for a plain string literal.
  static Term Literal(std::string value);

  /// Factory for a language-tagged literal, e.g. ("Vienne", "fr").
  static Term LangLiteral(std::string value, std::string lang);

  /// Factory for a typed literal, e.g. ("42", xsd:integer IRI).
  static Term TypedLiteral(std::string value, std::string datatype_iri);

  /// Factory for an integer literal (xsd:integer).
  static Term IntLiteral(int64_t value);

  /// Factory for a blank node with the given local label.
  static Term Blank(std::string label);

  TermKind kind() const { return kind_; }
  bool is_iri() const { return kind_ == TermKind::kIri; }
  bool is_literal() const { return kind_ == TermKind::kLiteral; }
  bool is_blank() const { return kind_ == TermKind::kBlank; }

  /// IRI string, literal lexical form, or blank label depending on kind.
  const std::string& value() const { return value_; }

  /// Language tag (may be empty). Only meaningful for literals.
  const std::string& language() const { return language_; }

  /// Datatype IRI (may be empty = plain). Only meaningful for literals.
  const std::string& datatype() const { return datatype_; }

  /// N-Triples surface form: <iri>, "literal"@lang, "lit"^^<dt>, _:label.
  std::string ToString() const;

  /// Parses one N-Triples term. Inverse of ToString.
  static StatusOr<Term> Parse(std::string_view text);

  bool operator==(const Term& o) const {
    return kind_ == o.kind_ && value_ == o.value_ &&
           language_ == o.language_ && datatype_ == o.datatype_;
  }
  bool operator!=(const Term& o) const { return !(*this == o); }
  bool operator<(const Term& o) const;

 private:
  TermKind kind_;
  std::string value_;
  std::string language_;
  std::string datatype_;
};

/// Kind codes of the term hash and of the .kbsnap term records.
/// Literals split by their annotation, so the code alone says what a
/// term's `extra` part (language tag or datatype IRI) means.
enum TermCode : uint8_t {
  kCodeIri = 0,
  kCodePlainLiteral = 1,
  kCodeLangLiteral = 2,
  kCodeTypedLiteral = 3,
  kCodeBlank = 4,
};
inline constexpr uint8_t kMaxTermCode = kCodeBlank;

/// The code of `term` (a literal with a language tag is a lang literal
/// even if it also names a datatype).
uint8_t KindCode(const Term& term);

/// Content hash of a term: chained FNV-1a over the kind code, the value
/// bytes, a zero separator and the extra bytes. It keys the Dictionary
/// overlay and the .kbsnap dict index, so changing it changes the file
/// format. FNV-1a is byte-serial, so hashing the value in two pieces
/// `head`, `tail` gives the hash of the joined value.
uint64_t HashTermParts(uint8_t code, std::string_view head,
                       std::string_view tail, std::string_view extra);
inline uint64_t HashTermParts(uint8_t code, std::string_view value,
                              std::string_view extra) {
  return HashTermParts(code, value, std::string_view(), extra);
}

/// A term named by its parts, viewing bytes it does not own: the value
/// is `head` + `tail` (an IRI split into namespace and local name, or
/// the whole value and an empty tail), and `hash` is HashTermParts of
/// the parts, computed once per lookup so that every table probed with
/// the key shares it.
struct TermKey {
  uint8_t code = kCodeIri;
  std::string_view head;
  std::string_view tail;
  std::string_view extra;
  uint64_t hash = 0;

  /// Views `term`'s strings; `term` must outlive the key.
  static TermKey Of(const Term& term);
  static TermKey Iri(std::string_view ns, std::string_view local);

  /// True when (code, value, extra) spells this key's term.
  bool Matches(uint8_t other_code, std::string_view value,
               std::string_view other_extra) const;
  bool Matches(const Term& term) const;

  /// Materializes the term (joins the value parts).
  Term ToTerm() const;
};

}  // namespace rdf
}  // namespace kb

#endif  // KBFORGE_RDF_TERM_H_
