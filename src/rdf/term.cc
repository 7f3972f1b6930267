#include "rdf/term.h"

#include <tuple>

#include "util/hash.h"
#include "util/string_util.h"

namespace kb {
namespace rdf {

namespace {

constexpr char kXsdInteger[] = "http://www.w3.org/2001/XMLSchema#integer";

std::string_view ExtraOf(const Term& term, uint8_t code) {
  if (code == kCodeLangLiteral) return term.language();
  if (code == kCodeTypedLiteral) return term.datatype();
  return std::string_view();
}

}  // namespace

Term Term::Iri(std::string iri) {
  Term t;
  t.kind_ = TermKind::kIri;
  t.value_ = std::move(iri);
  return t;
}

Term Term::Literal(std::string value) {
  Term t;
  t.kind_ = TermKind::kLiteral;
  t.value_ = std::move(value);
  return t;
}

Term Term::LangLiteral(std::string value, std::string lang) {
  Term t = Literal(std::move(value));
  t.language_ = std::move(lang);
  return t;
}

Term Term::TypedLiteral(std::string value, std::string datatype_iri) {
  Term t = Literal(std::move(value));
  t.datatype_ = std::move(datatype_iri);
  return t;
}

Term Term::IntLiteral(int64_t value) {
  return TypedLiteral(std::to_string(value), kXsdInteger);
}

Term Term::Blank(std::string label) {
  Term t;
  t.kind_ = TermKind::kBlank;
  t.value_ = std::move(label);
  return t;
}

std::string Term::ToString() const {
  switch (kind_) {
    case TermKind::kIri:
      return "<" + value_ + ">";
    case TermKind::kBlank:
      return "_:" + value_;
    case TermKind::kLiteral: {
      std::string out = "\"" + EscapeNTriples(value_) + "\"";
      if (!language_.empty()) {
        out += "@" + language_;
      } else if (!datatype_.empty()) {
        out += "^^<" + datatype_ + ">";
      }
      return out;
    }
  }
  return "";
}

StatusOr<Term> Term::Parse(std::string_view text) {
  text = StripWhitespace(text);
  if (text.empty()) return Status::InvalidArgument("empty term");
  if (text.front() == '<') {
    if (text.back() != '>' || text.size() < 2) {
      return Status::InvalidArgument("unterminated IRI: " + std::string(text));
    }
    return Iri(std::string(text.substr(1, text.size() - 2)));
  }
  if (StartsWith(text, "_:")) {
    return Blank(std::string(text.substr(2)));
  }
  if (text.front() == '"') {
    // Find the closing unescaped quote.
    size_t end = std::string_view::npos;
    for (size_t i = 1; i < text.size(); ++i) {
      if (text[i] == '\\') {
        ++i;  // skip escaped char
        continue;
      }
      if (text[i] == '"') {
        end = i;
        break;
      }
    }
    if (end == std::string_view::npos) {
      return Status::InvalidArgument("unterminated literal: " +
                                     std::string(text));
    }
    std::string value = UnescapeNTriples(text.substr(1, end - 1));
    std::string_view rest = text.substr(end + 1);
    if (rest.empty()) return Literal(std::move(value));
    if (rest.front() == '@') {
      return LangLiteral(std::move(value), std::string(rest.substr(1)));
    }
    if (StartsWith(rest, "^^<") && rest.back() == '>') {
      return TypedLiteral(std::move(value),
                          std::string(rest.substr(3, rest.size() - 4)));
    }
    return Status::InvalidArgument("bad literal suffix: " + std::string(text));
  }
  return Status::InvalidArgument("unrecognized term: " + std::string(text));
}

bool Term::operator<(const Term& o) const {
  return std::tie(kind_, value_, language_, datatype_) <
         std::tie(o.kind_, o.value_, o.language_, o.datatype_);
}

uint8_t KindCode(const Term& term) {
  switch (term.kind()) {
    case TermKind::kIri:
      return kCodeIri;
    case TermKind::kBlank:
      return kCodeBlank;
    case TermKind::kLiteral:
      if (!term.language().empty()) return kCodeLangLiteral;
      if (!term.datatype().empty()) return kCodeTypedLiteral;
      return kCodePlainLiteral;
  }
  return kCodeIri;
}

uint64_t HashTermParts(uint8_t code, std::string_view head,
                       std::string_view tail, std::string_view extra) {
  uint64_t h = Hash64(&code, 1);
  h = Hash64(head.data(), head.size(), h);
  h = Hash64(tail.data(), tail.size(), h);
  // Separator so ("ab","c") and ("a","bc") can't collide structurally.
  const char sep = '\0';
  h = Hash64(&sep, 1, h);
  h = Hash64(extra.data(), extra.size(), h);
  return h;
}

TermKey TermKey::Of(const Term& term) {
  TermKey key;
  key.code = KindCode(term);
  key.head = term.value();
  key.extra = ExtraOf(term, key.code);
  key.hash = HashTermParts(key.code, key.head, key.extra);
  return key;
}

TermKey TermKey::Iri(std::string_view ns, std::string_view local) {
  TermKey key;
  key.code = kCodeIri;
  key.head = ns;
  key.tail = local;
  key.hash = HashTermParts(kCodeIri, ns, local, std::string_view());
  return key;
}

bool TermKey::Matches(uint8_t other_code, std::string_view value,
                      std::string_view other_extra) const {
  return other_code == code && value.size() == head.size() + tail.size() &&
         value.compare(0, head.size(), head) == 0 &&
         value.compare(head.size(), tail.size(), tail) == 0 &&
         other_extra == extra;
}

bool TermKey::Matches(const Term& term) const {
  const uint8_t term_code = KindCode(term);
  return Matches(term_code, term.value(), ExtraOf(term, term_code));
}

Term TermKey::ToTerm() const {
  std::string value;
  value.reserve(head.size() + tail.size());
  value.append(head);
  value.append(tail);
  switch (code) {
    case kCodeBlank:
      return Term::Blank(std::move(value));
    case kCodePlainLiteral:
      return Term::Literal(std::move(value));
    case kCodeLangLiteral:
      return Term::LangLiteral(std::move(value), std::string(extra));
    case kCodeTypedLiteral:
      return Term::TypedLiteral(std::move(value), std::string(extra));
    default:
      return Term::Iri(std::move(value));
  }
}

}  // namespace rdf
}  // namespace kb
