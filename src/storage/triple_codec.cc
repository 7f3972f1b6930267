#include "storage/triple_codec.h"

namespace kb {
namespace storage {

namespace {
void AppendBigEndian32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>((v >> 24) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>(v & 0xff));
}

bool ReadBigEndian32(const Slice& s, size_t offset, uint32_t* v) {
  if (offset + 4 > s.size()) return false;
  const unsigned char* p =
      reinterpret_cast<const unsigned char*>(s.data() + offset);
  *v = (static_cast<uint32_t>(p[0]) << 24) |
       (static_cast<uint32_t>(p[1]) << 16) |
       (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
  return true;
}

void Permute(TripleOrder order, const rdf::Triple& t, uint32_t out[3]) {
  switch (order) {
    case TripleOrder::kSpo:
      out[0] = t.s;
      out[1] = t.p;
      out[2] = t.o;
      break;
    case TripleOrder::kPos:
      out[0] = t.p;
      out[1] = t.o;
      out[2] = t.s;
      break;
    case TripleOrder::kOsp:
      out[0] = t.o;
      out[1] = t.s;
      out[2] = t.p;
      break;
  }
}

rdf::Triple Unpermute(TripleOrder order, const uint32_t in[3]) {
  switch (order) {
    case TripleOrder::kSpo:
      return rdf::Triple(in[0], in[1], in[2]);
    case TripleOrder::kPos:
      return rdf::Triple(in[2], in[0], in[1]);
    case TripleOrder::kOsp:
      return rdf::Triple(in[1], in[2], in[0]);
  }
  return rdf::Triple();
}
}  // namespace

std::string EncodeTripleKey(TripleOrder order, const rdf::Triple& t) {
  std::string key;
  key.reserve(13);
  key.push_back(static_cast<char>(order));
  uint32_t parts[3];
  Permute(order, t, parts);
  for (uint32_t part : parts) AppendBigEndian32(&key, part);
  return key;
}

bool DecodeTripleKey(const Slice& key, TripleOrder* order, rdf::Triple* t) {
  if (key.size() != 13) return false;
  char tag = key[0];
  if (tag != 'S' && tag != 'P' && tag != 'O') return false;
  *order = static_cast<TripleOrder>(tag);
  uint32_t parts[3];
  for (int i = 0; i < 3; ++i) {
    if (!ReadBigEndian32(key, 1 + 4 * static_cast<size_t>(i), &parts[i])) {
      return false;
    }
  }
  *t = Unpermute(*order, parts);
  return true;
}

}  // namespace storage
}  // namespace kb
