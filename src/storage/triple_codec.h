#ifndef KBFORGE_STORAGE_TRIPLE_CODEC_H_
#define KBFORGE_STORAGE_TRIPLE_CODEC_H_

#include <string>

#include "rdf/triple.h"
#include "util/slice.h"

namespace kb {
namespace storage {

/// Encodes dictionary-encoded triples as KVStore keys whose bytewise
/// order equals SPO order (big-endian fixed32 components), so that
/// range scans over the store enumerate a subject's facts contiguously.
/// A one-byte permutation tag prefixes the key, letting one store hold
/// several collation orders side by side (the on-disk analogue of the
/// in-memory SPO/POS/OSP indexes).
enum class TripleOrder : char { kSpo = 'S', kPos = 'P', kOsp = 'O' };

/// Encodes a triple into a 13-byte key in the given collation order.
std::string EncodeTripleKey(TripleOrder order, const rdf::Triple& t);

/// Decodes a key produced by EncodeTripleKey. Returns false on
/// malformed input.
bool DecodeTripleKey(const Slice& key, TripleOrder* order, rdf::Triple* t);

}  // namespace storage
}  // namespace kb

#endif  // KBFORGE_STORAGE_TRIPLE_CODEC_H_
