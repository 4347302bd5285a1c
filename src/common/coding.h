#ifndef LIDI_COMMON_CODING_H_
#define LIDI_COMMON_CODING_H_

#include <cstdint>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace lidi {

/// Binary encode/decode primitives shared by the Avro codec, the Kafka log
/// format, the Databus event format and the storage engines.
///
/// Fixed-width integers are little-endian. Varints use the LEB128 scheme;
/// signed varints are zig-zag encoded (as in Avro's binary encoding).

void PutFixed32(std::string* dst, uint32_t v);
void PutFixed64(std::string* dst, uint64_t v);
void PutVarint64(std::string* dst, uint64_t v);
/// Zig-zag encoded signed varint (Avro `long` wire format).
void PutZigZag64(std::string* dst, int64_t v);
/// Length-prefixed byte string: varint length, then bytes.
void PutLengthPrefixed(std::string* dst, Slice value);
/// Bytes PutVarint64 writes for v.
int VarintLength(uint64_t v);
/// Bytes PutZigZag64 writes for v.
int ZigZagLength(int64_t v);

/// Each Get* consumes bytes from the front of *input on success. On failure
/// (truncated input) returns false and leaves *input unspecified.
bool GetFixed32(Slice* input, uint32_t* v);
bool GetFixed64(Slice* input, uint64_t* v);
bool GetVarint64(Slice* input, uint64_t* v);
bool GetZigZag64(Slice* input, int64_t* v);
bool GetLengthPrefixed(Slice* input, Slice* value);

/// Encodes/decodes a fixed32/64 at a raw pointer (caller guarantees bounds).
void EncodeFixed32(char* p, uint32_t v);
uint32_t DecodeFixed32(const char* p);
uint64_t DecodeFixed64(const char* p);

}  // namespace lidi

#endif  // LIDI_COMMON_CODING_H_
