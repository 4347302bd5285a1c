#ifndef LIDI_COMMON_HASH_H_
#define LIDI_COMMON_HASH_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/slice.h"

namespace lidi {

/// 64-bit FNV-1a hash. Used for partition routing (Voldemort hash ring,
/// Espresso resource_id routing, Kafka key partitioning).
uint64_t Fnv1a64(Slice data);

/// 32-bit CRC (CRC-32/ISO-HDLC), byte-identical to zlib's crc32: the one
/// CRC-32 in the tree. Checksums Kafka message entries, binlog and
/// storage-engine records, Espresso etags and transport frame trailers. On
/// x86-64 CPUs with PCLMULQDQ and SSE4.1, a carry-less-multiply folding
/// kernel takes the whole 16-byte blocks of inputs of 64 bytes or more;
/// zlib's crc32_z takes the rest, and every input on other CPUs.
uint32_t Crc32(Slice data);
/// Incremental form: extends a running CRC with more data.
uint32_t Crc32Extend(uint32_t crc, Slice data);

/// MD5 digest (RFC 1321), 16 bytes. The Voldemort read-only store sorts its
/// index entries by MD5(key) and binary-searches them (paper Section II.B).
std::array<uint8_t, 16> Md5(Slice data);

/// MD5 digest rendered as 32 lowercase hex characters.
std::string Md5Hex(Slice data);

}  // namespace lidi

#endif  // LIDI_COMMON_HASH_H_
