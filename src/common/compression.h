#ifndef LIDI_COMMON_COMPRESSION_H_
#define LIDI_COMMON_COMPRESSION_H_

#include <cstddef>
#include <string>

#include "common/slice.h"
#include "common/status.h"

namespace lidi {

/// Compression codecs for Kafka message sets (paper Section V.B: producers
/// compress batches; ~2/3 of network bandwidth saved in practice).
enum class CompressionCodec : uint8_t {
  kNone = 0,
  kDeflate = 1,  // zlib deflate (the paper's GZIP-class codec)
};

/// Compresses `input` with the given codec, appending to *output.
Status Compress(CompressionCodec codec, Slice input, std::string* output);

/// The most Decompress inflates one input to: 16 MiB, the transport's frame
/// cap (net::kDefaultMaxFrameBytes), which is the largest uncompressed
/// message set one produce can carry. Produce validation and Kafka segment
/// recovery share it, so recovery never drops an entry a broker accepted.
inline constexpr size_t kMaxDecompressedBytes = 16u << 20;

/// Decompresses `input` produced by Compress with the same codec, appending
/// to *output. Corruption if the input does not decode, or if it would
/// inflate past kMaxDecompressedBytes (nothing is appended then).
Status Decompress(CompressionCodec codec, Slice input, std::string* output);

}  // namespace lidi

#endif  // LIDI_COMMON_COMPRESSION_H_
