#include "common/compression.h"

#include <zlib.h>

#include <algorithm>

namespace lidi {

Status Compress(CompressionCodec codec, Slice input, std::string* output) {
  switch (codec) {
    case CompressionCodec::kNone:
      output->append(input.data(), input.size());
      return Status::OK();
    case CompressionCodec::kDeflate: {
      uLongf bound = compressBound(static_cast<uLong>(input.size()));
      const size_t old_size = output->size();
      output->resize(old_size + bound);
      const int rc = compress2(
          reinterpret_cast<Bytef*>(output->data() + old_size), &bound,
          reinterpret_cast<const Bytef*>(input.data()),
          static_cast<uLong>(input.size()), Z_DEFAULT_COMPRESSION);
      if (rc != Z_OK) return Status::Internal("zlib compress failed");
      output->resize(old_size + bound);
      return Status::OK();
    }
  }
  return Status::NotSupported("unknown codec");
}

Status Decompress(CompressionCodec codec, Slice input, std::string* output) {
  switch (codec) {
    case CompressionCodec::kNone:
      output->append(input.data(), input.size());
      return Status::OK();
    case CompressionCodec::kDeflate: {
      // One streaming inflate into a buffer that grows geometrically, but
      // never past the cap: one byte more than kMaxDecompressedBytes shows
      // the input inflates past it.
      z_stream stream{};
      if (inflateInit(&stream) != Z_OK) {
        return Status::Internal("zlib inflateInit failed");
      }
      stream.next_in =
          reinterpret_cast<Bytef*>(const_cast<char*>(input.data()));
      stream.avail_in = static_cast<uInt>(input.size());
      const size_t start = output->size();
      const size_t limit = kMaxDecompressedBytes + 1;
      size_t produced = 0;
      int rc = Z_OK;
      while (rc == Z_OK && produced < limit) {
        const size_t room = std::min(
            limit, std::max(produced * 2, input.size() * 4 + 64));
        output->resize(start + room);
        stream.next_out =
            reinterpret_cast<Bytef*>(output->data() + start + produced);
        stream.avail_out = static_cast<uInt>(room - produced);
        rc = inflate(&stream, Z_NO_FLUSH);
        produced = room - stream.avail_out;
      }
      inflateEnd(&stream);
      if (produced > kMaxDecompressedBytes) {
        output->resize(start);
        return Status::Corruption("compressed data inflates past " +
                                  std::to_string(kMaxDecompressedBytes) +
                                  " bytes");
      }
      if (rc != Z_STREAM_END) {
        output->resize(start);
        return Status::Corruption("zlib inflate failed");
      }
      output->resize(start + produced);
      return Status::OK();
    }
  }
  return Status::NotSupported("unknown codec");
}

}  // namespace lidi
