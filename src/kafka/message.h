#ifndef LIDI_KAFKA_MESSAGE_H_
#define LIDI_KAFKA_MESSAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/compression.h"
#include "common/slice.h"
#include "common/status.h"

namespace lidi::kafka {

/// A Kafka message is just a payload of bytes (paper Section V.A); the user
/// chooses the serialization. On the wire and in the log each message entry
/// is:
///   fixed32 length      (bytes after this field)
///   uint8   attributes  (compression codec of the payload)
///   fixed32 crc         (over the payload)
///   payload
///
/// Messages have no explicit id: a message is addressed by its logical byte
/// offset in the partition log, and the id of the next message is the
/// current id plus the current entry's length (Section V.B).
struct Message {
  std::string payload;
  /// Log offset of the entry that carried this message (the wrapper entry
  /// for compressed sets).
  int64_t offset = 0;
};

/// Zero-copy view of one message: the payload Slice points into the
/// iterated byte range (uncompressed entries) or into the iterator's
/// decompression buffer (compressed wrappers). Valid until the iterator's
/// next Next/NextView call or destruction — copy into a Message to keep it.
struct MessageView {
  Slice payload;
  int64_t offset = 0;
};

/// Fixed per-entry overhead: length (4) + attributes (1) + crc (4).
constexpr int64_t kMessageOverheadBytes = 9;

/// Serialized size of one entry carrying `payload_size` bytes.
inline int64_t MessageEntrySize(int64_t payload_size) {
  return kMessageOverheadBytes + payload_size;
}

/// Appends one message entry (uncompressed attributes) to *out.
void AppendMessageEntry(Slice payload, CompressionCodec codec,
                        std::string* out);

/// Builds message sets: "the producer can send a set of messages in a single
/// publish request" (V.A). With a codec, the whole set is compressed into a
/// single wrapper entry (V.B: producers compress sets; brokers store them
/// compressed; consumers decompress).
class MessageSetBuilder {
 public:
  explicit MessageSetBuilder(CompressionCodec codec = CompressionCodec::kNone)
      : codec_(codec) {}

  void Add(Slice payload);
  int count() const { return count_; }
  bool empty() const { return count_ == 0; }
  /// Serialized (and possibly compressed) message-set bytes. Resets the
  /// builder.
  std::string Build();

 private:
  CompressionCodec codec_;
  std::string plain_;  // concatenated uncompressed entries
  int count_ = 0;
};

/// Iterates the messages of a message-set byte range, transparently
/// expanding compressed wrapper entries. `base_offset` is the log offset of
/// the first byte of `data`.
///
/// next_fetch_offset() is the offset a consumer should request next: it
/// advances only at outer-entry boundaries, so a compressed wrapper is
/// consumed atomically.
class MessageSetIterator {
 public:
  MessageSetIterator(Slice data, int64_t base_offset);

  /// Advances to the next message. Returns false at the end of the range
  /// (also when only a partial trailing entry remains). Corrupt entries
  /// surface through status().
  bool Next(Message* message);

  /// Zero-copy variant of Next: no payload bytes are copied. The view is
  /// invalidated by the next Next/NextView call (compressed wrappers reuse
  /// the decompression buffer); the iterated range must stay alive — pin it
  /// (PinnedSlice) when it comes from the zero-copy fetch path.
  bool NextView(MessageView* view);

  int64_t next_fetch_offset() const { return next_fetch_offset_; }
  const Status& status() const { return status_; }

 private:
  Slice data_;
  int64_t offset_;             // log offset of the next unread outer byte
  int64_t next_fetch_offset_;  // offset after the last fully consumed entry
  Status status_;
  // Decompressed inner entries of the wrapper currently being iterated.
  std::string inner_buffer_;
  size_t inner_pos_ = 0;
  int64_t inner_wrapper_offset_ = 0;
};

/// Counts messages (after decompression) in a message-set byte range, which
/// must hold whole entries only: a trailing partial entry is Corruption, so
/// a torn produce request is rejected instead of appended.
Result<int64_t> CountMessages(Slice data);

}  // namespace lidi::kafka

#endif  // LIDI_KAFKA_MESSAGE_H_
