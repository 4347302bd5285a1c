#include "kafka/message.h"

#include "common/coding.h"
#include "common/hash.h"

namespace lidi::kafka {

void AppendMessageEntry(Slice payload, CompressionCodec codec,
                        std::string* out) {
  PutFixed32(out, static_cast<uint32_t>(payload.size() + 5));
  out->push_back(static_cast<char>(codec));
  PutFixed32(out, Crc32(payload));
  out->append(payload.data(), payload.size());
}

void MessageSetBuilder::Add(Slice payload) {
  AppendMessageEntry(payload, CompressionCodec::kNone, &plain_);
  ++count_;
}

std::string MessageSetBuilder::Build() {
  std::string out;
  if (codec_ == CompressionCodec::kNone) {
    out = std::move(plain_);
  } else {
    std::string compressed;
    Status s = Compress(codec_, plain_, &compressed);
    if (s.ok()) {
      AppendMessageEntry(compressed, codec_, &out);
    } else {
      // A failed compression must not ship a truncated deflate stream as if
      // it were the batch. plain_ already holds well-formed entries, so the
      // uncompressed form is wire-compatible — just bigger.
      out = std::move(plain_);
    }
  }
  plain_.clear();
  count_ = 0;
  return out;
}

namespace {

/// Parses one entry header at the front of *data. Returns false when the
/// range holds no complete entry. On success strips the entry from *data.
bool TakeEntry(Slice* data, uint8_t* attributes, Slice* payload,
               int64_t* entry_size, Status* status) {
  if (data->size() < 4) return false;
  const uint32_t length = DecodeFixed32(data->data());
  if (data->size() < 4 + static_cast<size_t>(length)) return false;
  if (length < 5) {
    *status = Status::Corruption("message entry shorter than header");
    return false;
  }
  *attributes = static_cast<uint8_t>((*data)[4]);
  const uint32_t crc = DecodeFixed32(data->data() + 5);
  *payload = Slice(data->data() + 9, length - 5);
  if (Crc32(*payload) != crc) {
    *status = Status::Corruption("message crc mismatch");
    return false;
  }
  *entry_size = 4 + static_cast<int64_t>(length);
  data->RemovePrefix(static_cast<size_t>(*entry_size));
  return true;
}

}  // namespace

MessageSetIterator::MessageSetIterator(Slice data, int64_t base_offset)
    : data_(data), offset_(base_offset), next_fetch_offset_(base_offset) {}

bool MessageSetIterator::Next(Message* message) {
  MessageView view;
  if (!NextView(&view)) return false;
  message->payload.assign(view.payload.data(), view.payload.size());
  message->offset = view.offset;
  return true;
}

bool MessageSetIterator::NextView(MessageView* view) {
  for (;;) {
    // Drain the current decompressed wrapper first.
    if (inner_pos_ < inner_buffer_.size()) {
      Slice inner(inner_buffer_.data() + inner_pos_,
                  inner_buffer_.size() - inner_pos_);
      uint8_t attributes;
      Slice payload;
      int64_t entry_size;
      Status entry_status;
      if (TakeEntry(&inner, &attributes, &payload, &entry_size,
                    &entry_status)) {
        inner_pos_ = inner_buffer_.size() - inner.size();
        view->payload = payload;  // into inner_buffer_; valid until next call
        view->offset = inner_wrapper_offset_;
        return true;
      }
      if (entry_status.ok() && !inner.empty()) {
        // A wrapper is consumed whole, so its inner set must end at an
        // entry boundary too: a partial inner entry is damage, not a tail.
        entry_status = Status::Corruption(
            "compressed message set ends in a partial entry");
      }
      if (!entry_status.ok()) {
        status_ = entry_status;
        return false;
      }
      inner_buffer_.clear();
      inner_pos_ = 0;
    }

    uint8_t attributes;
    Slice payload;
    int64_t entry_size;
    Status entry_status;
    if (!TakeEntry(&data_, &attributes, &payload, &entry_size,
                   &entry_status)) {
      if (!entry_status.ok()) status_ = entry_status;
      return false;  // end of range (or partial trailing entry)
    }
    const int64_t entry_offset = offset_;
    offset_ += entry_size;
    next_fetch_offset_ = offset_;
    const CompressionCodec codec = static_cast<CompressionCodec>(attributes);
    if (codec == CompressionCodec::kNone) {
      view->payload = payload;  // zero-copy: points into the iterated range
      view->offset = entry_offset;
      return true;
    }
    // Wrapper entry: decompress and iterate its inner messages. The CRC
    // does not cover the attributes byte, so an unknown codec is damage.
    inner_buffer_.clear();
    inner_pos_ = 0;
    Status s = codec == CompressionCodec::kDeflate
                   ? Decompress(codec, payload, &inner_buffer_)
                   : Status::Corruption("message attributes name codec " +
                                        std::to_string(attributes));
    if (!s.ok()) {
      status_ = s;
      return false;
    }
    inner_wrapper_offset_ = entry_offset;
  }
}

Result<int64_t> CountMessages(Slice data) {
  MessageSetIterator it(data, 0);
  MessageView view;
  int64_t count = 0;
  while (it.NextView(&view)) ++count;
  if (!it.status().ok()) return it.status();
  if (it.next_fetch_offset() != static_cast<int64_t>(data.size())) {
    return Status::Corruption(
        "message set ends in a partial entry at byte " +
        std::to_string(it.next_fetch_offset()) + " of " +
        std::to_string(data.size()));
  }
  return count;
}

}  // namespace lidi::kafka
