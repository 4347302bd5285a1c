#include "common/blocks.h"

#include <algorithm>

namespace lidi {

std::string* ByteBlocks::BlockWithRoom(size_t size) {
  if (blocks_.empty() ||
      blocks_.back().capacity() - blocks_.back().size() < size) {
    blocks_.emplace_back().reserve(std::max(kBlockBytes, size));
    ++next_block_;
  }
  return &blocks_.back();
}

void ByteBlocks::DropBefore(const Span& span) {
  while (first_block_ != span.block) {
    blocks_.pop_front();
    ++first_block_;
  }
}

void ByteBlocks::DropFrom(const Span& span) {
  while (next_block_ - 1 != span.block) {
    blocks_.pop_back();
    --next_block_;
  }
  blocks_.back().resize(span.offset);
}

void ByteBlocks::Clear() {
  if (blocks_.empty()) return;
  DropBefore(Span{next_block_ - 1, 0, 0});
  if (blocks_.back().capacity() > kBlockBytes) {
    blocks_.clear();
    first_block_ = next_block_;
  } else {
    blocks_.back().clear();
  }
}

int64_t ByteBlocks::retained_bytes() const {
  int64_t bytes = 0;
  for (const std::string& block : blocks_) {
    bytes += static_cast<int64_t>(block.capacity());
  }
  return bytes;
}

}  // namespace lidi
