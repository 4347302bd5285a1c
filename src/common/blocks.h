#ifndef LIDI_COMMON_BLOCKS_H_
#define LIDI_COMMON_BLOCKS_H_

#include <cassert>
#include <cstdint>
#include <deque>
#include <string>

#include "common/slice.h"

namespace lidi {

/// Byte ranges appended into fixed-size blocks that never reallocate, so
/// the bytes of earlier appends stay where they are while later ones land.
/// Each append lands whole in one block; one larger than a block gets a
/// block of its own. The storage behind databus::EventBuffer and
/// sqlstore::Binlog.
///
/// Not synchronized: the owner locks around every call. A reader may keep
/// reading a Slice from Read without the owner's lock while appends go on,
/// since an append writes only past every byte handed out before it.
class ByteBlocks {
 public:
  /// Bytes per block.
  static constexpr size_t kBlockBytes = 64 << 10;

  /// Where one append's bytes lie. Block ids count modulo 2^32; fewer than
  /// that many blocks are ever live at once.
  struct Span {
    uint32_t block;
    uint32_t offset;
    uint32_t size;
  };

  /// Appends `size` bytes, under 4 GiB: `write` appends exactly that many to
  /// the string it is passed.
  template <typename Write>
  Span Append(size_t size, const Write& write) {
    std::string* block = BlockWithRoom(size);
    const size_t offset = block->size();
    write(block);
    assert(block->size() - offset == size);
    return Span{next_block_ - 1, static_cast<uint32_t>(offset),
                static_cast<uint32_t>(size)};
  }

  /// The bytes of `span`, which must not have been dropped.
  Slice Read(const Span& span) const {
    return Slice(blocks_[static_cast<uint32_t>(span.block - first_block_)]
                         .data() +
                     span.offset,
                 span.size);
  }

  /// Frees the blocks before `span`'s.
  void DropBefore(const Span& span);
  /// Drops `span`'s bytes and every byte appended after them.
  void DropFrom(const Span& span);
  /// Drops every byte. The newest block is kept, emptied, for the next
  /// append, unless it grew past kBlockBytes for one large append.
  void Clear();

  /// Bytes the blocks hold.
  int64_t retained_bytes() const;

 private:
  /// The newest block if it has `size` bytes free, else a new one.
  std::string* BlockWithRoom(size_t size);

  /// Each reserved once, so appending never moves the bytes before.
  std::deque<std::string> blocks_;
  uint32_t first_block_ = 0;  // id of blocks_.front()
  uint32_t next_block_ = 0;   // id the next new block gets
};

}  // namespace lidi

#endif  // LIDI_COMMON_BLOCKS_H_
