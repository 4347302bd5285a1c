// Zero-copy log concurrency: concurrent appenders, lock-free pinned
// readers, and the retention janitor all hammer one PartitionLog. Readers
// decode (CRC-checked) straight out of PinnedSlices and keep a stash of
// them alive across segment deletions — under -DLIDI_SANITIZE=thread or
// address this proves the refcounted chunks never go away under a reader
// and the snapshot/frontier publication protocol is race-free. The
// file-backed twin runs the same race on a log whose rolled segments drop
// their chunks and are read back from their files, which the janitor
// unlinks under the readers.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/buffer.h"
#include "common/clock.h"
#include "io/file.h"
#include "kafka/log.h"
#include "kafka/message.h"

namespace lidi::kafka {
namespace {

std::string NumberedSet(int writer, int seq) {
  MessageSetBuilder builder;
  builder.Add("w" + std::to_string(writer) + ":" + std::to_string(seq) +
              ":" + std::string(40, 'x'));
  return builder.Build();
}

// Decodes every entry in `pinned`, returning the count; CRC mismatches or
// torn entries fail the test. Reading freed memory is the sanitizers' job.
int64_t DecodeAll(const PinnedSlice& pinned, int64_t offset) {
  MessageSetIterator it(pinned.slice(), offset);
  MessageView view;
  int64_t count = 0;
  while (it.NextView(&view)) {
    EXPECT_EQ(view.payload[0], 'w');
    ++count;
  }
  EXPECT_TRUE(it.status().ok()) << it.status().ToString();
  return count;
}

// Appenders, pinned readers and the retention janitor share `options`'s
// log; every read either decodes cleanly or finds its offset expired.
void RunAppendersReadersAndJanitor(LogOptions options) {
  ManualClock clock;
  options.segment_bytes = 2048;        // roll often
  options.flush_interval_messages = 4; // publish often
  options.flush_interval_ms = 1;
  options.retention_ms = 20;           // janitor actively deletes
  PartitionLog log(options, &clock);

  constexpr int kWriters = 2;
  constexpr int kReaders = 3;
  constexpr int kAppendsPerWriter = 600;
  std::atomic<bool> stop_janitor{false};
  std::atomic<bool> done{false};

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&log, w] {
      for (int i = 0; i < kAppendsPerWriter; ++i) {
        const std::string set = NumberedSet(w, i);
        log.Append(set, 1);
      }
    });
  }

  // The janitor: advances time past the retention SLA and collects expired
  // segments while appends and reads are in flight.
  std::thread janitor([&log, &clock, &stop_janitor] {
    while (!stop_janitor.load()) {
      clock.AdvanceMillis(25);
      log.DeleteExpiredSegments();
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> readers;
  std::vector<int64_t> decoded(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&log, &done, &decoded, r] {
      // Each reader stashes pinned slices and re-validates the whole stash
      // every pass — long after the janitor dropped their segments.
      std::vector<std::pair<int64_t, PinnedSlice>> stash;
      while (true) {
        const bool final_pass = done.load();
        int64_t offset = log.start_offset();
        while (true) {
          auto pinned = log.ReadPinned(offset, 512);
          if (!pinned.ok()) {
            // The segment expired between picking the offset and reading:
            // restart from the (new) head next pass.
            ASSERT_TRUE(pinned.status().IsNotFound())
                << pinned.status().ToString();
            break;
          }
          if (pinned.value().empty()) break;  // caught up with the frontier
          decoded[r] += DecodeAll(pinned.value(), offset);
          if (stash.size() < 64) stash.emplace_back(offset, pinned.value());
          offset += static_cast<int64_t>(pinned.value().size());
        }
        for (const auto& [stash_offset, slice] : stash) {
          DecodeAll(slice, stash_offset);  // still valid, still CRC-clean
        }
        if (final_pass) break;
        std::this_thread::yield();
      }
    });
  }

  for (auto& t : writers) t.join();
  stop_janitor.store(true);
  janitor.join();
  // With the janitor quiet, a fresh flushed batch guarantees every reader's
  // final pass finds decodable data (the stress phase may have expired
  // everything a reader ever looked at).
  for (int i = 0; i < 8; ++i) log.Append(NumberedSet(9, i), 1);
  log.Flush();
  done.store(true);
  for (auto& t : readers) t.join();

  // Every reader made progress and the log's invariants held up.
  for (int r = 0; r < kReaders; ++r) EXPECT_GT(decoded[r], 0) << "reader " << r;
  EXPECT_LE(log.start_offset(), log.flushed_end_offset());
  EXPECT_LE(log.flushed_end_offset(), log.end_offset());
}

TEST(LogConcurrencyTest, AppendersReadersAndJanitorShareOneLog) {
  RunAppendersReadersAndJanitor(LogOptions{});
}

// Readers of rolled segments race segment rolls, chunk release and the
// janitor's unlinks: a read whose file vanished reports NotFound.
TEST(LogConcurrencyTest, AppendersReadersAndJanitorShareOneFileBackedLog) {
  auto fs = io::NewMemFs();
  LogOptions options;
  options.data_dir = "/p0";
  options.fs = fs.get();
  RunAppendersReadersAndJanitor(options);
}

TEST(LogConcurrencyTest, PinnedSliceOutlivesRetentionDeterministic) {
  ManualClock clock;
  LogOptions options;
  options.segment_bytes = 256;
  options.flush_interval_messages = 1;
  options.retention_ms = 10;
  PartitionLog log(options, &clock);

  for (int i = 0; i < 8; ++i) log.Append(NumberedSet(0, i), 1);
  auto pinned = log.ReadPinned(0, 1 << 20);
  ASSERT_TRUE(pinned.ok());
  const int64_t entries = DecodeAll(pinned.value(), 0);
  ASSERT_GT(entries, 0);

  // Expire everything. The read-at-0 path dies, the pinned bytes do not.
  clock.AdvanceMillis(1000);
  EXPECT_GT(log.DeleteExpiredSegments(), 0);
  EXPECT_TRUE(log.ReadPinned(0, 1 << 20).status().IsNotFound());
  EXPECT_EQ(DecodeAll(pinned.value(), 0), entries);
}

}  // namespace
}  // namespace lidi::kafka
