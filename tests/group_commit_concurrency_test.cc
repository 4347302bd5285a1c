// Concurrency tests for the group-commit path (src/io/group_commit.h and
// its kafka::PartitionLog / sqlstore::Binlog owners), built to run under
// TSan (scripts/check.sh runs every test matching 'concurrency' with
// -fsanitize=thread).
//
// The batching claim needs real overlap to test: a SlowSyncFs decorator
// stretches every Sync() so that while the leader is "at the disk", other
// appender threads stage their records and park — the instruments then must
// show fewer leader syncs than appends and a nonzero piggyback count.
// The crash-arm test points FaultFs at the same schedule shape and checks
// the only promise that matters: an acknowledged append survives a power
// loss that lands mid-batch, between a leader's sync and a waiter's wakeup.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/sync.h"
#include "io/fault_fs.h"
#include "io/file.h"
#include "kafka/log.h"
#include "kafka/message.h"
#include "obs/metrics.h"
#include "sqlstore/database.h"

#include "binlog_test_util.h"

namespace lidi {
namespace {

/// WritableFile decorator: delegates everything, stretches Sync().
class SlowSyncFile : public io::WritableFile {
 public:
  explicit SlowSyncFile(std::unique_ptr<io::WritableFile> base)
      : base_(std::move(base)) {}
  Status Append(Slice data, int64_t* accepted) override {
    return base_->Append(data, accepted);
  }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

 private:
  std::unique_ptr<io::WritableFile> base_;
};

/// Fs decorator that makes fdatasync slow (and nothing else): the window in
/// which group-commit batching happens, stretched wide enough to observe.
class SlowSyncFs : public io::Fs {
 public:
  explicit SlowSyncFs(io::Fs* base) : base_(base) {}
  Result<std::unique_ptr<io::WritableFile>> OpenAppend(
      const std::string& path) override {
    auto file = base_->OpenAppend(path);
    if (!file.ok()) return file.status();
    return std::unique_ptr<io::WritableFile>(
        new SlowSyncFile(std::move(file.value())));
  }
  Status ReadFile(const std::string& path, std::string* out) override {
    return base_->ReadFile(path, out);
  }
  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status CreateDirs(const std::string& path) override {
    return base_->CreateDirs(path);
  }
  Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, int64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return base_->SyncDir(path);
  }
  Result<int64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  io::Fs* const base_;
};

std::string OneSet(const std::string& payload) {
  kafka::MessageSetBuilder builder;
  builder.Add(payload);
  return builder.Build();
}

// Many appenders, one syncer: every AppendDurable is acknowledged durable,
// yet the leader-sync count stays well below the append count because
// parked waiters piggyback on covering syncs.
TEST(GroupCommitConcurrencyTest, ManyAppendersShareLeaderSyncs) {
  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 40;
  auto mem = io::NewMemFs();
  SlowSyncFs slow(mem.get());
  obs::MetricsRegistry metrics;

  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &slow;
  opts.metrics = &metrics;
  opts.flush_interval_messages = 1;
  opts.flush_interval_ms = 1 << 30;
  opts.sync = io::SyncPolicy::kAlways;
  opts.group_commit = true;
  ManualClock clock;
  kafka::PartitionLog log(opts, &clock);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&log, &failures, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const std::string payload =
            "t" + std::to_string(t) + "-" + std::to_string(i);
        if (!log.AppendDurable(OneSet(payload), 1).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr int kTotal = kThreads * kAppendsPerThread;
  // Everything acknowledged is inside the durable frontier.
  EXPECT_EQ(log.durable_end_offset(), log.flushed_end_offset());

  const obs::Labels labels{{"layer", "kafka.log"}};
  obs::RegistrySnapshot snap = metrics.Snapshot();
  const int64_t leader_syncs =
      snap.Value("io.group_commit.leader_syncs", labels);
  const int64_t piggybacked =
      snap.Value("io.group_commit.piggybacked", labels);
  ASSERT_GT(leader_syncs, 0);
  // The whole point: with 8 threads against a slow disk, far fewer syncs
  // than appends, and a nonzero piggyback count.
  EXPECT_LT(leader_syncs, kTotal);
  EXPECT_GT(piggybacked, 0);
  // One batch-size sample per leader sync.
  const obs::InstrumentSnapshot* batches =
      snap.Find("io.sync.batch_msgs", labels);
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(batches->hist.count, leader_syncs);
}

// Crash armed mid-run: the power loss lands inside an in-flight batch —
// possibly after the leader's fdatasync but before the parked waiters woke
// to collect their acks. Whatever was acknowledged OK must be recovered.
TEST(GroupCommitConcurrencyTest, CrashMidBatchKeepsEveryAcknowledgedAppend) {
  constexpr int kThreads = 6;
  constexpr int kAppendsPerThread = 40;
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 77;
  fopts.crash_after_bytes = 2000;  // lands mid-run, mid-batch
  io::FaultFs fs(mem.get(), fopts);
  SlowSyncFs slow(&fs);

  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &slow;
  opts.flush_interval_messages = 1;
  opts.flush_interval_ms = 1 << 30;
  opts.sync = io::SyncPolicy::kAlways;
  opts.group_commit = true;
  ManualClock clock;

  Mutex acked_mu{"test.acked"};
  std::vector<std::pair<int64_t, std::string>> acked;
  {
    kafka::PartitionLog log(opts, &clock);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kAppendsPerThread && !fs.crashed(); ++i) {
          const std::string payload =
              "t" + std::to_string(t) + "-" + std::to_string(i);
          auto offset = log.AppendDurable(OneSet(payload), 1);
          if (offset.ok()) {
            MutexLock lock(&acked_mu);
            acked.emplace_back(offset.value(), payload);
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ASSERT_TRUE(fs.crashed());  // the schedule must actually exercise a crash
  ASSERT_FALSE(acked.empty());
  ASSERT_TRUE(fs.Restart().ok());

  kafka::PartitionLog recovered(opts, &clock);
  std::map<int64_t, std::string> recovered_at;
  int64_t offset = recovered.start_offset();
  while (offset < recovered.flushed_end_offset()) {
    auto data = recovered.Read(offset, 1 << 20);
    if (!data.ok() || data.value().empty()) break;
    kafka::MessageSetIterator it(data.value(), offset);
    kafka::Message m;
    while (it.Next(&m)) recovered_at[m.offset] = m.payload;
    offset = it.next_fetch_offset();
  }
  for (const auto& [acked_offset, payload] : acked) {
    auto it = recovered_at.find(acked_offset);
    ASSERT_NE(it, recovered_at.end())
        << "acked offset " << acked_offset << " lost in the crash";
    EXPECT_EQ(it->second, payload);
  }
}

// Multi-committer binlog: group commit must preserve the dense-SCN
// invariant replication depends on, while batching the syncs.
TEST(GroupCommitConcurrencyTest, BinlogCommittersKeepDenseScns) {
  constexpr int kThreads = 8;
  constexpr int kCommitsPerThread = 30;
  auto mem = io::NewMemFs();
  SlowSyncFs slow(mem.get());
  obs::MetricsRegistry metrics;

  sqlstore::BinlogOptions bopts;
  bopts.data_dir = "/db";
  bopts.fs = &slow;
  bopts.metrics = &metrics;
  bopts.sync = io::SyncPolicy::kAlways;
  bopts.group_commit = true;
  sqlstore::Binlog binlog(bopts);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&binlog, &failures, t] {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        sqlstore::Change change;
        change.table = "t";
        change.primary_key =
            "pk" + std::to_string(t) + "-" + std::to_string(i);
        if (!binlog.Append({change}).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr int kTotal = kThreads * kCommitsPerThread;
  EXPECT_EQ(binlog.LastScn(), kTotal);
  EXPECT_EQ(binlog.DurableScn(), kTotal);  // every ack was covered by a sync
  const auto txns = sqlstore::Logged(binlog, 0, kTotal + 1);
  ASSERT_EQ(static_cast<int>(txns.size()), kTotal);
  for (int i = 0; i < kTotal; ++i) {
    ASSERT_EQ(txns[static_cast<size_t>(i)].scn, i + 1)
        << "SCNs must stay dense under concurrent group commit";
  }

  const obs::Labels labels{{"layer", "sqlstore.binlog"}};
  obs::RegistrySnapshot snap = metrics.Snapshot();
  const int64_t leader_syncs =
      snap.Value("io.group_commit.leader_syncs", labels);
  ASSERT_GT(leader_syncs, 0);
  EXPECT_LT(leader_syncs, kTotal);
  EXPECT_GT(snap.Value("io.group_commit.piggybacked", labels), 0);
}

}  // namespace
}  // namespace lidi
