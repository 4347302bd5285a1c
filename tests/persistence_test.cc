// Persistence and crash-recovery tests for the Kafka partition log's
// file-backed mode (LogOptions::data_dir): flushed data survives a process
// restart; unflushed data is lost (the paper's flush-policy durability
// model, V.B); torn trailing writes are truncated on recovery.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/clock.h"
#include "common/random.h"
#include "kafka/log.h"
#include "common/random.h"
#include "kafka/message.h"
#include "io/file.h"
#include "storage/log_engine.h"

#include "status_test_util.h"

namespace lidi::kafka {
namespace {

class PersistentLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lidi-log-" +
            std::to_string(
                std::chrono::steady_clock::now().time_since_epoch().count()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  LogOptions Options() {
    LogOptions options;
    options.data_dir = dir_.string();
    options.segment_bytes = 256;
    options.flush_interval_messages = 1;
    return options;
  }

  std::string OneSet(const std::string& payload) {
    MessageSetBuilder builder;
    builder.Add(payload);
    return builder.Build();
  }

  std::vector<std::string> ReadAll(PartitionLog* log) {
    std::vector<std::string> out;
    int64_t offset = log->start_offset();
    while (offset < log->flushed_end_offset()) {
      auto data = log->Read(offset, 1 << 20);
      if (!data.ok() || data.value().empty()) break;
      MessageSetIterator it(data.value(), offset);
      Message m;
      while (it.Next(&m)) out.push_back(m.payload);
      offset = it.next_fetch_offset();
    }
    return out;
  }

  std::filesystem::path dir_;
  ManualClock clock_;
};

TEST_F(PersistentLogTest, FlushedDataSurvivesRestart) {
  std::vector<std::string> written;
  {
    PartitionLog log(Options(), &clock_);
    for (int i = 0; i < 40; ++i) {
      written.push_back("m" + std::to_string(i) + "-" + std::string(20, 'x'));
      log.Append(OneSet(written.back()), 1);
    }
    log.Flush();
  }  // "process exit"
  PartitionLog recovered(Options(), &clock_);
  EXPECT_EQ(ReadAll(&recovered), written);
  EXPECT_GT(recovered.segment_count(), 1);  // multi-segment recovery
}

TEST_F(PersistentLogTest, UnflushedTailLostOnCrash) {
  LogOptions options = Options();
  options.flush_interval_messages = 1000;  // nothing auto-flushes
  options.flush_interval_ms = 1 << 30;
  {
    PartitionLog log(options, &clock_);
    log.Append(OneSet("durable"), 1);
    log.Flush();
    log.Append(OneSet("lost-on-crash"), 1);  // never flushed
  }
  PartitionLog recovered(options, &clock_);
  EXPECT_EQ(ReadAll(&recovered), std::vector<std::string>{"durable"});
}

TEST_F(PersistentLogTest, RestartedLogContinuesAtCorrectOffsets) {
  int64_t end_before;
  {
    PartitionLog log(Options(), &clock_);
    for (int i = 0; i < 10; ++i) log.Append(OneSet("a"), 1);
    log.Flush();
    end_before = log.end_offset();
  }
  PartitionLog recovered(Options(), &clock_);
  EXPECT_EQ(recovered.end_offset(), end_before);
  const int64_t next = recovered.Append(OneSet("post-restart"), 1);
  EXPECT_EQ(next, end_before);  // offsets continue exactly where they were
  recovered.Flush();
  const auto all = ReadAll(&recovered);
  ASSERT_EQ(all.size(), 11u);
  EXPECT_EQ(all.back(), "post-restart");
}

TEST_F(PersistentLogTest, TornTrailingWriteTruncatedOnRecovery) {
  {
    PartitionLog log(Options(), &clock_);
    log.Append(OneSet("complete"), 1);
    log.Flush();
  }
  // Simulate a torn write: append garbage that looks like a partial entry.
  std::filesystem::path segment;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    segment = entry.path();
  }
  {
    std::ofstream out(segment, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x01, 0x02};  // len=64, 2 B
    out.write(torn, sizeof(torn));
  }
  PartitionLog recovered(Options(), &clock_);
  EXPECT_EQ(ReadAll(&recovered), std::vector<std::string>{"complete"});
  // And the log keeps working after truncation.
  recovered.Append(OneSet("after"), 1);
  recovered.Flush();
  EXPECT_EQ(ReadAll(&recovered).size(), 2u);
}

TEST_F(PersistentLogTest, RetentionRemovesSegmentFiles) {
  LogOptions options = Options();
  options.retention_ms = 1000;
  {
    PartitionLog log(options, &clock_);
    for (int i = 0; i < 30; ++i) log.Append(OneSet(std::string(40, 'x')), 1);
    log.Flush();
    const int files_before =
        static_cast<int>(std::distance(
            std::filesystem::directory_iterator(dir_),
            std::filesystem::directory_iterator{}));
    EXPECT_GT(files_before, 1);
    clock_.AdvanceMillis(5000);
    log.Append(OneSet("fresh"), 1);
    log.Flush();
    EXPECT_GT(log.DeleteExpiredSegments(), 0);
    const int files_after =
        static_cast<int>(std::distance(
            std::filesystem::directory_iterator(dir_),
            std::filesystem::directory_iterator{}));
    EXPECT_LT(files_after, files_before);
  }
  // Recovery after retention: only the retained range comes back.
  PartitionLog recovered(options, &clock_);
  EXPECT_GT(recovered.start_offset(), 0);
  const auto all = ReadAll(&recovered);
  ASSERT_FALSE(all.empty());
  EXPECT_EQ(all.back(), "fresh");
}

TEST_F(PersistentLogTest, RandomizedRestartEquivalence) {
  // Property: after any prefix of appends+flushes, restart yields exactly
  // the flushed prefix.
  Random rng(99);
  std::vector<std::string> flushed_payloads;
  std::vector<std::string> pending;
  LogOptions options = Options();
  options.flush_interval_messages = 1000;
  options.flush_interval_ms = 1 << 30;
  {
    PartitionLog log(options, &clock_);
    for (int i = 0; i < 200; ++i) {
      const std::string payload = "p" + std::to_string(i) + rng.Bytes(30);
      log.Append(OneSet(payload), 1);
      pending.push_back(payload);
      if (rng.Bernoulli(0.2)) {
        log.Flush();
        flushed_payloads.insert(flushed_payloads.end(), pending.begin(),
                                pending.end());
        pending.clear();
      }
    }
  }
  PartitionLog recovered(options, &clock_);
  EXPECT_EQ(ReadAll(&recovered), flushed_payloads);
}


// ---------------------------------------------------------------------------
// Log-structured engine persistence (the BDB-JE-style replay recovery)
// ---------------------------------------------------------------------------

class PersistentEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lidi-eng-" +
            std::to_string(
                std::chrono::steady_clock::now().time_since_epoch().count()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  storage::LogEngineOptions Options() {
    storage::LogEngineOptions options;
    options.data_dir = dir_.string();
    options.segment_size_bytes = 512;
    options.compaction_garbage_ratio = 10.0;  // manual compaction only
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(PersistentEngineTest, StateSurvivesRestart) {
  std::map<std::string, std::string> model;
  {
    auto engine = storage::NewLogStructuredEngine(Options());
    Random rng(5);
    for (int i = 0; i < 500; ++i) {
      const std::string key = "k" + std::to_string(rng.Uniform(60));
      if (rng.Bernoulli(0.25)) {
        ASSERT_OK(engine->Delete(key));
        model.erase(key);
      } else {
        const std::string value = rng.Bytes(50);
        ASSERT_OK(engine->Put(key, value));
        model[key] = value;
      }
    }
  }  // crash
  auto recovered = storage::NewLogStructuredEngine(Options());
  std::map<std::string, std::string> scanned;
  recovered->ForEach([&scanned](Slice k, Slice v) {
    scanned[k.ToString()] = v.ToString();
    return true;
  });
  EXPECT_EQ(scanned, model);
  EXPECT_TRUE(recovered->VerifyChecksums().ok());
  // Writes continue after recovery.
  ASSERT_TRUE(recovered->Put("post", "restart").ok());
  std::string v;
  ASSERT_TRUE(recovered->Get("post", &v).ok());
  EXPECT_EQ(v, "restart");
}

TEST_F(PersistentEngineTest, CompactionStateSurvivesRestart) {
  std::map<std::string, std::string> model;
  {
    auto engine = storage::NewLogStructuredEngine(Options());
    for (int i = 0; i < 400; ++i) {
      const std::string key = "k" + std::to_string(i % 10);
      ASSERT_OK(engine->Put(key, "v" + std::to_string(i)));
      model[key] = "v" + std::to_string(i);
    }
    engine->CompactNow();
  }
  auto recovered = storage::NewLogStructuredEngine(Options());
  std::map<std::string, std::string> scanned;
  recovered->ForEach([&scanned](Slice k, Slice v) {
    scanned[k.ToString()] = v.ToString();
    return true;
  });
  EXPECT_EQ(scanned, model);
}

TEST_F(PersistentEngineTest, CorruptTailDiscardedOnRecovery) {
  {
    auto engine = storage::NewLogStructuredEngine(Options());
    ASSERT_OK(engine->Put("good", "value"));
  }
  // Corrupt the last few bytes of the newest segment file.
  std::filesystem::path newest;
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    if (newest.empty() || entry.path() > newest) newest = entry.path();
  }
  {
    std::ofstream out(newest, std::ios::binary | std::ios::app);
    out.write("\x01\x02\x03", 3);
  }
  auto recovered = storage::NewLogStructuredEngine(Options());
  std::string v;
  EXPECT_TRUE(recovered->Get("good", &v).ok());
  EXPECT_EQ(v, "value");
  EXPECT_TRUE(recovered->VerifyChecksums().ok());
}

// ---------------------------------------------------------------------------
// Compaction I/O failure handling (regression tests for discarded-Status
// bugs: CompactLocked used to ignore the results of RemoveFile / SyncDir on
// the old generation, so a failed remove left stale segments that recovery
// would replay — resurrecting deleted keys — and a failed directory sync
// claimed durability the disk never promised.)
// ---------------------------------------------------------------------------

// Delegating filesystem with per-call failure switches; everything not
// explicitly failed passes through to the in-memory substrate.
class FlakyFs : public io::Fs {
 public:
  explicit FlakyFs(io::Fs* base) : base_(base) {}

  bool fail_remove = false;
  bool fail_syncdir = false;

  Result<std::unique_ptr<io::WritableFile>> OpenAppend(
      const std::string& path) override {
    return base_->OpenAppend(path);
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
    if (fail_remove) return Status::IOError("injected remove failure: " + path);
    return base_->RemoveFile(path);
  }
  Status TruncateFile(const std::string& path, int64_t size) override {
    return base_->TruncateFile(path, size);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    if (fail_syncdir) return Status::IOError("injected dir-sync failure");
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

class CompactionFaultTest : public ::testing::Test {
 protected:
  storage::LogEngineOptions Options() {
    storage::LogEngineOptions options;
    options.data_dir = "/eng";
    options.fs = &flaky_;
    options.segment_size_bytes = 512;
    options.compaction_garbage_ratio = 10.0;  // manual compaction only
    return options;
  }

  std::unique_ptr<io::Fs> mem_ = io::NewMemFs();
  FlakyFs flaky_{mem_.get()};
};

TEST_F(CompactionFaultTest, CompactionRemoveFailureCannotResurrectDeletedKeys) {
  std::map<std::string, std::string> model;
  {
    auto engine = storage::NewLogStructuredEngine(Options());
    // Lots of overwrites across many 512-byte segments, then delete half the
    // keyspace: the old generation holds every overwritten and deleted
    // record, the compacted generation only the five survivors.
    for (int i = 0; i < 400; ++i) {
      const std::string key = "k" + std::to_string(i % 10);
      ASSERT_OK(engine->Put(key, "v" + std::to_string(i)));
      model[key] = "v" + std::to_string(i);
    }
    for (int k = 5; k < 10; ++k) {
      const std::string key = "k" + std::to_string(k);
      ASSERT_OK(engine->Delete(key));
      model.erase(key);
    }
    const int64_t segments_before =
        engine->metrics()->Snapshot().Value("storage.segments");

    // Every surplus-segment RemoveFile fails; the engine must fall back to
    // truncating the stale files so recovery cannot replay them.
    flaky_.fail_remove = true;
    engine->CompactNow();
    flaky_.fail_remove = false;

    ASSERT_LT(engine->metrics()->Snapshot().Value("storage.segments"),
              segments_before)
        << "compaction should have shrunk the segment count";
    // The truncate fallback defused every stale segment: not degraded.
    EXPECT_OK(engine->RecoveryStatus());
  }  // crash

  auto recovered = storage::NewLogStructuredEngine(Options());
  EXPECT_OK(recovered->RecoveryStatus());
  std::map<std::string, std::string> scanned;
  recovered->ForEach([&scanned](Slice k, Slice v) {
    scanned[k.ToString()] = v.ToString();
    return true;
  });
  EXPECT_EQ(scanned, model) << "stale old-generation segments must not "
                               "resurrect overwritten or deleted records";
  std::string v;
  EXPECT_TRUE(recovered->Get("k7", &v).IsNotFound());
}

TEST_F(CompactionFaultTest, CompactionDirSyncFailureMarksEngineDegraded) {
  auto engine = storage::NewLogStructuredEngine(Options());
  for (int i = 0; i < 200; ++i) {
    ASSERT_OK(engine->Put("k" + std::to_string(i % 5), std::string(40, 'x')));
  }
  ASSERT_OK(engine->RecoveryStatus());

  flaky_.fail_syncdir = true;
  engine->CompactNow();
  flaky_.fail_syncdir = false;

  // The renames may not survive power loss; the engine must say so instead
  // of silently claiming the compaction durable.
  EXPECT_FALSE(engine->RecoveryStatus().ok());
  // The in-flight state is still fully readable.
  std::string v;
  ASSERT_OK(engine->Get("k0", &v));
  EXPECT_EQ(v, std::string(40, 'x'));
}

}  // namespace
}  // namespace lidi::kafka
