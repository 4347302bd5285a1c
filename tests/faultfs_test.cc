// Crash/fault-injection tests for the durable I/O layer (src/io) and the
// three persistence layers riding on it: kafka::PartitionLog,
// storage::LogStructuredEngine, and sqlstore::Binlog.
//
// The property tests run hundreds of seeded FaultFs schedules (short
// writes, ENOSPC, sync failures, a crash point torn at byte granularity)
// and assert the durability contract after Restart() + reopen: everything
// acknowledged as durable is intact, and recovered state is a clean prefix
// of acknowledged state. Every schedule is deterministic in its seed; a
// failing seed replays exactly via the LIDI_FAULTFS_SEED env knob, e.g.
//   LIDI_FAULTFS_SEED=1234567 ctest -R faultfs_test
//
// The regression tests pin the three silent-data-loss bugs this layer
// exposed (see DESIGN.md, durability contract): dishonest persisted-byte
// accounting on failed writes, segment-index skew when recovery skipped
// unreadable files, and torn tails validated by length prefix alone.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/sync.h"
#include "io/fault_fs.h"
#include "io/file.h"
#include "io/group_commit.h"
#include "kafka/log.h"
#include "kafka/message.h"
#include "obs/metrics.h"
#include "sqlstore/database.h"
#include "storage/log_engine.h"

#include "binlog_test_util.h"
#include "status_test_util.h"

namespace lidi {
namespace {

constexpr int kSchedulesPerLayer = 220;

/// Seeds to run: all of [1, n] normally; exactly the one from
/// LIDI_FAULTFS_SEED when set (replaying a reported failure).
std::vector<uint64_t> Seeds(int n) {
  if (const char* env = std::getenv("LIDI_FAULTFS_SEED")) {
    return {std::strtoull(env, nullptr, 10)};
  }
  std::vector<uint64_t> seeds;
  for (int i = 1; i <= n; ++i) seeds.push_back(static_cast<uint64_t>(i));
  return seeds;
}

std::string ReplayHint(uint64_t seed) {
  return "schedule seed=" + std::to_string(seed) +
         " (replay: LIDI_FAULTFS_SEED=" + std::to_string(seed) + ")";
}

std::string OneSet(const std::string& payload) {
  kafka::MessageSetBuilder builder;
  builder.Add(payload);
  return builder.Build();
}

std::vector<std::string> ReadAllPayloads(kafka::PartitionLog* log) {
  std::vector<std::string> out;
  int64_t offset = log->start_offset();
  while (offset < log->flushed_end_offset()) {
    auto data = log->Read(offset, 1 << 20);
    if (!data.ok() || data.value().empty()) break;
    kafka::MessageSetIterator it(data.value(), offset);
    kafka::Message m;
    while (it.Next(&m)) out.push_back(m.payload);
    offset = it.next_fetch_offset();
  }
  return out;
}

std::map<std::string, std::string> ScanAll(storage::LogStructuredEngine* e) {
  std::map<std::string, std::string> out;
  e->ForEach([&out](Slice k, Slice v) {
    out[k.ToString()] = v.ToString();
    return true;
  });
  return out;
}

// ---------------------------------------------------------------------------
// FaultFs itself
// ---------------------------------------------------------------------------

TEST(FaultFsTest, SchedulesAreDeterministicInTheSeed) {
  for (int run = 0; run < 2; ++run) {
    static std::string first_content;
    static int64_t first_failures = 0;
    auto mem = io::NewMemFs();
    io::FaultFsOptions fopts;
    fopts.seed = 42;
    fopts.short_write_probability = 0.5;
    fopts.write_error_probability = 0.2;
    io::FaultFs fs(mem.get(), fopts);
    ASSERT_TRUE(fs.CreateDirs("/d").ok());
    auto file = fs.OpenAppend("/d/f");
    ASSERT_TRUE(file.ok());
    for (int i = 0; i < 50; ++i) {
      // discard-ok: the appends run against deliberately injected write
      // faults; the test compares the failure count across seeded runs.
      (void)file.value()->Append("0123456789abcdef", nullptr);
    }
    std::string content;
    ASSERT_TRUE(fs.ReadFile("/d/f", &content).ok());
    if (run == 0) {
      first_content = content;
      first_failures = fs.injected_failures();
      EXPECT_GT(first_failures, 0);
    } else {
      EXPECT_EQ(content, first_content);
      EXPECT_EQ(fs.injected_failures(), first_failures);
    }
  }
}

TEST(FaultFsTest, AcceptedReportsTheExactPrefixOnDisk) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 7;
  fopts.short_write_probability = 1.0;  // every append is torn
  io::FaultFs fs(mem.get(), fopts);
  auto file = fs.OpenAppend("/f");
  ASSERT_TRUE(file.ok());
  int64_t total_accepted = 0;
  for (int i = 0; i < 20; ++i) {
    int64_t accepted = -1;
    Status s = file.value()->Append("xxxxxxxxxx", &accepted);
    EXPECT_FALSE(s.ok());
    ASSERT_GE(accepted, 0);
    ASSERT_LT(accepted, 10);  // strict prefix
    total_accepted += accepted;
  }
  auto size = fs.FileSize("/f");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(size.value(), total_accepted);
}

TEST(FaultFsTest, RestartKeepsDurablePrefixAndCutsUnsyncedTail) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 3;
  io::FaultFs fs(mem.get(), fopts);
  {
    auto file = fs.OpenAppend("/f");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append("durable-part", nullptr).ok());
    ASSERT_TRUE(file.value()->Sync().ok());
    ASSERT_TRUE(file.value()->Append("page-cache-only", nullptr).ok());
  }
  fs.CrashNow();
  std::string ignored;
  EXPECT_FALSE(fs.ReadFile("/f", &ignored).ok());  // dead until reboot
  ASSERT_TRUE(fs.Restart().ok());
  std::string content;
  ASSERT_TRUE(fs.ReadFile("/f", &content).ok());
  ASSERT_GE(content.size(), 12u);  // synced bytes always survive
  EXPECT_EQ(content.substr(0, 12), "durable-part");
  EXPECT_LE(content.size(), 12u + 15u);
}

// ---------------------------------------------------------------------------
// Property: kafka::PartitionLog crash recovery
// ---------------------------------------------------------------------------

// For every schedule: after a crash + restart, the recovered log serves an
// exact prefix of the appended payload sequence (no holes, no corruption),
// and its end covers everything durable_end_offset() had acknowledged.
TEST(FaultFsPropertyTest, PartitionLogRecoversAcknowledgedDurablePrefix) {
  const io::SyncPolicy kPolicies[] = {io::SyncPolicy::kNever,
                                      io::SyncPolicy::kInterval,
                                      io::SyncPolicy::kAlways};
  for (uint64_t seed : Seeds(kSchedulesPerLayer)) {
    SCOPED_TRACE(ReplayHint(seed));
    auto mem = io::NewMemFs();
    Random rng(seed * 7919 + 13);
    io::FaultFsOptions fopts;
    fopts.seed = seed;
    fopts.crash_after_bytes = 64 + static_cast<int64_t>(rng.Uniform(4000));
    fopts.write_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.short_write_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.sync_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    io::FaultFs fs(mem.get(), fopts);

    obs::MetricsRegistry metrics;
    kafka::LogOptions opts;
    opts.data_dir = "/p0";
    opts.fs = &fs;
    opts.metrics = &metrics;
    opts.segment_bytes = 128 + static_cast<int64_t>(rng.Uniform(512));
    opts.flush_interval_messages = 1 + static_cast<int>(rng.Uniform(4));
    opts.flush_interval_ms = 1 << 30;
    opts.sync = kPolicies[rng.Uniform(3)];
    opts.sync_interval_bytes = 64 + static_cast<int64_t>(rng.Uniform(512));
    ManualClock clock;

    std::vector<std::string> written;
    int64_t durable_before = 0;
    {
      kafka::PartitionLog log(opts, &clock);
      for (int i = 0; i < 120 && !fs.crashed(); ++i) {
        const std::string payload = "m" + std::to_string(i) + "-" +
                                    rng.Bytes(1 + rng.Uniform(40));
        log.Append(OneSet(payload), 1);
        written.push_back(payload);
        if (rng.Bernoulli(0.3)) log.Flush();
      }
      log.Flush();
      durable_before = log.durable_end_offset();
      ASSERT_LE(durable_before, log.flushed_end_offset());
    }
    ASSERT_TRUE(fs.Restart().ok());

    kafka::PartitionLog recovered(opts, &clock);
    // The crash-survival promise: nothing acknowledged durable is lost.
    EXPECT_GE(recovered.flushed_end_offset(), durable_before);
    // And whatever came back is an exact prefix of what was appended.
    const auto payloads = ReadAllPayloads(&recovered);
    ASSERT_LE(payloads.size(), written.size());
    for (size_t i = 0; i < payloads.size(); ++i) {
      ASSERT_EQ(payloads[i], written[i]) << "payload " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Property: kafka::PartitionLog recovery of a damaged segment file
// ---------------------------------------------------------------------------

std::string SegmentFile(int64_t base) {
  char name[40];
  std::snprintf(name, sizeof(name), "/p0/%020lld.log",
                static_cast<long long>(base));
  return name;
}

// Seeded mutation harness for Kafka segment recovery: a multi-segment log,
// then one segment file damaged (bit flips, a truncation, an entry length
// overwritten with 2^32-1, random bytes appended, or the file removed).
// Reopening keeps exactly the entries before the first damaged log offset,
// in order; each reads back its original bytes, from the rolled segments'
// files and from the active segment's chunks; and the next append lands at
// the recovered end and survives another reopen. A missing or empty first
// file is what retention leaves behind, so the first file is never removed
// or cut to nothing. Replay one seed with LIDI_KAFKA_SEED=<seed>.
TEST(KafkaRecoveryTest, SeededDamagedSegmentKeepsADenseCleanPrefix) {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LIDI_KAFKA_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 200; ++seed) seeds.push_back(seed);
  }
  for (uint64_t seed : seeds) {
    const std::string seed_text = std::to_string(seed);
    SCOPED_TRACE("seed=" + seed_text + " (replay: LIDI_KAFKA_SEED=" +
                 seed_text + ")");
    Random rng(seed);
    auto mem = io::NewMemFs();
    kafka::LogOptions opts;
    opts.data_dir = "/p0";
    opts.fs = mem.get();
    opts.segment_bytes = 64 + static_cast<int64_t>(rng.Uniform(128));
    ManualClock clock;

    std::vector<std::string> payloads;
    std::vector<std::string> entries;  // the bytes of entry i
    std::vector<int64_t> offsets;      // the offset of entry i
    {
      kafka::PartitionLog log(opts, &clock);
      for (int i = 30 + static_cast<int>(rng.Uniform(30)); i > 0; --i) {
        payloads.push_back(rng.Bytes(1 + rng.Uniform(40)));
        entries.push_back(OneSet(payloads.back()));
        offsets.push_back(log.Append(entries.back(), 1));
      }
    }
    const int64_t log_end =
        offsets.back() + static_cast<int64_t>(entries.back().size());
    auto names = mem->ListDir("/p0");
    ASSERT_OK(names);
    std::vector<int64_t> bases;
    for (const std::string& name : names.value()) {
      bases.push_back(std::atoll(name.c_str()));
    }
    ASSERT_GE(bases.size(), 2u);

    const uint64_t kind = rng.Uniform(5);
    const size_t k = kind == 4 ? 1 + rng.Uniform(bases.size() - 1)
                               : rng.Uniform(bases.size());
    const std::string path = SegmentFile(bases[k]);
    std::string original;
    ASSERT_OK(mem->ReadFile(path, &original));
    std::string file = original;
    switch (kind) {
      case 0:  // flip one to eight bits
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          file[rng.Uniform(file.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        break;
      case 1:  // cut the file short
        file.resize(k == 0 ? 1 + rng.Uniform(file.size() - 1)
                           : rng.Uniform(file.size()));
        break;
      case 2: {  // one entry claims a 2^32-1 byte body
        std::vector<int64_t> starts;
        for (int64_t offset : offsets) {
          if (offset >= bases[k] &&
              offset < bases[k] + static_cast<int64_t>(original.size())) {
            starts.push_back(offset - bases[k]);
          }
        }
        file.replace(static_cast<size_t>(starts[rng.Uniform(starts.size())]),
                     4, "\xff\xff\xff\xff", 4);
        break;
      }
      case 3:  // random bytes after the segment's last entry
        for (uint64_t n = 1 + rng.Uniform(64); n > 0; --n) {
          file.push_back(static_cast<char>(rng.Next()));
        }
        break;
      default:  // the file is gone
        file.clear();
        break;
    }
    int64_t damaged = log_end;  // the first log offset whose byte changed
    if (kind == 4) {
      ASSERT_OK(mem->RemoveFile(path));
      damaged = bases[k];
    } else {
      ASSERT_OK(mem->TruncateFile(path, 0));
      auto out = mem->OpenAppend(path);
      ASSERT_OK(out);
      ASSERT_OK(out.value()->Append(file));
      const size_t changed =
          std::mismatch(file.begin(),
                        file.begin() + std::min(file.size(), original.size()),
                        original.begin())
              .first -
          file.begin();
      if (changed < original.size()) {
        damaged = bases[k] + static_cast<int64_t>(changed);
      }
    }
    size_t clean = 0;
    while (clean < entries.size() &&
           offsets[clean] + static_cast<int64_t>(entries[clean].size()) <=
               damaged) {
      ++clean;
    }
    const int64_t clean_end =
        clean == 0 ? 0
                   : offsets[clean - 1] +
                         static_cast<int64_t>(entries[clean - 1].size());

    {
      kafka::PartitionLog log(opts, &clock);
      EXPECT_OK(log.recovery_status());
      ASSERT_EQ(log.start_offset(), 0);
      ASSERT_EQ(log.flushed_end_offset(), clean_end);
      ASSERT_EQ(log.end_offset(), clean_end);
      for (size_t i = 0; i < clean; ++i) {
        auto read = log.ReadPinned(offsets[i], 1);
        ASSERT_OK(read);
        ASSERT_EQ(read.value().ToString(), entries[i]) << "entry " << i;
      }
      EXPECT_EQ(ReadAllPayloads(&log),
                std::vector<std::string>(payloads.begin(),
                                         payloads.begin() + clean));
      EXPECT_EQ(log.Append(OneSet("next"), 1), clean_end);
    }
    kafka::PartitionLog reopened(opts, &clock);
    const auto kept = ReadAllPayloads(&reopened);
    ASSERT_EQ(kept.size(), clean + 1);
    EXPECT_EQ(kept.back(), "next");
  }
}

// ---------------------------------------------------------------------------
// io::Fs::ReadRange
// ---------------------------------------------------------------------------

// Every filesystem serves a range as the same slice of ReadFile, cut short
// (or empty) where the file ends, and fails on a missing file.
void ExpectReadRangeContract(io::Fs* fs, const std::string& dir,
                             uint64_t seed) {
  SCOPED_TRACE("ReadRange seed=" + std::to_string(seed));
  Random rng(seed);
  ASSERT_OK(fs->CreateDirs(dir));
  const std::string path = dir + "/data";
  {
    auto out = fs->OpenAppend(path);
    ASSERT_OK(out);
    ASSERT_OK(out.value()->Append(rng.Bytes(1 + rng.Uniform(5000))));
  }
  std::string whole;
  ASSERT_OK(fs->ReadFile(path, &whole));
  const int64_t size = static_cast<int64_t>(whole.size());
  std::string range = "stale";
  for (int i = 0; i < 50; ++i) {
    const int64_t offset = static_cast<int64_t>(rng.Uniform(size + 16));
    const int64_t length = static_cast<int64_t>(rng.Uniform(size + 16));
    ASSERT_OK(fs->ReadRange(path, offset, length, &range));
    const std::string expected =
        offset >= size ? std::string()
                       : whole.substr(static_cast<size_t>(offset),
                                      static_cast<size_t>(length));
    ASSERT_EQ(range, expected) << "offset " << offset << " length " << length;
  }
  ASSERT_OK(fs->ReadRange(path, size, 10, &range));
  EXPECT_TRUE(range.empty());
  EXPECT_FALSE(fs->ReadRange(dir + "/missing", 0, 10, &range).ok());
}

TEST(FsReadRangeTest, PosixMemAndFaultFsServeTheSliceOfReadFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lidi-range-" +
       std::to_string(
           std::chrono::steady_clock::now().time_since_epoch().count()));
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    const std::string sub = "/" + std::to_string(seed);
    ExpectReadRangeContract(io::DefaultFs(), dir.string() + sub, seed);
    auto mem = io::NewMemFs();
    ExpectReadRangeContract(mem.get(), "/m" + sub, seed);
    auto base = io::NewMemFs();
    io::FaultFs fault(base.get(), io::FaultFsOptions{});
    ExpectReadRangeContract(&fault, "/f" + sub, seed);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(FsReadRangeTest, CrashedFaultFsFailsEveryRead) {
  auto mem = io::NewMemFs();
  io::FaultFs fs(mem.get(), io::FaultFsOptions{});
  {
    auto out = fs.OpenAppend("/d/file");
    ASSERT_OK(out);
    ASSERT_OK(out.value()->Append("bytes on disk"));
    ASSERT_OK(out.value()->Sync());  // so the restart keeps every byte
  }
  std::string range;
  ASSERT_OK(fs.ReadRange("/d/file", 2, 5, &range));
  EXPECT_EQ(range, "tes o");
  fs.CrashNow();
  EXPECT_FALSE(fs.ReadRange("/d/file", 2, 5, &range).ok());
  EXPECT_FALSE(fs.ReadRange("/d/file", 0, 0, &range).ok());
  ASSERT_OK(fs.Restart());
  ASSERT_OK(fs.ReadRange("/d/file", 2, 5, &range));
  EXPECT_EQ(range, "tes o");
}

// ---------------------------------------------------------------------------
// Property: storage::LogStructuredEngine crash recovery
// ---------------------------------------------------------------------------

// Under sync=kAlways, an OK Put/Delete is acknowledged durable; a failed one
// must leave no trace. For every schedule the recovered engine equals the
// model of acknowledged operations exactly.
TEST(FaultFsPropertyTest, LogEngineRecoversExactlyTheAcknowledgedState) {
  for (uint64_t seed : Seeds(kSchedulesPerLayer)) {
    SCOPED_TRACE(ReplayHint(seed));
    auto mem = io::NewMemFs();
    Random rng(seed * 104729 + 7);
    io::FaultFsOptions fopts;
    fopts.seed = seed;
    fopts.crash_after_bytes = 64 + static_cast<int64_t>(rng.Uniform(3000));
    fopts.write_error_probability = rng.Bernoulli(0.3) ? 0.08 : 0.0;
    fopts.short_write_probability = rng.Bernoulli(0.3) ? 0.08 : 0.0;
    fopts.sync_error_probability = rng.Bernoulli(0.3) ? 0.08 : 0.0;
    io::FaultFs fs(mem.get(), fopts);

    storage::LogEngineOptions opts;
    opts.data_dir = "/kv";
    opts.fs = &fs;
    opts.segment_size_bytes = 128 + static_cast<int64_t>(rng.Uniform(512));
    opts.compaction_garbage_ratio = 10.0;  // compaction only when asked
    opts.sync = io::SyncPolicy::kAlways;

    std::map<std::string, std::string> model;
    {
      auto engine = storage::NewLogStructuredEngine(opts);
      for (int i = 0; i < 150 && !fs.crashed(); ++i) {
        const std::string key = "k" + std::to_string(rng.Uniform(25));
        if (rng.Bernoulli(0.2)) {
          if (engine->Delete(key).ok()) model.erase(key);
        } else {
          const std::string value = rng.Bytes(10 + rng.Uniform(40));
          if (engine->Put(key, value).ok()) model[key] = value;
        }
        if (rng.Bernoulli(0.05)) engine->CompactNow();
      }
    }
    ASSERT_TRUE(fs.Restart().ok());

    auto recovered = storage::NewLogStructuredEngine(opts);
    EXPECT_EQ(ScanAll(recovered.get()), model);
    EXPECT_TRUE(recovered->VerifyChecksums().ok());
    EXPECT_TRUE(recovered->RecoveryStatus().ok());
  }
}

// ---------------------------------------------------------------------------
// Property: sqlstore::Binlog crash recovery
// ---------------------------------------------------------------------------

// For every schedule: the recovered binlog is an exact prefix of the
// acknowledged commits, at least as long as DurableScn() promised; SCNs
// stay dense; the next commit continues the sequence.
TEST(FaultFsPropertyTest, BinlogRecoversAcknowledgedDurableCommits) {
  const io::SyncPolicy kPolicies[] = {io::SyncPolicy::kNever,
                                      io::SyncPolicy::kInterval,
                                      io::SyncPolicy::kAlways};
  for (uint64_t seed : Seeds(kSchedulesPerLayer)) {
    SCOPED_TRACE(ReplayHint(seed));
    auto mem = io::NewMemFs();
    Random rng(seed * 65537 + 3);
    io::FaultFsOptions fopts;
    fopts.seed = seed;
    fopts.crash_after_bytes = 32 + static_cast<int64_t>(rng.Uniform(2500));
    fopts.write_error_probability = rng.Bernoulli(0.3) ? 0.08 : 0.0;
    fopts.short_write_probability = rng.Bernoulli(0.3) ? 0.08 : 0.0;
    io::FaultFs fs(mem.get(), fopts);

    sqlstore::BinlogOptions bopts;
    bopts.data_dir = "/db";
    bopts.fs = &fs;
    bopts.sync = kPolicies[rng.Uniform(3)];
    bopts.sync_interval_bytes = 64 + static_cast<int64_t>(rng.Uniform(256));

    // (primary key, value) of the acknowledged commit with scn i+1.
    std::vector<std::pair<std::string, std::string>> acked;
    int64_t durable_before = 0;
    {
      sqlstore::Database db("crashdb", bopts);
      ASSERT_TRUE(db.CreateTable("t").ok());
      for (int i = 0; i < 80 && !fs.crashed(); ++i) {
        const std::string pk = "pk" + std::to_string(i);
        const std::string value = rng.Bytes(5 + rng.Uniform(30));
        auto scn = db.Put("t", pk, {{"val", value}});
        if (scn.ok()) {
          ASSERT_EQ(scn.value(), static_cast<int64_t>(acked.size()) + 1)
              << "SCNs must stay dense";
          acked.emplace_back(pk, value);
        }
      }
      durable_before = db.binlog().DurableScn();
      ASSERT_LE(durable_before, db.binlog().LastScn());
    }
    ASSERT_TRUE(fs.Restart().ok());

    sqlstore::Database db2("crashdb", bopts);
    const int64_t last = db2.binlog().LastScn();
    EXPECT_GE(last, durable_before);  // nothing acknowledged durable is lost
    EXPECT_LE(last, static_cast<int64_t>(acked.size()));
    const auto txns = sqlstore::Logged(db2.binlog(), 0, 1 << 20);
    ASSERT_EQ(static_cast<int64_t>(txns.size()), last);
    for (size_t i = 0; i < txns.size(); ++i) {
      ASSERT_EQ(txns[i].scn, static_cast<int64_t>(i) + 1);
      ASSERT_EQ(txns[i].changes.size(), 1u);
      EXPECT_EQ(txns[i].changes[0].primary_key.ToString(), acked[i].first);
      EXPECT_EQ(sqlstore::RowOf(txns[i].changes[0]).at("val"), acked[i].second);
    }
    // The sequence continues where the recovered log ends.
    ASSERT_TRUE(db2.CreateTable("t").ok());
    auto next = db2.Put("t", "post", {{"val", "restart"}});
    if (next.ok()) {
      EXPECT_EQ(next.value(), last + 1);
    }
  }
}

// ---------------------------------------------------------------------------
// Regression: bugfix 1 — honest persisted-byte accounting
// ---------------------------------------------------------------------------

// Pre-PR, PartitionLog::PersistSealedLocked advanced persisted_bytes even
// when every write failed, so the consumer-visible frontier claimed offsets
// that did not exist on disk and vanished on restart.
TEST(FaultFsRegressionTest, KafkaFailedWritesDoNotAdvanceTheFrontier) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 11;
  fopts.write_error_probability = 1.0;  // disk full: nothing lands
  io::FaultFs fs(mem.get(), fopts);
  obs::MetricsRegistry metrics;
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &fs;
  opts.metrics = &metrics;
  ManualClock clock;
  kafka::PartitionLog log(opts, &clock);
  for (int i = 0; i < 5; ++i) log.Append(OneSet("doomed"), 1);
  log.Flush();
  EXPECT_EQ(log.flushed_end_offset(), 0) << "no byte was accepted";
  EXPECT_EQ(log.durable_end_offset(), 0);
  EXPECT_GT(metrics
                .GetCounter("io.write.failed", {{"layer", "kafka.log"}})
                ->Value(),
            0);
  // A restart agrees with the frontier: nothing comes back.
  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_EQ(recovered.flushed_end_offset(), 0);
  EXPECT_TRUE(ReadAllPayloads(&recovered).empty());
}

// Short writes leave torn bytes in the file; each is truncated back off it,
// the next flush rewrites the entry whole until a write completes it, and
// recovery tolerates the file at every point.
TEST(FaultFsRegressionTest, KafkaShortWritesResumeFromHonestBoundary) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 23;
  // Mostly-torn writes (a short write accepts a strict prefix, so 1.0 could
  // never land the final byte); occasional appends go through whole.
  fopts.short_write_probability = 0.75;
  io::FaultFs fs(mem.get(), fopts);
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &fs;
  ManualClock clock;
  const std::string payload(64, 'p');
  {
    kafka::PartitionLog log(opts, &clock);
    log.Append(OneSet(payload), 1);
    // Each flush rewrites the entry from its chunk; a torn write is taken
    // back. Never does the frontier pass unaccepted bytes.
    for (int i = 0; i < 400 && log.flushed_end_offset() == 0; ++i) {
      log.Flush();
      ASSERT_LE(log.flushed_end_offset(), fs.total_bytes_written());
    }
    EXPECT_GT(log.flushed_end_offset(), 0) << "entry eventually completes";
  }
  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_EQ(ReadAllPayloads(&recovered), std::vector<std::string>{payload});
}

// Kafka under sync=always, inline and under group commit: a spell in which
// every sync fails, then a calm one with sporadic failures. A failed sync
// takes the unsynced bytes back off the files and the next flush rewrites
// them from the chunks, so a rolled segment keeps its chunks until its file
// is synced (it used to drop them once written). After a restart every
// acknowledged append, and every byte below the last durable frontier,
// reads back.
TEST(FaultFsRegressionTest, KafkaFailedSyncsKeepChunksAndLoseNoAck) {
  for (const bool group : {false, true}) {
    for (uint64_t seed : Seeds(40)) {
      SCOPED_TRACE(std::string(group ? "group " : "inline ") +
                   ReplayHint(seed));
      auto mem = io::NewMemFs();
      io::FaultFsOptions fopts;
      fopts.seed = seed;
      fopts.sync_error_probability = 1.0;
      io::FaultFs fs(mem.get(), fopts);
      kafka::LogOptions opts;
      opts.data_dir = "/p0";
      opts.fs = &fs;
      opts.sync = io::SyncPolicy::kAlways;
      opts.group_commit = group;
      opts.segment_bytes = 200;
      ManualClock clock;
      Random rng(seed);
      std::vector<std::string> appended;
      std::vector<std::pair<int64_t, std::string>> acked;
      int64_t durable = 0;
      {
        kafka::PartitionLog log(opts, &clock);
        const auto append = [&](int i) {
          appended.push_back("m" + std::to_string(i) + "-" +
                             rng.Bytes(rng.Uniform(20)));
          auto offset = log.AppendDurable(OneSet(appended.back()), 1);
          if (offset.ok()) acked.emplace_back(offset.value(), appended.back());
          return offset.ok();
        };
        for (int i = 0; i < 16; ++i) EXPECT_FALSE(append(i));
        ASSERT_GT(log.segment_count(), 1);
        EXPECT_EQ(log.durable_end_offset(), 0);
        EXPECT_EQ(log.retained_bytes(), log.end_offset())
            << "a rolled segment dropped chunks its file does not hold";
        fs.SetFaultProbabilities(0, 0, 0.05 * static_cast<double>(seed % 5));
        for (int i = 16; i < 60; ++i) append(i);
        fs.SetFaultProbabilities(0, 0, 0);
        EXPECT_TRUE(append(60));
        durable = log.durable_end_offset();
        EXPECT_EQ(durable, log.end_offset());
        EXPECT_LT(log.retained_bytes(), opts.segment_bytes + 64)
            << "synced rolled segments keep their chunks";
      }
      ASSERT_OK(fs.Restart());
      kafka::PartitionLog recovered(opts, &clock);
      EXPECT_OK(recovered.recovery_status());
      EXPECT_GE(recovered.flushed_end_offset(), durable);
      EXPECT_EQ(ReadAllPayloads(&recovered), appended);
      for (const auto& [offset, payload] : acked) {
        auto read = recovered.Read(offset, 1);
        ASSERT_OK(read);
        kafka::MessageSetIterator it(read.value(), offset);
        kafka::Message message;
        ASSERT_TRUE(it.Next(&message)) << "offset " << offset;
        EXPECT_EQ(message.payload, payload);
      }
    }
  }
}

// A flush with several pending chunks writes them in order and stops at the
// first short write, so no later chunk lands in the file behind the hole.
// Each payload is smaller than the one before: the three failed flushes
// seal three chunks that never merge.
TEST(FaultFsRegressionTest, KafkaPersistStopsAtTheFirstShortChunk) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 29;
  fopts.write_error_probability = 1.0;  // nothing lands: chunks pile up
  io::FaultFs fs(mem.get(), fopts);
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &fs;
  ManualClock clock;
  const std::vector<std::string> payloads{
      std::string(300, 'a'), std::string(200, 'b'), std::string(100, 'c')};
  {
    kafka::PartitionLog log(opts, &clock);
    for (const std::string& payload : payloads) {
      log.Append(OneSet(payload), 1);
    }
    fs.SetFaultProbabilities(0, 1.0, 0);  // every write now tears
    log.Flush();
    auto size = fs.FileSize("/p0/00000000000000000000.log");
    ASSERT_TRUE(size.ok());
    EXPECT_LT(size.value(), static_cast<int64_t>(OneSet(payloads[0]).size()))
        << "only a prefix of the first chunk may reach the file";
    EXPECT_EQ(log.flushed_end_offset(), 0);
    fs.SetFaultProbabilities(0, 0, 0);
    log.Flush();
    EXPECT_EQ(log.flushed_end_offset(), log.end_offset());
  }
  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_EQ(ReadAllPayloads(&recovered), payloads);
}

// Pre-PR, LogEngine::PersistAppendLocked advanced persisted_bytes_ whether
// or not the stream took the record; a full disk silently produced an
// engine whose in-memory state no restart could reproduce.
TEST(FaultFsRegressionTest, EngineFailedWritesLeaveNoTrace) {
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 17;
  fopts.write_error_probability = 1.0;
  io::FaultFs fs(mem.get(), fopts);
  storage::LogEngineOptions opts;
  opts.data_dir = "/kv";
  opts.fs = &fs;
  opts.sync = io::SyncPolicy::kAlways;
  {
    auto engine = storage::NewLogStructuredEngine(opts);
    EXPECT_FALSE(engine->Put("k", "v").ok()) << "failed write must surface";
    std::string v;
    EXPECT_TRUE(engine->Get("k", &v).IsNotFound())
        << "a failed Put must not apply in memory";
    EXPECT_EQ(engine->Count(), 0);
    EXPECT_GT(engine->metrics()
                  ->GetCounter("io.write.failed",
                               {{"layer", "storage.log_engine"}})
                  ->Value(),
              0);
  }
  auto recovered = storage::NewLogStructuredEngine(opts);
  EXPECT_EQ(recovered->Count(), 0);
}

// ---------------------------------------------------------------------------
// Regression: bugfix 2 — recovery preserves the segment-index mapping
// ---------------------------------------------------------------------------

// Pre-PR, RecoverFromDisk skipped an unreadable/missing segment file with
// `continue`, shifting every later segment down one index, so appends
// landed in the wrong files and a second restart read interleaved garbage.
TEST(FaultFsRegressionTest, EngineMissingSegmentKeepsIndexFileMapping) {
  auto mem = io::NewMemFs();
  storage::LogEngineOptions opts;
  opts.data_dir = "/kv";
  opts.fs = mem.get();
  opts.segment_size_bytes = 256;
  opts.compaction_garbage_ratio = 10.0;
  std::map<std::string, std::string> model;
  {
    auto engine = storage::NewLogStructuredEngine(opts);
    for (int i = 0; i < 60; ++i) {
      const std::string key = "k" + std::to_string(i);
      const std::string value = "v" + std::string(30, 'a' + (i % 26));
      ASSERT_TRUE(engine->Put(key, value).ok());
      model[key] = value;
    }
    ASSERT_GT(engine->metrics()->Snapshot().Value("storage.segments"), 3);
  }
  // Lose a middle segment file (disk corruption, operator error, ...).
  ASSERT_TRUE(mem->RemoveFile("/kv/0000000001.seg").ok());

  std::map<std::string, std::string> first_scan;
  {
    auto engine = storage::NewLogStructuredEngine(opts);
    EXPECT_FALSE(engine->RecoveryStatus().ok()) << "loss must be loud";
    first_scan = ScanAll(engine.get());
    // Records in the surviving files are intact: every recovered value is
    // the one written for that key (index<->file mapping preserved), and
    // the newest keys — written after the lost segment — are all present.
    for (const auto& [key, value] : first_scan) {
      ASSERT_EQ(value, model.at(key)) << key;
    }
    EXPECT_EQ(first_scan.at("k59"), model.at("k59"));
    EXPECT_TRUE(engine->VerifyChecksums().ok());
    // And the log keeps working.
    ASSERT_TRUE(engine->Put("post-loss", "value").ok());
    std::string v;
    ASSERT_TRUE(engine->Get("post-loss", &v).ok());
  }
  // Double-restart consistency: nothing further degrades or shifts.
  auto again = storage::NewLogStructuredEngine(opts);
  auto second_scan = ScanAll(again.get());
  ASSERT_EQ(second_scan.erase("post-loss"), 1u);
  EXPECT_EQ(second_scan, first_scan);
  EXPECT_TRUE(again->VerifyChecksums().ok());
}

// ---------------------------------------------------------------------------
// Regression: bugfix 3 — torn tails validated by CRC, not length alone
// ---------------------------------------------------------------------------

// Pre-PR, PartitionLog recovery accepted any tail whose length prefix
// parsed; garbage with a plausible length was served to consumers as a
// message. Now each entry's payload CRC must verify.
TEST(FaultFsRegressionTest, KafkaPlausibleLengthGarbageIsTruncated) {
  auto mem = io::NewMemFs();
  obs::MetricsRegistry metrics;
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = mem.get();
  opts.metrics = &metrics;
  ManualClock clock;
  {
    kafka::PartitionLog log(opts, &clock);
    log.Append(OneSet("complete"), 1);
    log.Flush();
  }
  auto size_before = mem->FileSize("/p0/00000000000000000000.log");
  ASSERT_TRUE(size_before.ok());
  {
    // A full-length entry with a valid length prefix but a wrong CRC: ten
    // payload bytes, length = 5 + 10.
    std::string garbage;
    garbage.append("\x0f\x00\x00\x00", 4);  // length 15
    garbage.push_back('\0');                // attributes
    garbage.append("\xef\xbe\xad\xde", 4);  // wrong crc
    garbage.append("evilpaylod", 10);
    auto file = mem->OpenAppend("/p0/00000000000000000000.log");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file.value()->Append(garbage, nullptr).ok());
  }
  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_EQ(ReadAllPayloads(&recovered),
            std::vector<std::string>{"complete"});
  EXPECT_EQ(metrics
                .GetCounter("io.recovery.torn_truncations",
                            {{"layer", "kafka.log"}})
                ->Value(),
            1);
  // The garbage is gone from the file too, not buried by later appends.
  auto size_after = mem->FileSize("/p0/00000000000000000000.log");
  ASSERT_TRUE(size_after.ok());
  EXPECT_EQ(size_after.value(), size_before.value());
}

// A power loss under sync=never or interval can cut a rolled segment's
// unsynced tail while later files survive. Recovery used to truncate the
// torn file and keep the later ones, leaving a hole at the torn file's new
// end: reads there came back empty forever, so consumers stalled, and the
// next append landed past the hole. Recovery now ends the log at the hole
// and sets the later files aside.
TEST(FaultFsRegressionTest, KafkaTornRolledSegmentEndsTheLog) {
  auto mem = io::NewMemFs();
  obs::MetricsRegistry metrics;
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = mem.get();
  opts.metrics = &metrics;
  opts.segment_bytes = 256;
  ManualClock clock;
  std::vector<std::string> payloads;
  for (int i = 0; i < 20; ++i) {
    payloads.push_back("m" + std::to_string(100 + i) + std::string(38, 'x'));
  }
  const int64_t entry = static_cast<int64_t>(OneSet(payloads[0]).size());
  ASSERT_EQ(entry, 51);  // six entries (306 B) fill a 256 B segment
  {
    kafka::PartitionLog log(opts, &clock);
    for (const std::string& payload : payloads) log.Append(OneSet(payload), 1);
    ASSERT_EQ(log.segment_count(), 4);
  }
  ASSERT_OK(mem->TruncateFile(SegmentFile(0), 6 * entry - 10));

  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_OK(recovered.recovery_status());
  // The log ends after the five whole entries of the torn segment.
  EXPECT_EQ(recovered.flushed_end_offset(), 5 * entry);
  EXPECT_EQ(recovered.end_offset(), 5 * entry);
  EXPECT_EQ(ReadAllPayloads(&recovered),
            std::vector<std::string>(payloads.begin(), payloads.begin() + 5));
  EXPECT_EQ(metrics
                .GetCounter("io.recovery.torn_truncations",
                            {{"layer", "kafka.log"}})
                ->Value(),
            2);  // the torn tail, and the hole after it
  for (int64_t base : {6 * entry, 12 * entry, 18 * entry}) {
    const std::string name = SegmentFile(base);
    EXPECT_FALSE(mem->FileExists(name)) << name;
    EXPECT_TRUE(mem->FileExists(name + ".orphan")) << name;
  }
  // The next append fills the hole's place, and survives a reopen.
  EXPECT_EQ(recovered.Append(OneSet("after"), 1), 5 * entry);
  kafka::PartitionLog reopened(opts, &clock);
  const auto kept = ReadAllPayloads(&reopened);
  ASSERT_EQ(kept.size(), 6u);
  EXPECT_EQ(kept.back(), "after");
}

// A read of a rolled segment goes to its file. When the file lost bytes
// under the live log, or the filesystem fails, the read is an error: never
// NotFound, which a consumer takes as "expired, restart from the head" and
// would skip data on, and never an empty or short success. The active
// segment is still served from memory.
TEST(FaultFsRegressionTest, KafkaRolledSegmentReadFailuresAreErrors) {
  auto mem = io::NewMemFs();
  io::FaultFs fs(mem.get(), io::FaultFsOptions{});
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = &fs;
  opts.segment_bytes = 128;
  ManualClock clock;
  kafka::PartitionLog log(opts, &clock);
  int64_t last = 0;
  for (int i = 0; i < 12; ++i) {
    last = log.Append(OneSet("r" + std::to_string(i) + std::string(30, 'z')),
                      1);
  }
  ASSERT_GE(log.segment_count(), 3);
  auto names = fs.ListDir("/p0");
  ASSERT_OK(names);
  const int64_t second = std::atoll(names.value()[1].c_str());
  ASSERT_OK(log.ReadPinned(0, 1 << 20));

  ASSERT_OK(mem->TruncateFile(SegmentFile(0), 20));
  auto cut = log.ReadPinned(0, 1 << 20);
  ASSERT_FALSE(cut.ok());
  EXPECT_EQ(cut.status().code(), Code::kCorruption)
      << cut.status().ToString();

  fs.CrashNow();
  auto crashed = log.ReadPinned(second, 1 << 20);
  ASSERT_FALSE(crashed.ok());
  EXPECT_FALSE(crashed.status().IsNotFound()) << crashed.status().ToString();
  auto active = log.ReadPinned(last, 1 << 20);
  ASSERT_OK(active);
  EXPECT_FALSE(active.value().empty());
}

// A retention janitor that cannot unlink an expired segment file empties
// it instead. Recovery reads such a file ahead of the log as expired, not
// as a torn segment: the retained segments after it all come back.
TEST(FaultFsRegressionTest, KafkaEmptiedExpiredFileIsNotAHole) {
  auto mem = io::NewMemFs();
  kafka::LogOptions opts;
  opts.data_dir = "/p0";
  opts.fs = mem.get();
  opts.segment_bytes = 128;
  ManualClock clock;
  std::vector<std::string> payloads;
  int64_t second_base = 0;
  {
    kafka::PartitionLog log(opts, &clock);
    for (int i = 0; i < 12; ++i) {
      payloads.push_back("p" + std::to_string(i) + std::string(30, 'y'));
      const int64_t offset = log.Append(OneSet(payloads.back()), 1);
      if (second_base == 0 && log.segment_count() == 2) second_base = offset;
    }
  }
  ASSERT_GT(second_base, 0);
  ASSERT_OK(mem->TruncateFile(SegmentFile(0), 0));
  kafka::PartitionLog recovered(opts, &clock);
  EXPECT_OK(recovered.recovery_status());
  EXPECT_EQ(recovered.start_offset(), second_base);
  const auto kept = ReadAllPayloads(&recovered);
  ASSERT_FALSE(kept.empty());
  EXPECT_EQ(kept.back(), payloads.back());
  EXPECT_EQ(kept.front(), payloads[payloads.size() - kept.size()]);
}

// ---------------------------------------------------------------------------
// Regression: the interval sync stays on time after a failed append
// ---------------------------------------------------------------------------

// A rolled-back short write must leave the interval policy's unsynced count
// alone: it never added its bytes, and subtracting them would make the next
// fdatasync come that many bytes late. Here the interval is three records,
// so the third accepted record must sync.
TEST(FaultFsRegressionTest, BinlogFailedAppendKeepsTheIntervalSyncOnTime) {
  auto txn = [] {
    sqlstore::Change change;
    change.table = "t";
    change.primary_key = "k";
    change.row = {{"v", std::string(40, 'v')}};
    return std::vector<sqlstore::Change>{change};
  };
  sqlstore::BinlogOptions bopts;
  bopts.data_dir = "/db";
  bopts.sync = io::SyncPolicy::kInterval;
  int64_t record_bytes = 0;
  {
    auto probe_fs = io::NewMemFs();
    sqlstore::BinlogOptions probe = bopts;
    probe.fs = probe_fs.get();
    sqlstore::Binlog binlog(probe);
    ASSERT_OK(binlog.Append(txn()));
    auto size = probe_fs->FileSize("/db/00000000000000000000.log");
    ASSERT_TRUE(size.ok());
    record_bytes = size.value();
  }
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 31;
  io::FaultFs fs(mem.get(), fopts);
  bopts.fs = &fs;
  bopts.sync_interval_bytes = 3 * record_bytes;
  sqlstore::Binlog binlog(bopts);
  ASSERT_OK(binlog.Append(txn()));
  ASSERT_OK(binlog.Append(txn()));
  fs.SetFaultProbabilities(0, 1.0, 0);
  const int64_t written = fs.total_bytes_written();
  EXPECT_FALSE(binlog.Append(txn()).ok());
  ASSERT_GT(fs.total_bytes_written(), written)
      << "the short write must leave bytes for the rollback to remove";
  fs.SetFaultProbabilities(0, 0, 0);
  ASSERT_OK(binlog.Append(txn()));
  EXPECT_EQ(binlog.LastScn(), 3);
  EXPECT_EQ(binlog.DurableScn(), 3);
}

// The same accounting slip in LogEngine::PersistAppendLocked.
TEST(FaultFsRegressionTest, EngineFailedAppendKeepsTheIntervalSyncOnTime) {
  const std::string value(40, 'v');
  storage::LogEngineOptions opts;
  opts.data_dir = "/kv";
  opts.sync = io::SyncPolicy::kInterval;
  int64_t record_bytes = 0;
  {
    auto probe_fs = io::NewMemFs();
    storage::LogEngineOptions probe = opts;
    probe.fs = probe_fs.get();
    auto engine = storage::NewLogStructuredEngine(probe);
    ASSERT_OK(engine->Put("k0", value));
    record_bytes = engine->metrics()->Snapshot().Value("storage.total_bytes");
  }
  auto mem = io::NewMemFs();
  io::FaultFsOptions fopts;
  fopts.seed = 37;
  io::FaultFs fs(mem.get(), fopts);
  opts.fs = &fs;
  opts.sync_interval_bytes = 3 * record_bytes;
  auto engine = storage::NewLogStructuredEngine(opts);
  ASSERT_OK(engine->Put("k0", value));
  ASSERT_OK(engine->Put("k1", value));
  fs.SetFaultProbabilities(0, 1.0, 0);
  const int64_t written = fs.total_bytes_written();
  EXPECT_FALSE(engine->Put("k2", value).ok());
  ASSERT_GT(fs.total_bytes_written(), written)
      << "the short write must leave bytes for the rollback to remove";
  fs.SetFaultProbabilities(0, 0, 0);
  ASSERT_OK(engine->Put("k3", value));
  EXPECT_EQ(engine->metrics()
                ->GetCounter("io.sync.count",
                             {{"layer", "storage.log_engine"}})
                ->Value(),
            1);
}

// ---------------------------------------------------------------------------
// sqlstore::Binlog persistence basics
// ---------------------------------------------------------------------------

TEST(PersistentBinlogTest, DatabaseBinlogSurvivesRestart) {
  auto mem = io::NewMemFs();
  sqlstore::BinlogOptions bopts;
  bopts.data_dir = "/db";
  bopts.fs = mem.get();
  {
    sqlstore::Database db("music", bopts);
    ASSERT_TRUE(db.CreateTable("Artists").ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db.Put("Artists", "a" + std::to_string(i),
                         {{"name", "artist" + std::to_string(i)},
                          {"plays", std::to_string(i * 100)}})
                      .ok());
    }
    // One multi-change transaction and a delete, for coverage of the codec.
    auto txn = db.Begin();
    txn.Put("Artists", "a0", {{"name", "renamed"}});
    txn.Delete("Artists", "a4");
    ASSERT_TRUE(txn.Commit().ok());
    EXPECT_EQ(db.binlog().LastScn(), 6);
    EXPECT_EQ(db.binlog().DurableScn(), 6);  // kAlways is the default
  }
  sqlstore::Database db2("music", bopts);
  EXPECT_TRUE(db2.binlog().recovery_status().ok());
  EXPECT_EQ(db2.binlog().LastScn(), 6);
  EXPECT_EQ(db2.binlog().DurableScn(), 6);
  const auto txns = sqlstore::Logged(db2.binlog(), 0, 100);
  ASSERT_EQ(txns.size(), 6u);
  EXPECT_EQ(txns[2].changes[0].primary_key.ToString(), "a2");
  EXPECT_EQ(sqlstore::RowOf(txns[2].changes[0]).at("plays"), "200");
  ASSERT_EQ(txns[5].changes.size(), 2u);
  EXPECT_EQ(txns[5].changes[0].op, sqlstore::Change::Op::kUpdate);
  EXPECT_EQ(sqlstore::RowOf(txns[5].changes[0]).at("name"), "renamed");
  EXPECT_EQ(txns[5].changes[1].op, sqlstore::Change::Op::kDelete);
  EXPECT_EQ(txns[5].changes[1].primary_key.ToString(), "a4");
  // The sequence continues exactly where it left off.
  ASSERT_TRUE(db2.CreateTable("Artists").ok());
  auto next = db2.Put("Artists", "post", {{"name", "restart"}});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 7);
}

TEST(PersistentBinlogTest, TornTailTruncatedOnRecovery) {
  auto mem = io::NewMemFs();
  obs::MetricsRegistry metrics;
  sqlstore::BinlogOptions bopts;
  bopts.data_dir = "/db";
  bopts.fs = mem.get();
  bopts.metrics = &metrics;
  {
    sqlstore::Binlog binlog(bopts);
    ASSERT_TRUE(binlog.Append({}).ok());
    ASSERT_TRUE(binlog.Append({}).ok());
  }
  {
    // A torn record: plausible length, missing body.
    auto file = mem->OpenAppend("/db/00000000000000000000.log");
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(
        file.value()->Append(std::string("\x40\x00\x00\x00\x01\x02", 6),
                             nullptr)
            .ok());
  }
  sqlstore::Binlog recovered(bopts);
  EXPECT_TRUE(recovered.recovery_status().ok());
  EXPECT_EQ(recovered.LastScn(), 2);
  EXPECT_EQ(metrics
                .GetCounter("io.recovery.torn_truncations",
                            {{"layer", "sqlstore.binlog"}})
                ->Value(),
            1);
  auto next = recovered.Append({});
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(next.value(), 3);
}

// The binlog keeps each record once, as the bytes its file holds. After a
// short write and a failed sync, inline and under group commit, the record
// bodies it lends from memory equal those a reopened binlog reads from the
// file, and the failed commits left nothing behind in either.
TEST(PersistentBinlogTest, LentRecordsMatchTheFileAfterFailedWrites) {
  auto txn = [](int i) {
    sqlstore::Change change;
    change.table = "t";
    change.primary_key = "k" + std::to_string(i);
    change.row = {{"v", std::string(static_cast<size_t>(i) * 7, 'v')}};
    return std::vector<sqlstore::Change>{change};
  };
  for (bool group : {false, true}) {
    SCOPED_TRACE(group ? "group commit" : "inline sync");
    auto mem = io::NewMemFs();
    io::FaultFsOptions fopts;
    fopts.seed = 41;
    io::FaultFs fs(mem.get(), fopts);
    sqlstore::BinlogOptions bopts;
    bopts.data_dir = "/db";
    bopts.fs = &fs;
    bopts.sync = io::SyncPolicy::kAlways;
    bopts.group_commit = group;
    sqlstore::Binlog binlog(bopts);
    ASSERT_OK(binlog.Append(txn(0)));
    ASSERT_OK(binlog.Append(txn(1)));
    fs.SetFaultProbabilities(0, 1.0, 0);  // every write short
    EXPECT_FALSE(binlog.Append(txn(2)).ok());
    fs.SetFaultProbabilities(0, 0, 1.0);  // every sync fails
    EXPECT_FALSE(binlog.Append(txn(3)).ok());
    fs.SetFaultProbabilities(0, 0, 0);
    for (int i = 4; i < 7; ++i) ASSERT_OK(binlog.Append(txn(i)));
    EXPECT_EQ(binlog.LastScn(), 5);
    EXPECT_EQ(binlog.DurableScn(), 5);

    sqlstore::Binlog reopened(bopts);
    ASSERT_OK(reopened.recovery_status());
    const auto lent = binlog.ReadAfter(0, 100);
    const auto read = reopened.ReadAfter(0, 100);
    ASSERT_EQ(lent.size(), 5u);
    ASSERT_EQ(read.size(), 5u);
    const auto logged = sqlstore::Logged(binlog, 0, 100);
    const char* const keys[] = {"k0", "k1", "k4", "k5", "k6"};
    for (size_t i = 0; i < lent.size(); ++i) {
      EXPECT_EQ(lent[i].ToString(), read[i].ToString()) << "scn " << i + 1;
      EXPECT_EQ(logged[i].scn, static_cast<int64_t>(i) + 1);
      EXPECT_EQ(logged[i].changes[0].primary_key.ToString(), keys[i]);
    }
  }
}

// Sync-policy plumbing sanity: kAlways acknowledges durability, kNever
// never does (until restart proves the bytes), and the counters agree.
TEST(SyncPolicyTest, DurableFrontierFollowsThePolicy) {
  for (io::SyncPolicy policy :
       {io::SyncPolicy::kNever, io::SyncPolicy::kAlways}) {
    auto mem = io::NewMemFs();
    obs::MetricsRegistry metrics;
    kafka::LogOptions opts;
    opts.data_dir = "/p0";
    opts.fs = mem.get();
    opts.metrics = &metrics;
    opts.sync = policy;
    ManualClock clock;
    kafka::PartitionLog log(opts, &clock);
    for (int i = 0; i < 10; ++i) log.Append(OneSet("payload"), 1);
    log.Flush();
    const int64_t syncs =
        metrics.GetCounter("io.sync.count", {{"layer", "kafka.log"}})
            ->Value();
    if (policy == io::SyncPolicy::kAlways) {
      EXPECT_EQ(log.durable_end_offset(), log.flushed_end_offset());
      EXPECT_GT(syncs, 0);
    } else {
      EXPECT_EQ(log.durable_end_offset(), 0);
      EXPECT_EQ(syncs, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// GroupCommitter
// ---------------------------------------------------------------------------

TEST(GroupCommitterTest, LeaderSyncsCoverAndPiggybackersSkipTheDisk) {
  int64_t frontier = 0;
  int syncs = 0;
  io::GroupCommitter committer([&]() -> Result<int64_t> {
    ++syncs;
    frontier += 100;
    return frontier;
  });
  EXPECT_TRUE(committer.SyncTo(50).ok());  // leads: one sync covers to 100
  EXPECT_EQ(syncs, 1);
  EXPECT_EQ(committer.frontier(), 100);
  EXPECT_TRUE(committer.SyncTo(80).ok());  // already covered: no sync
  EXPECT_EQ(syncs, 1);
  EXPECT_TRUE(committer.SyncTo(150).ok());  // past the frontier: leads again
  EXPECT_EQ(syncs, 2);
}

TEST(GroupCommitterTest, FailedSyncBumpsEpochAndRefusesStaleWaiters) {
  bool fail = true;
  int64_t frontier = 0;
  io::GroupCommitter committer([&]() -> Result<int64_t> {
    if (fail) return Status::IOError("injected");
    frontier += 100;
    return frontier;
  });
  const uint64_t stale = committer.epoch();
  Status s = committer.SyncTo(10, stale);
  EXPECT_FALSE(s.ok());  // the leader's own sync failed
  EXPECT_NE(committer.epoch(), stale);
  // A waiter that staged before the failure must NOT be acknowledged by a
  // later successful sync — its bytes may have been rolled back.
  fail = false;
  EXPECT_FALSE(committer.SyncTo(10, stale).ok());
  // A fresh epoch capture sees the world as it is now and succeeds.
  EXPECT_TRUE(committer.SyncTo(10).ok());
}

TEST(GroupCommitterTest, UncoverableTargetErrorsInsteadOfRelead) {
  // The sync succeeds but never reaches the target (a persistent hole left
  // by another appender's failed write): the caller must get an error, not
  // lead forever.
  io::GroupCommitter committer([]() -> Result<int64_t> { return 5; });
  Status s = committer.SyncTo(10);
  EXPECT_FALSE(s.ok());
}

TEST(GroupCommitterTest, ConcurrentWaitersShareOneCoveringSync) {
  auto mem = io::NewMemFs();
  auto file_or = mem->OpenAppend("/f");
  ASSERT_TRUE(file_or.ok());
  std::shared_ptr<io::WritableFile> file = std::move(file_or.value());

  Mutex mu{"test.group_commit_state"};
  int64_t written = 0;  // bytes appended (the staged frontier)
  std::atomic<int> syncs{0};
  io::GroupCommitter committer([&]() -> Result<int64_t> {
    syncs.fetch_add(1);
    int64_t covered = 0;
    {
      // Snapshot BEFORE the sync: bytes appended while the fdatasync is in
      // flight may or may not be covered by it, so they must not be claimed.
      MutexLock lock(&mu);
      covered = written;
    }
    Status s = file->Sync();
    if (!s.ok()) return s;
    return covered;
  });

  constexpr int kThreads = 8;
  constexpr int kAppendsPerThread = 50;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        const uint64_t epoch = committer.epoch();
        int64_t target = 0;
        {
          MutexLock lock(&mu);
          if (!file->Append("0123456789", nullptr).ok()) {
            failures.fetch_add(1);
            continue;
          }
          written += 10;
          target = written;
        }
        if (!committer.SyncTo(target, epoch).ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(committer.frontier(), kThreads * kAppendsPerThread * 10);
  // The batching claim: far fewer syncs than appends (every append acked
  // durable, but leaders cover parked waiters). With 8 threads the worst
  // case is one sync per append; any batching at all pulls it below.
  EXPECT_LE(syncs.load(), kThreads * kAppendsPerThread);
  EXPECT_GE(syncs.load(), 1);
}

// ---------------------------------------------------------------------------
// Property: group-commit crash schedules (kafka::PartitionLog)
// ---------------------------------------------------------------------------

// Concurrent AppendDurable callers under a crash-armed FaultFs: an append
// acknowledged OK was covered by a group sync, so it must be intact after
// the crash — including schedules where the power is lost between the
// leader's fdatasync and the parked waiters' wakeup (the ack happens on the
// waiter thread, but durability happened at the sync; the recovered log
// must contain the message either way).
TEST(FaultFsPropertyTest, GroupCommitNeverLosesAnAcknowledgedAppend) {
  constexpr int kThreads = 4;
  constexpr int kAppendsPerThread = 30;
  for (uint64_t seed : Seeds(kSchedulesPerLayer)) {
    SCOPED_TRACE(ReplayHint(seed));
    auto mem = io::NewMemFs();
    Random rng(seed * 104729 + 7);
    io::FaultFsOptions fopts;
    fopts.seed = seed;
    fopts.crash_after_bytes = 64 + static_cast<int64_t>(rng.Uniform(3000));
    fopts.write_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.short_write_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.sync_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    io::FaultFs fs(mem.get(), fopts);

    kafka::LogOptions opts;
    opts.data_dir = "/p0";
    opts.fs = &fs;
    opts.segment_bytes = 256 + static_cast<int64_t>(rng.Uniform(512));
    opts.flush_interval_messages = 1;
    opts.flush_interval_ms = 1 << 30;
    opts.sync = io::SyncPolicy::kAlways;
    opts.group_commit = true;
    ManualClock clock;

    // Payloads are pre-generated (Random is not thread-safe); offsets are
    // assigned under the log's writer lock, so (offset -> payload) is the
    // ground truth regardless of thread interleaving.
    std::vector<std::vector<std::string>> payloads(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        payloads[static_cast<size_t>(t)].push_back(
            "t" + std::to_string(t) + "-" + std::to_string(i) + "-" +
            rng.Bytes(1 + rng.Uniform(30)));
      }
    }
    Mutex acked_mu{"test.acked"};
    std::vector<std::pair<int64_t, std::string>> acked;  // (offset, payload)
    {
      kafka::PartitionLog log(opts, &clock);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kAppendsPerThread && !fs.crashed(); ++i) {
            const std::string& payload =
                payloads[static_cast<size_t>(t)][static_cast<size_t>(i)];
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
    ASSERT_TRUE(fs.Restart().ok());

    kafka::PartitionLog recovered(opts, &clock);
    // (log offset -> payload) of every recovered message.
    std::map<int64_t, std::string> recovered_at;
    {
      int64_t offset = recovered.start_offset();
      while (offset < recovered.flushed_end_offset()) {
        auto data = recovered.Read(offset, 1 << 20);
        if (!data.ok() || data.value().empty()) break;
        kafka::MessageSetIterator it(data.value(), offset);
        kafka::Message m;
        while (it.Next(&m)) recovered_at[m.offset] = m.payload;
        offset = it.next_fetch_offset();
      }
    }
    for (const auto& [offset, payload] : acked) {
      auto it = recovered_at.find(offset);
      ASSERT_NE(it, recovered_at.end())
          << "acked offset " << offset << " missing after crash";
      ASSERT_EQ(it->second, payload)
          << "acked offset " << offset << " corrupted after crash";
    }
  }
}

// ---------------------------------------------------------------------------
// Property: group-commit crash schedules (sqlstore::Binlog)
// ---------------------------------------------------------------------------

// Concurrent group-committed Binlog appenders under a crash-armed FaultFs:
// every OK-acknowledged SCN must be recovered with its exact content, and
// the recovered log must still be a dense SCN sequence (a failed group sync
// rolls the whole in-flight batch back, never a hole out of the middle).
TEST(FaultFsPropertyTest, GroupCommitBinlogNeverLosesAnAcknowledgedCommit) {
  constexpr int kThreads = 4;
  constexpr int kCommitsPerThread = 20;
  for (uint64_t seed : Seeds(kSchedulesPerLayer)) {
    SCOPED_TRACE(ReplayHint(seed));
    auto mem = io::NewMemFs();
    Random rng(seed * 15485863 + 11);
    io::FaultFsOptions fopts;
    fopts.seed = seed;
    fopts.crash_after_bytes = 64 + static_cast<int64_t>(rng.Uniform(2500));
    fopts.write_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.short_write_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    fopts.sync_error_probability = rng.Bernoulli(0.3) ? 0.05 : 0.0;
    io::FaultFs fs(mem.get(), fopts);

    sqlstore::BinlogOptions bopts;
    bopts.data_dir = "/db";
    bopts.fs = &fs;
    bopts.sync = io::SyncPolicy::kAlways;
    bopts.group_commit = true;

    std::vector<std::vector<std::string>> values(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      for (int i = 0; i < kCommitsPerThread; ++i) {
        values[static_cast<size_t>(t)].push_back(
            rng.Bytes(5 + rng.Uniform(30)));
      }
    }
    Mutex acked_mu{"test.acked"};
    std::map<int64_t, std::string> acked;  // scn -> value
    {
      sqlstore::Binlog binlog(bopts);
      std::vector<std::thread> threads;
      for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
          for (int i = 0; i < kCommitsPerThread && !fs.crashed(); ++i) {
            sqlstore::Change change;
            change.table = "t";
            change.primary_key =
                "pk" + std::to_string(t) + "-" + std::to_string(i);
            change.row = {
                {"val",
                 values[static_cast<size_t>(t)][static_cast<size_t>(i)]}};
            auto scn = binlog.Append({change});
            if (scn.ok()) {
              MutexLock lock(&acked_mu);
              acked[scn.value()] = change.row.at("val");
            }
          }
        });
      }
      for (auto& t : threads) t.join();
    }
    ASSERT_TRUE(fs.Restart().ok());

    sqlstore::Binlog recovered(bopts);
    const auto txns = sqlstore::Logged(recovered, 0, 1 << 20);
    for (size_t i = 0; i < txns.size(); ++i) {
      ASSERT_EQ(txns[i].scn, static_cast<int64_t>(i) + 1)
          << "recovered SCNs must stay dense";
    }
    for (const auto& [scn, value] : acked) {
      ASSERT_LE(scn, static_cast<int64_t>(txns.size()))
          << "acked scn " << scn << " missing after crash";
      ASSERT_EQ(
          sqlstore::RowOf(txns[static_cast<size_t>(scn) - 1].changes[0])
              .at("val"),
          value)
          << "acked scn " << scn << " corrupted after crash";
    }
  }
}

}  // namespace
}  // namespace lidi
