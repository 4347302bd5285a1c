#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/blocks.h"
#include "common/hash.h"
#include "common/random.h"
#include "io/file.h"
#include "sqlstore/database.h"

#include "binlog_test_util.h"
#include "status_test_util.h"

namespace lidi::sqlstore {
namespace {

TEST(RowCodecTest, RoundTrip) {
  Row row{{"artist", "Etta James"}, {"album", "Gold"}, {"year", "2007"}};
  std::string buf;
  EncodeRow(row, &buf);
  auto decoded = DecodeRow(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), row);
}

TEST(RowCodecTest, EmptyRow) {
  std::string buf;
  EncodeRow(Row{}, &buf);
  auto decoded = DecodeRow(buf);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(RowCodecTest, TruncatedRejected) {
  Row row{{"a", "b"}};
  std::string buf;
  EncodeRow(row, &buf);
  EXPECT_FALSE(DecodeRow(Slice(buf.data(), buf.size() - 1)).ok());
}

TEST(DatabaseTest, CreateTableAndCrud) {
  Database db("member_db");
  ASSERT_TRUE(db.CreateTable("profiles").ok());
  EXPECT_TRUE(db.CreateTable("profiles").code() == Code::kAlreadyExists);
  EXPECT_TRUE(db.HasTable("profiles"));

  ASSERT_TRUE(db.Put("profiles", "m1", Row{{"name", "Ada"}}).ok());
  auto row = db.Get("profiles", "m1");
  ASSERT_TRUE(row.ok());
  EXPECT_EQ(row.value().at("name"), "Ada");

  ASSERT_TRUE(db.Put("profiles", "m1", Row{{"name", "Ada L"}}).ok());
  EXPECT_EQ(db.Get("profiles", "m1").value().at("name"), "Ada L");
  EXPECT_EQ(db.RowCount("profiles"), 1);

  ASSERT_TRUE(db.Delete("profiles", "m1").ok());
  EXPECT_TRUE(db.Get("profiles", "m1").status().IsNotFound());
}

TEST(DatabaseTest, MissingTableFailsWholeTransaction) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  auto txn = db.Begin();
  txn.Put("t", "k1", Row{{"c", "v"}});
  txn.Put("ghost", "k2", Row{{"c", "v"}});
  EXPECT_FALSE(txn.Commit().ok());
  // Atomicity: the valid change must not have been applied either.
  EXPECT_TRUE(db.Get("t", "k1").status().IsNotFound());
}

TEST(DatabaseTest, TransactionIsAtomicInBinlog) {
  // Paper III.B: "A single user's action can trigger atomic updates to
  // multiple rows across stores/tables, e.g. an insert into a member's
  // mailbox and update on the member's mailbox unread count."
  Database db("mailbox_db");
  ASSERT_OK(db.CreateTable("mailbox"));
  ASSERT_OK(db.CreateTable("unread_count"));
  auto txn = db.Begin();
  txn.Put("mailbox", "m1:msg9", Row{{"body", "hello"}});
  txn.Put("unread_count", "m1", Row{{"n", "9"}});
  auto scn = txn.Commit();
  ASSERT_TRUE(scn.ok());

  const auto txns = Logged(db.binlog(), 0, 100);
  ASSERT_EQ(txns.size(), 1u);
  EXPECT_EQ(txns[0].scn, scn.value());
  ASSERT_EQ(txns[0].changes.size(), 2u);
  EXPECT_EQ(txns[0].changes[0].table.ToString(), "mailbox");
  EXPECT_EQ(txns[0].changes[1].table.ToString(), "unread_count");
}

TEST(DatabaseTest, BinlogPreservesCommitOrder) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.Put("t", "k" + std::to_string(i), Row{}).ok());
  }
  const auto txns = Logged(db.binlog(), 0, 1000);
  ASSERT_EQ(txns.size(), 50u);
  for (size_t i = 1; i < txns.size(); ++i) {
    EXPECT_EQ(txns[i].scn, txns[i - 1].scn + 1) << "SCNs must be dense";
  }
  EXPECT_EQ(db.binlog().LastScn(), 50);
}

TEST(DatabaseTest, BinlogReplayableFromAnyScn) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  for (int i = 0; i < 20; ++i) ASSERT_OK(db.Put("t", "k" + std::to_string(i), Row{}));
  auto tail = Logged(db.binlog(), 15, 100);
  ASSERT_EQ(tail.size(), 5u);
  EXPECT_EQ(tail[0].scn, 16);
  auto limited = Logged(db.binlog(), 0, 3);
  ASSERT_EQ(limited.size(), 3u);
}

TEST(DatabaseTest, InsertVsUpdateOpResolved) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  ASSERT_OK(db.Put("t", "k", Row{{"v", "1"}}));
  ASSERT_OK(db.Put("t", "k", Row{{"v", "2"}}));
  ASSERT_OK(db.Delete("t", "k"));
  const auto txns = Logged(db.binlog(), 0, 10);
  ASSERT_EQ(txns.size(), 3u);
  EXPECT_EQ(txns[0].changes[0].op, Change::Op::kInsert);
  EXPECT_EQ(txns[1].changes[0].op, Change::Op::kUpdate);
  EXPECT_EQ(txns[2].changes[0].op, Change::Op::kDelete);
}

// A change resolves against the table as the transaction's own earlier
// changes left it.
TEST(DatabaseTest, OpsResolveAgainstEarlierChangesOfTheSameTransaction) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  ASSERT_OK(db.CreateTable("u"));
  ASSERT_OK(db.Put("t", "old", Row{{"v", "0"}}));
  auto txn = db.Begin();
  txn.Put("t", "new", Row{{"v", "1"}});  // insert
  txn.Put("t", "new", Row{{"v", "2"}});  // update: the put above made it
  txn.Put("u", "new", Row{{"v", "3"}});  // insert: another table's row
  txn.Delete("t", "old");                // delete
  txn.Put("t", "old", Row{{"v", "4"}});  // insert: the delete removed it
  ASSERT_OK(txn.Commit());

  const std::vector<Change::Op> expected = {
      Change::Op::kInsert, Change::Op::kUpdate, Change::Op::kInsert,
      Change::Op::kDelete, Change::Op::kInsert};
  const auto txns = Logged(db.binlog(), 1, 10);
  ASSERT_EQ(txns.size(), 1u);
  std::vector<Change::Op> logged;
  for (const ChangeView& change : txns[0].changes) logged.push_back(change.op);
  EXPECT_EQ(logged, expected);
  EXPECT_EQ(db.Get("t", "new").value().at("v"), "2");
  EXPECT_EQ(db.Get("u", "new").value().at("v"), "3");
  EXPECT_EQ(db.Get("t", "old").value().at("v"), "4");
}

TEST(DatabaseTest, PartitionFunctionStampsChanges) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  db.SetPartitionFunction([](Slice key) {
    return static_cast<int>(Fnv1a64(key) % 8);
  });
  ASSERT_OK(db.Put("t", "some-key", Row{}));
  const auto txns = Logged(db.binlog(), 0, 10);
  const int expected = static_cast<int>(Fnv1a64("some-key") % 8);
  EXPECT_EQ(txns[0].changes[0].partition, expected);
}

TEST(DatabaseTest, ScanIteratesInKeyOrder) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  ASSERT_OK(db.Put("t", "b", Row{{"v", "2"}}));
  ASSERT_OK(db.Put("t", "a", Row{{"v", "1"}}));
  ASSERT_OK(db.Put("t", "c", Row{{"v", "3"}}));
  std::vector<std::string> keys;
  ASSERT_TRUE(db.Scan("t", [&keys](const std::string& pk, const Row&) {
                  keys.push_back(pk);
                  return true;
                }).ok());
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c"}));
}

TEST(DatabaseTest, AbortDiscardsChanges) {
  Database db("d");
  ASSERT_OK(db.CreateTable("t"));
  auto txn = db.Begin();
  txn.Put("t", "k", Row{});
  txn.Abort();
  EXPECT_EQ(txn.change_count(), 0);
  EXPECT_EQ(db.binlog().TransactionCount(), 0);
}

// ---------------------------------------------------------------------------
// Binlog record format and recovery of damaged files
// ---------------------------------------------------------------------------

std::string Bytes(std::initializer_list<int> bytes) {
  std::string out;
  for (int b : bytes) out.push_back(static_cast<char>(b));
  return out;
}

// The on-disk record of the transaction GoldenRecordBytes commits, laid out
// by hand from the format comment in database.cc: fixed32 body length,
// fixed32 CRC-32 of the body, then the body. The CRC is Python's zlib.crc32
// of the 31 body bytes.
std::string GoldenRecord() {
  return Bytes({
      0x1f, 0x00, 0x00, 0x00,  // body length 31
      0xa1, 0xfd, 0x32, 0xbb,  // CRC-32 0xbb32fda1
      0x01,                    // varint scn 1
      0x02,                    // varint change count 2
      // insert, zigzag partition 3, LP "t", LP "k1"
      0x00, 0x06, 0x01, 't', 0x02, 'k', '1',
      // LP row, 11 bytes: 2 columns, LP "a" LP "x", LP "bc" LP "yz"
      0x0b, 0x02, 0x01, 'a', 0x01, 'x', 0x02, 'b', 'c', 0x02, 'y', 'z',
      // delete, zigzag partition 70 (two-byte varint 140), LP "t", LP "k2"
      0x02, 0x8c, 0x01, 0x01, 't', 0x02, 'k', '2',
      // LP row, 1 byte: 0 columns
      0x01, 0x00,
  });
}

TEST(BinlogTest, GoldenRecordBytes) {
  auto fs = io::NewMemFs();
  BinlogOptions options;
  options.data_dir = "/db";
  options.fs = fs.get();
  Database db("d", options);
  ASSERT_OK(db.CreateTable("t"));
  db.SetPartitionFunction(
      [](Slice key) { return key.ToString() == "k1" ? 3 : 70; });
  auto txn = db.Begin();
  txn.Put("t", "k1", Row{{"a", "x"}, {"bc", "yz"}});
  txn.Delete("t", "k2");
  ASSERT_OK(txn.Commit());

  std::string file;
  ASSERT_OK(fs->ReadFile("/db/00000000000000000000.log", &file));
  EXPECT_EQ(file, GoldenRecord());
}

// The golden body decodes in place to its transaction; every truncation of
// it is Corruption, and seeded byte flips give Corruption or a view that
// lies inside the body, with an op in range and rows that decode — never a
// crash (check.sh runs this under ASan+UBSan). Each input is its own heap
// copy, so a read past its end is caught. Replay one seed with
// LIDI_BINLOG_SEED=<seed>.
TEST(BinlogTest, DamagedGoldenBodiesDecodeToCorruptionOrAValidView) {
  const std::string body = GoldenRecord().substr(8);
  RecordView view;
  ASSERT_OK(DecodeRecordView(body, &view));
  EXPECT_EQ(view.scn, 1);
  ASSERT_EQ(view.changes.size(), 2u);
  EXPECT_EQ(view.changes[0].op, Change::Op::kInsert);
  EXPECT_EQ(view.changes[0].partition, 3);
  EXPECT_EQ(view.changes[0].table.ToString(), "t");
  EXPECT_EQ(view.changes[0].primary_key.ToString(), "k1");
  EXPECT_EQ(RowOf(view.changes[0]), (Row{{"a", "x"}, {"bc", "yz"}}));
  EXPECT_EQ(view.changes[1].op, Change::Op::kDelete);
  EXPECT_EQ(view.changes[1].partition, 70);
  EXPECT_EQ(view.changes[1].primary_key.ToString(), "k2");
  EXPECT_TRUE(RowOf(view.changes[1]).empty());

  for (size_t n = 0; n < body.size(); ++n) {
    const std::string cut = body.substr(0, n);
    EXPECT_EQ(DecodeRecordView(cut, &view).code(), Code::kCorruption)
        << "truncated to " << n << " bytes";
  }

  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LIDI_BINLOG_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 2000; ++seed) seeds.push_back(seed);
  }
  int decoded = 0;
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    Random rng(seed);
    std::string bytes = body;
    for (uint64_t n = 1 + rng.Uniform(4); n > 0; --n) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<char>(1 + rng.Uniform(255));
    }
    const Status s = DecodeRecordView(bytes, &view);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), Code::kCorruption) << s.ToString();
      continue;
    }
    ++decoded;
    auto inside = [&bytes](Slice part) {
      return part.data() >= bytes.data() &&
             part.data() + part.size() <= bytes.data() + bytes.size();
    };
    for (const ChangeView& change : view.changes) {
      EXPECT_LE(static_cast<int>(change.op),
                static_cast<int>(Change::Op::kDelete));
      EXPECT_TRUE(inside(change.table));
      EXPECT_TRUE(inside(change.primary_key));
      EXPECT_TRUE(inside(change.row));
      EXPECT_OK(DecodeRow(change.row));
    }
  }
  // Flips inside the keys and values leave a valid view.
  EXPECT_GT(decoded, 0);
}

// The binlog keeps each commit once, as its record bytes: N single-row
// commits retain their records and one index entry each, plus the unused
// tail of each full block (less than one record) and one block. It counts
// the bytes its blocks and index hold, not RSS, so the test is
// deterministic.
TEST(BinlogTest, RetainedBytesAreTheRecordsAndOneIndexEntryEach) {
  constexpr int64_t kCommits = 20000;
  constexpr int64_t kBlock = static_cast<int64_t>(ByteBlocks::kBlockBytes);
  constexpr int64_t kIndexEntry = sizeof(ByteBlocks::Span);
  const std::string path = "/db/00000000000000000000.log";
  auto fs = io::NewMemFs();
  BinlogOptions options;
  options.data_dir = "/db";
  options.fs = fs.get();
  Database db("d", options);
  ASSERT_OK(db.CreateTable("profiles"));
  EXPECT_EQ(db.binlog().retained_bytes(), 0);
  int64_t largest_record = 0;  // the last: its SCN varint is the longest
  for (int64_t i = 0; i < kCommits; ++i) {
    auto before = fs->FileSize(path);
    ASSERT_OK(db.Put("profiles", "member:" + std::to_string(10000 + i % 1000),
                     Row{{"name", "member"}, {"headline", std::string(96, 'h')}}));
    auto after = fs->FileSize(path);
    ASSERT_OK(after);
    largest_record = after.value() - (before.ok() ? before.value() : 0);
  }
  auto records = fs->FileSize(path);
  ASSERT_OK(records);
  const int64_t retained = db.binlog().retained_bytes();
  const int64_t kept = records.value() + kCommits * kIndexEntry;
  EXPECT_GE(retained, kept);
  const int64_t full_blocks = records.value() / (kBlock - largest_record);
  EXPECT_LE(retained, kept + full_blocks * largest_record + kBlock)
      << records.value() << " B of records, the largest " << largest_record
      << " B";
}

// The key of the commit with scn i + 1 in the recovery harness.
std::string KeyOf(int64_t i) {
  std::string key = "k";
  key += std::to_string(i % 7);
  return key;
}

// Seeded mutation harness for binlog recovery: 20 commits, then one
// damage (bit flips, a truncation, a record length overwritten with
// 2^32-1, or random bytes appended). Reopening keeps exactly the records
// before the first damaged byte, as committed, and the next commit follows
// them. Replay one seed with LIDI_BINLOG_SEED=<seed>.
TEST(BinlogRecoveryTest, SeededMutatedFilesKeepADenseCleanPrefix) {
  constexpr int kCommits = 20;
  const std::string path = "/db/00000000000000000000.log";
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("LIDI_BINLOG_SEED")) {
    seeds.push_back(std::strtoull(env, nullptr, 10));
  } else {
    for (uint64_t seed = 1; seed <= 200; ++seed) seeds.push_back(seed);
  }
  for (uint64_t seed : seeds) {
    const std::string seed_text = std::to_string(seed);
    SCOPED_TRACE("seed=" + seed_text + " (replay: LIDI_BINLOG_SEED=" +
                 seed_text + ")");
    Random rng(seed);
    auto fs = io::NewMemFs();
    BinlogOptions options;
    options.data_dir = "/db";
    options.fs = fs.get();

    std::vector<std::string> values;    // value committed at scn i + 1
    std::vector<size_t> record_end;     // file offset one past record i
    {
      Database db("d", options);
      ASSERT_OK(db.CreateTable("t"));
      for (int i = 0; i < kCommits; ++i) {
        values.push_back(rng.Bytes(1 + rng.Uniform(40)));
        ASSERT_OK(db.Put("t", KeyOf(i), Row{{"v", values.back()}}));
        auto size = fs->FileSize(path);
        ASSERT_OK(size);
        record_end.push_back(static_cast<size_t>(size.value()));
      }
    }
    std::string original;
    ASSERT_OK(fs->ReadFile(path, &original));
    std::string file = original;
    switch (rng.Uniform(4)) {
      case 0:  // flip one to eight bits
        for (uint64_t n = 1 + rng.Uniform(8); n > 0; --n) {
          file[rng.Uniform(file.size())] ^=
              static_cast<char>(1 << rng.Uniform(8));
        }
        break;
      case 1:  // cut the file short
        file.resize(rng.Uniform(file.size()));
        break;
      case 2: {  // one record claims a 2^32-1 byte body
        const size_t record = rng.Uniform(kCommits);
        file.replace(record == 0 ? 0 : record_end[record - 1], 4,
                     "ÿÿÿÿ", 4);
        break;
      }
      default:  // random bytes after the last record
        for (uint64_t n = 1 + rng.Uniform(64); n > 0; --n) {
          file.push_back(static_cast<char>(rng.Next()));
        }
        break;
    }
    ASSERT_OK(fs->TruncateFile(path, 0));
    {
      auto out = fs->OpenAppend(path);
      ASSERT_OK(out);
      ASSERT_OK(out.value()->Append(file));
    }
    // Records that end before the first changed byte are intact.
    const size_t first_changed =
        std::mismatch(file.begin(),
                      file.begin() + std::min(file.size(), original.size()),
                      original.begin())
            .first -
        file.begin();
    int64_t clean = 0;
    while (clean < kCommits && record_end[clean] <= first_changed) ++clean;

    int64_t recovered = 0;
    {
      Database db("d", options);
      recovered = db.binlog().LastScn();
      EXPECT_EQ(recovered, clean);
      const auto txns = Logged(db.binlog(), 0, kCommits + 1);
      ASSERT_EQ(static_cast<int64_t>(txns.size()), recovered);
      for (int64_t i = 0; i < recovered; ++i) {
        ASSERT_EQ(txns[i].scn, i + 1);
        ASSERT_EQ(txns[i].changes.size(), 1u);
        EXPECT_EQ(txns[i].changes[0].primary_key.ToString(), KeyOf(i));
        EXPECT_EQ(RowOf(txns[i].changes[0]).at("v"), values[i]);
      }
      ASSERT_OK(db.CreateTable("t"));
      auto next = db.Put("t", "next", Row{{"v", "after"}});
      ASSERT_OK(next);
      EXPECT_EQ(next.value(), recovered + 1);
    }
    Database reopened("d", options);
    EXPECT_EQ(reopened.binlog().LastScn(), recovered + 1);
  }
}

}  // namespace
}  // namespace lidi::sqlstore
