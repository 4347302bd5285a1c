#ifndef LIDI_SQLSTORE_DATABASE_H_
#define LIDI_SQLSTORE_DATABASE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/blocks.h"
#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "io/file.h"
#include "io/segment_log.h"
#include "obs/metrics.h"

namespace lidi::sqlstore {

/// A row: column name -> value bytes. Schema-light — Espresso stores the
/// serialized document in a `val` column plus metadata columns (Table IV.1);
/// Databus ships whole post-image rows.
using Row = std::map<std::string, std::string>;

/// Serialized row codec (length-prefixed column/value pairs).
void EncodeRow(const Row& row, std::string* out);
Result<Row> DecodeRow(Slice input);
/// Bytes EncodeRow appends for `row`.
size_t EncodedRowSize(const Row& row);

/// One change within a transaction.
struct Change {
  enum class Op : uint8_t { kInsert = 0, kUpdate = 1, kDelete = 2 };
  Op op = Op::kInsert;
  std::string table;
  std::string primary_key;
  /// Post-image row, empty for deletes.
  Row row;
  /// Logical partition of the primary key; -1 when the database is
  /// un-partitioned. Espresso shards its binlog per partition (IV.B).
  int partition = -1;
};

/// One change of a logged transaction, decoded in place: its slices point
/// into the transaction's binlog record.
struct ChangeView {
  Change::Op op = Change::Op::kInsert;
  int partition = -1;
  Slice table{};
  Slice primary_key{};
  /// The post-image row in its EncodeRow encoding (an empty row for a
  /// delete).
  Slice row{};
};

/// A committed transaction as its binlog record holds it: the paper's
/// "transaction envelope" with commit order and atomic boundaries (Section
/// III.B: capture transaction boundaries, the commit order, and all
/// changes), decoded in place.
struct RecordView {
  int64_t scn = 0;  // commit sequence number, dense and increasing
  std::vector<ChangeView> changes;
};

/// Decodes a binlog record body (the bytes after its length and CRC) in
/// place into `*record`, whose change vector keeps its capacity. Corruption
/// if the body is truncated or runs past its last change, or a field is out
/// of range: an SCN above int64_t, an unknown op, a partition outside int,
/// or a row that does not decode to exactly its bytes.
Status DecodeRecordView(Slice body, RecordView* record);

/// Durability knobs for the binlog (the MySQL-binlog stand-in the Databus
/// pipeline tails, Section III.B).
struct BinlogOptions {
  /// When non-empty, every committed transaction is appended to the log's
  /// segment file, "<data_dir>/00000000000000000000.log" (io::SegmentLog),
  /// before its SCN is acknowledged, and a new Binlog replays the file on
  /// construction (torn trailing records are truncated). Empty = in-memory
  /// only.
  std::string data_dir;
  /// Filesystem writes go through; null = the process-wide fd-based POSIX
  /// fs. Tests inject io::MemFs / io::FaultFs here.
  io::Fs* fs = nullptr;
  /// Default kAlways — the sync_binlog=1 stance: an acknowledged commit is
  /// crash-durable. Source-of-truth stores pay the fsync; the paper's
  /// pipeline depends on the binlog never losing acknowledged commits.
  io::SyncPolicy sync = io::SyncPolicy::kAlways;
  int64_t sync_interval_bytes = 1 << 20;
  /// Group commit (kAlways only): concurrent committers share one covering
  /// fdatasync instead of paying one each — the first waiter leads the sync,
  /// the rest park and are acknowledged when the leader's sync covers their
  /// record (DESIGN.md §7). Acked-commit-loss semantics are unchanged: an
  /// SCN is still only acknowledged after a covering fdatasync. Ignored
  /// unless sync == kAlways.
  bool group_commit = false;
  /// Registry for the durability instruments ("io.sync.count",
  /// "io.write.failed", "io.recovery.torn_truncations", labeled
  /// layer=sqlstore.binlog). Null = not instrumented.
  obs::MetricsRegistry* metrics = nullptr;
};

/// The commit-ordered replication log. Replayable from any SCN — the
/// property Databus relies on to keep relays stateless (Section III.D).
class Binlog {
 public:
  Binlog() : Binlog(BinlogOptions{}) {}
  explicit Binlog(BinlogOptions options);

  /// Appends a transaction of `changes`, encoded into its record, and
  /// returns the SCN it is assigned. In persistent mode the record reaches
  /// the file (and, per the sync policy, stable storage) *before* the SCN is
  /// assigned; a failed persist returns the I/O error, assigns no SCN, and
  /// leaves the log exactly as it was.
  Result<int64_t> Append(const std::vector<Change>& changes);

  /// The record bodies of the transactions with scn > from_scn, up to
  /// max_count, for DecodeRecordView. `from_scn = 0` replays from the
  /// beginning. The log is append-only: every body ReadAfter lends stays
  /// valid, and its bytes unchanged, for the Binlog's lifetime.
  std::vector<Slice> ReadAfter(int64_t from_scn, int64_t max_count) const;

  int64_t LastScn() const;
  int64_t TransactionCount() const;

  /// Highest SCN covered by a successful fdatasync — the commit the binlog
  /// promises survives a power loss. Tracks LastScn() under kAlways, and in
  /// in-memory mode (nothing to survive a crash with).
  int64_t DurableScn() const;

  /// Non-OK when construction-time replay hit a problem it refuses to paper
  /// over (unreadable file, failed torn-tail truncation), or when a failed
  /// append could not be rolled off the file — after which further appends
  /// are refused rather than buried behind unacknowledged bytes
  /// (io::SegmentLog's failure rules).
  Status recovery_status() const;

  /// Bytes the record blocks and the SCN index hold.
  int64_t retained_bytes() const;

  /// Number of ReadAfter calls served — the "load on the source" metric the
  /// consumer-isolation bench (E9) reports: it must not grow with the number
  /// of downstream Databus consumers.
  int64_t ReadCalls() const;

 private:
  /// One staged-but-not-yet-durable transaction (group mode): indexed when
  /// a covering group sync lands, dropped when the sync fails.
  struct Pending {
    ByteBlocks::Span record;
    /// Log offset one past this transaction's record — durable once the
    /// synced frontier reaches it.
    int64_t end_bytes = 0;
  };

  /// Encodes the record of `changes` at next_scn_ into the blocks, past
  /// every record before it.
  ByteBlocks::Span EncodeLocked(const std::vector<Change>& changes)
      LIDI_REQUIRES(mu_);
  /// Recovery scan of a segment file: indexes each CRC-valid record that
  /// decodes and carries the next dense SCN; returns the bytes they take.
  int64_t ReplayLocked(Slice data) LIDI_REQUIRES(mu_);
  /// Runs after each group sync, in the critical section that moved the
  /// synced frontier (indexes the covered pending records) or rolled the
  /// file back (drops the staged records and takes their SCNs back, so the
  /// next commit's SCN follows the last durable one at the offset it takes).
  void OnGroupSyncLocked(const Status& synced) LIDI_REQUIRES(mu_);

  const BinlogOptions options_;

  mutable Mutex mu_{"sqlstore.binlog"};
  /// Every record, as the file holds it. Nothing is dropped but a record
  /// whose commit failed, which lies past every indexed one, so the bodies
  /// ReadAfter lends stay put while later commits are appended.
  ByteBlocks blocks_ LIDI_GUARDED_BY(mu_);
  /// Where each acknowledged-durable transaction's record lies; scn N at
  /// index N-1. In group mode a record sits in pending_ between its write
  /// and its covering sync, so readers (ReadAfter / LastScn — i.e.
  /// replication) only ever see durable commits.
  std::deque<ByteBlocks::Span> index_ LIDI_GUARDED_BY(mu_);
  std::vector<Pending> pending_ LIDI_GUARDED_BY(mu_);
  int64_t next_scn_ LIDI_GUARDED_BY(mu_) = 1;
  int64_t durable_scn_ LIDI_GUARDED_BY(mu_) = 0;
  mutable int64_t read_calls_ LIDI_GUARDED_BY(mu_) = 0;
  /// The segment file (persistent mode; null in memory). mu_ guards its
  /// state; in group mode its leader syncs with mu_ released.
  const std::unique_ptr<io::SegmentLog> log_;
};

/// A transactional, binlogged row store — the primary-database substrate
/// standing in for Oracle/MySQL (see DESIGN.md). Transactions are atomic
/// and serialized by a commit lock, giving the strong commit ordering the
/// Databus pipeline captures. Thread-safe.
class Database {
 public:
  explicit Database(std::string name, BinlogOptions binlog_options = {})
      : name_(std::move(name)), binlog_(std::move(binlog_options)) {}

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const { return name_; }

  Status CreateTable(const std::string& table);
  bool HasTable(const std::string& table) const;
  std::vector<std::string> Tables() const;

  /// Sets the partition function applied to primary keys (nullptr = no
  /// partitioning). Affects Change::partition for subsequent commits.
  void SetPartitionFunction(std::function<int(Slice)> fn);

  /// A read-modify-write unit. Writes are buffered until Commit, which
  /// atomically applies them and appends one binlog transaction. Not
  /// thread-safe itself; one per thread.
  class Transaction {
   public:
    explicit Transaction(Database* db) : db_(db) {}

    /// Buffers an insert-or-update of `row` under `primary_key`.
    void Put(const std::string& table, const std::string& primary_key,
             Row row);
    void Delete(const std::string& table, const std::string& primary_key);

    /// Atomically applies all buffered changes. Returns the assigned SCN.
    /// Fails (and applies nothing) if any table is missing or the binlog
    /// append fails. The transaction must not be reused after Commit.
    Result<int64_t> Commit();

    /// Discards buffered changes.
    void Abort() { changes_.clear(); }

    int64_t change_count() const {
      return static_cast<int64_t>(changes_.size());
    }

   private:
    Database* db_;
    std::vector<Change> changes_;
  };

  Transaction Begin() { return Transaction(this); }

  /// Convenience single-row transactional write.
  Result<int64_t> Put(const std::string& table, const std::string& primary_key,
                      Row row);
  Result<int64_t> Delete(const std::string& table,
                         const std::string& primary_key);

  /// Point read. NotFound if the row or table is absent.
  Result<Row> Get(const std::string& table,
                  const std::string& primary_key) const;

  /// Scan of a table in primary-key order. Visitor returns false to stop.
  Status Scan(const std::string& table,
              const std::function<bool(const std::string& primary_key,
                                       const Row& row)>& visitor) const;

  int64_t RowCount(const std::string& table) const;

  const Binlog& binlog() const { return binlog_; }

  /// Crash-restart entry point: rebuilds the in-memory tables from the
  /// transactions the binlog recovered on construction (construct with the
  /// same data_dir, then call this once, before serving). Creates missing
  /// tables. Returns rows applied.
  int64_t ReplayBinlog();

 private:
  /// Logs `*changes`, then moves each key and row into its table.
  Result<int64_t> CommitChanges(std::vector<Change>* changes);

  const std::string name_;
  /// Lock order: commit_mu_ -> mu_ -> binlog_.mu_ (Append). mu_ is never
  /// held across the binlog append.
  mutable Mutex mu_{"sqlstore.database"};
  /// Table name -> rows by primary key (hash-indexed; Scan sorts).
  std::map<std::string, std::unordered_map<std::string, Row>> tables_
      LIDI_GUARDED_BY(mu_);
  std::function<int(Slice)> partition_fn_ LIDI_GUARDED_BY(mu_);
  // tsa-ok: Binlog is internally synchronized (its own mutex, a leaf in
  // the commit lock order documented above).
  Binlog binlog_;
  Mutex commit_mu_{
      "sqlstore.commit"};  // serializes commits -> strict commit order
};

}  // namespace lidi::sqlstore

#endif  // LIDI_SQLSTORE_DATABASE_H_
