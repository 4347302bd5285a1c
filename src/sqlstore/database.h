#ifndef LIDI_SQLSTORE_DATABASE_H_
#define LIDI_SQLSTORE_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/slice.h"
#include "common/status.h"
#include "common/sync.h"
#include "io/file.h"
#include "io/group_commit.h"
#include "obs/metrics.h"

namespace lidi::sqlstore {

/// A row: column name -> value bytes. Schema-light — Espresso stores the
/// serialized document in a `val` column plus metadata columns (Table IV.1);
/// Databus ships whole post-image rows.
using Row = std::map<std::string, std::string>;

/// Serialized row codec (length-prefixed column/value pairs).
void EncodeRow(const Row& row, std::string* out);
Result<Row> DecodeRow(Slice input);

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

/// A committed transaction in the binlog: the paper's "transaction envelope"
/// with commit order and atomic boundaries (Section III.B: capture
/// transaction boundaries, the commit order, and all changes).
struct CommittedTransaction {
  int64_t scn = 0;  // commit sequence number, dense and increasing
  std::vector<Change> changes;
};

/// Durability knobs for the binlog (the MySQL-binlog stand-in the Databus
/// pipeline tails, Section III.B).
struct BinlogOptions {
  /// When non-empty, every committed transaction is appended to
  /// "<data_dir>/binlog.seg" before its SCN is acknowledged, and a new
  /// Binlog replays the file on construction (torn trailing records are
  /// truncated). Empty = in-memory only.
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
  /// unless sync == kAlways; incompatible with (and disabled by)
  /// legacy_advance_on_failed_write.
  bool group_commit = false;
  /// Registry for the durability instruments ("io.sync.count",
  /// "io.write.failed", "io.recovery.torn_truncations", labeled
  /// layer=sqlstore.binlog). Null = not instrumented.
  obs::MetricsRegistry* metrics = nullptr;
  /// TEST-ONLY. Re-introduces the historical persisted_bytes bug (fixed in
  /// the durable-I/O PR): a failed append advances the acknowledged-bytes
  /// frontier without rolling the file back, so later appends bury the torn
  /// record and crash recovery silently stops before every later acked
  /// commit. Exists so the simulation harness can demonstrate its
  /// no-acked-commit-lost invariant re-finding a real, previously shipped
  /// bug (DESIGN.md §9). Never set outside tests.
  bool legacy_advance_on_failed_write = false;
};

/// The commit-ordered replication log. Replayable from any SCN — the
/// property Databus relies on to keep relays stateless (Section III.D).
class Binlog {
 public:
  Binlog() : Binlog(BinlogOptions{}) {}
  explicit Binlog(BinlogOptions options);

  /// Appends a transaction, assigning the next SCN. In persistent mode the
  /// encoded record reaches the file (and, per the sync policy, stable
  /// storage) *before* the SCN is assigned; a failed persist returns the
  /// I/O error, assigns no SCN, and leaves the log exactly as it was.
  Result<int64_t> Append(std::vector<Change> changes);

  /// Transactions with scn > from_scn, up to max_count. `from_scn = 0`
  /// replays from the beginning.
  std::vector<CommittedTransaction> ReadAfter(int64_t from_scn,
                                              int64_t max_count) const;

  int64_t LastScn() const;
  int64_t TransactionCount() const;

  /// Highest SCN covered by a successful fdatasync — the commit the binlog
  /// promises survives a power loss. Tracks LastScn() under kAlways, and in
  /// in-memory mode (nothing to survive a crash with).
  int64_t DurableScn() const;

  /// Non-OK when construction-time replay hit a problem it refuses to paper
  /// over (unreadable file, failed torn-tail truncation), or when a failed
  /// append could not be rolled off the file — after which further appends
  /// are refused rather than buried behind unacknowledged bytes.
  Status recovery_status() const;

  /// Number of ReadAfter calls served — the "load on the source" metric the
  /// consumer-isolation bench (E9) reports: it must not grow with the number
  /// of downstream Databus consumers.
  int64_t ReadCalls() const;

 private:
  /// One staged-but-not-yet-durable transaction (group mode): promoted into
  /// log_ when a covering group sync lands, dropped (with the file rolled
  /// back) when the sync fails.
  struct Pending {
    CommittedTransaction txn;
    /// File offset one past this transaction's record — durable once
    /// synced_bytes_ reaches it.
    int64_t end_bytes = 0;
  };

  std::string FilePath() const;
  bool group_mode() const { return group_ != nullptr; }
  /// Writes (no sync) one encoded record, advancing persisted_bytes_; on
  /// failure rolls the file back to the last acknowledged byte.
  Status StageLocked(const CommittedTransaction& txn) LIDI_REQUIRES(mu_);
  Status PersistLocked(const CommittedTransaction& txn) LIDI_REQUIRES(mu_);
  /// Group-commit sync body (called by the committer with mu_ free): one
  /// covering fdatasync, then promote covered pending transactions — or, on
  /// failure, roll the file back to the durable frontier and drop the
  /// in-flight batch so no waiter is falsely acknowledged.
  Result<int64_t> GroupSyncNow() LIDI_EXCLUDES(mu_);
  void RecoverLocked() LIDI_REQUIRES(mu_);

  const BinlogOptions options_;
  // tsa-ok: set once during construction; null = in-memory only.
  io::Fs* fs_ = nullptr;
  obs::Counter* sync_count_ = nullptr;
  obs::Counter* write_failed_ = nullptr;
  obs::Counter* torn_truncations_ = nullptr;

  /// Non-null iff group commit is active (fs-backed, kAlways, group_commit
  /// set, legacy bug knob off). Its mutex is a leaf under mu_.
  // tsa-ok: set once during construction; the committer is internally
  // synchronized.
  std::unique_ptr<io::GroupCommitter> group_;

  mutable Mutex mu_{"sqlstore.binlog"};
  /// Acknowledged-durable transactions. In group mode a transaction sits in
  /// pending_ between its write and its covering sync, so readers
  /// (ReadAfter / LastScn — i.e. replication) only ever see durable commits.
  std::vector<CommittedTransaction> log_ LIDI_GUARDED_BY(mu_);
  std::vector<Pending> pending_ LIDI_GUARDED_BY(mu_);
  int64_t next_scn_ LIDI_GUARDED_BY(mu_) = 1;
  int64_t durable_scn_ LIDI_GUARDED_BY(mu_) = 0;
  /// Bytes of acknowledged records in the file (rollback target).
  int64_t persisted_bytes_ LIDI_GUARDED_BY(mu_) = 0;
  /// Bytes covered by a successful fdatasync (group-mode rollback target:
  /// everything past it is indeterminate after a failed sync). The
  /// interval policy syncs once persisted_bytes_ - synced_bytes_ reaches
  /// sync_interval_bytes.
  int64_t synced_bytes_ LIDI_GUARDED_BY(mu_) = 0;
  /// Set when the file holds bytes we could not take back (failed rollback
  /// truncate) — appending past them would bury unacknowledged data.
  bool damaged_ LIDI_GUARDED_BY(mu_) = false;
  Status recovery_status_ LIDI_GUARDED_BY(mu_);
  /// shared_ptr: the group leader copies the handle under mu_ and syncs it
  /// with mu_ released, racing rollback paths that file_.reset().
  std::shared_ptr<io::WritableFile> file_ LIDI_GUARDED_BY(mu_);
  mutable int64_t read_calls_ LIDI_GUARDED_BY(mu_) = 0;
};

/// Row-level trigger (the *other* capture approach of Section III.C; also
/// the in-server processing the paper contrasts with Databus' user-space
/// processing). Fired synchronously inside commit.
using Trigger = std::function<void(const Change& change, int64_t scn)>;

/// Callback invoked before a commit is acknowledged — the semi-synchronous
/// replication hook (Section IV.B Robustness: "Each change is written to two
/// places before being committed -- the local MySQL binlog and the Databus
/// relay"). Returning non-OK fails the commit.
using SemiSyncCallback =
    std::function<Status(const CommittedTransaction& txn)>;

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

  /// Registers a trigger fired (synchronously) for every committed change.
  void AddTrigger(Trigger trigger);

  /// Installs the semi-sync commit hook.
  void SetSemiSyncCallback(SemiSyncCallback callback);

  /// A read-modify-write unit. Writes are buffered until Commit, which
  /// atomically applies them, appends one binlog transaction and fires
  /// triggers/semi-sync. Not thread-safe itself; one per thread.
  class Transaction {
   public:
    explicit Transaction(Database* db) : db_(db) {}

    /// Buffers an insert-or-update of `row` under `primary_key`.
    void Put(const std::string& table, const std::string& primary_key,
             Row row);
    void Delete(const std::string& table, const std::string& primary_key);

    /// Atomically applies all buffered changes. Returns the assigned SCN.
    /// Fails (and applies nothing) if any table is missing or the semi-sync
    /// hook rejects. The transaction must not be reused after Commit.
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

  /// Ordered scan of a table. Visitor returns false to stop.
  Status Scan(const std::string& table,
              const std::function<bool(const std::string& primary_key,
                                       const Row& row)>& visitor) const;

  int64_t RowCount(const std::string& table) const;

  const Binlog& binlog() const { return binlog_; }

  /// Crash-restart entry point: rebuilds the in-memory tables from the
  /// transactions the binlog recovered on construction (construct with the
  /// same data_dir, then call this once, before serving). Creates missing
  /// tables. Triggers and semi-sync hooks are NOT fired — every replayed
  /// change was acknowledged in a previous life. Returns rows applied.
  int64_t ReplayBinlog();

 private:
  Result<int64_t> CommitChanges(std::vector<Change>* changes);

  const std::string name_;
  /// Lock order: commit_mu_ -> mu_ -> binlog_.mu_ (Append). mu_ is never
  /// held across the binlog append, triggers, or the semi-sync hook.
  mutable Mutex mu_{"sqlstore.database"};
  std::map<std::string, std::map<std::string, Row>> tables_
      LIDI_GUARDED_BY(mu_);
  std::function<int(Slice)> partition_fn_ LIDI_GUARDED_BY(mu_);
  std::vector<Trigger> triggers_ LIDI_GUARDED_BY(mu_);
  SemiSyncCallback semi_sync_ LIDI_GUARDED_BY(mu_);
  // tsa-ok: Binlog is internally synchronized (its own mutex, a leaf in
  // the commit lock order documented above).
  Binlog binlog_;
  Mutex commit_mu_{
      "sqlstore.commit"};  // serializes commits -> strict commit order
};

}  // namespace lidi::sqlstore

#endif  // LIDI_SQLSTORE_DATABASE_H_
