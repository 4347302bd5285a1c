#include "sqlstore/database.h"

#include <algorithm>

#include "common/coding.h"
#include "common/hash.h"

namespace lidi::sqlstore {

void EncodeRow(const Row& row, std::string* out) {
  PutVarint64(out, row.size());
  for (const auto& [column, value] : row) {
    PutLengthPrefixed(out, column);
    PutLengthPrefixed(out, value);
  }
}

Result<Row> DecodeRow(Slice input) {
  uint64_t count;
  if (!GetVarint64(&input, &count)) return Status::Corruption("truncated row");
  Row row;
  for (uint64_t i = 0; i < count; ++i) {
    Slice column, value;
    if (!GetLengthPrefixed(&input, &column) ||
        !GetLengthPrefixed(&input, &value)) {
      return Status::Corruption("truncated row column");
    }
    row[column.ToString()] = value.ToString();
  }
  return row;
}

namespace {

// Binlog file record:
//   fixed32 body length
//   fixed32 crc (over body)
//   body: varint scn, varint change count, then per change:
//         u8 op, zigzag partition, LP table, LP primary key, LP encoded row
void EncodeTransaction(const CommittedTransaction& txn, std::string* out) {
  std::string body;
  PutVarint64(&body, static_cast<uint64_t>(txn.scn));
  PutVarint64(&body, txn.changes.size());
  for (const Change& change : txn.changes) {
    body.push_back(static_cast<char>(change.op));
    PutZigZag64(&body, change.partition);
    PutLengthPrefixed(&body, change.table);
    PutLengthPrefixed(&body, change.primary_key);
    std::string row_bytes;
    EncodeRow(change.row, &row_bytes);
    PutLengthPrefixed(&body, row_bytes);
  }
  PutFixed32(out, static_cast<uint32_t>(body.size()));
  PutFixed32(out, Crc32(body));
  out->append(body);
}

bool DecodeTransactionBody(Slice body, CommittedTransaction* txn) {
  uint64_t scn, count;
  if (!GetVarint64(&body, &scn) || !GetVarint64(&body, &count)) return false;
  txn->scn = static_cast<int64_t>(scn);
  txn->changes.clear();
  for (uint64_t i = 0; i < count; ++i) {
    if (body.empty()) return false;
    Change change;
    const uint8_t op = static_cast<uint8_t>(body[0]);
    if (op > static_cast<uint8_t>(Change::Op::kDelete)) return false;
    change.op = static_cast<Change::Op>(op);
    body.RemovePrefix(1);
    int64_t partition;
    Slice table, pk, row_bytes;
    if (!GetZigZag64(&body, &partition) ||
        !GetLengthPrefixed(&body, &table) || !GetLengthPrefixed(&body, &pk) ||
        !GetLengthPrefixed(&body, &row_bytes)) {
      return false;
    }
    change.partition = static_cast<int>(partition);
    change.table = table.ToString();
    change.primary_key = pk.ToString();
    auto row = DecodeRow(row_bytes);
    if (!row.ok()) return false;
    change.row = std::move(row.value());
    txn->changes.push_back(std::move(change));
  }
  return body.empty();
}

}  // namespace

Binlog::Binlog(BinlogOptions options)
    : options_(std::move(options)),
      fs_(options_.data_dir.empty()
              ? nullptr
              : (options_.fs != nullptr ? options_.fs : io::DefaultFs())) {
  if (options_.metrics != nullptr) {
    const obs::Labels labels{{"layer", "sqlstore.binlog"}};
    sync_count_ = options_.metrics->GetCounter("io.sync.count", labels);
    write_failed_ = options_.metrics->GetCounter("io.write.failed", labels);
    torn_truncations_ =
        options_.metrics->GetCounter("io.recovery.torn_truncations", labels);
  }
  if (fs_ != nullptr) {
    MutexLock lock(&mu_);
    RecoverLocked();
  }
  if (fs_ != nullptr && options_.sync == io::SyncPolicy::kAlways &&
      options_.group_commit && !options_.legacy_advance_on_failed_write) {
    io::GroupCommitOptions group_options;
    group_options.metrics = options_.metrics;
    group_options.layer = "sqlstore.binlog";
    group_ = std::make_unique<io::GroupCommitter>(
        [this] { return GroupSyncNow(); }, group_options);
  }
}

std::string Binlog::FilePath() const { return options_.data_dir + "/binlog.seg"; }

/// Replays the binlog file: CRC-validated records extend the in-memory log;
/// the scan stops at the first torn or corrupt record (or an SCN breaking
/// the dense order) and truncates the file there, so the next append lands
/// right after the last intact transaction.
void Binlog::RecoverLocked() {
  Status s = fs_->CreateDirs(options_.data_dir);
  if (!s.ok()) {
    recovery_status_ = s;
    damaged_ = true;
    return;
  }
  const std::string path = FilePath();
  if (!fs_->FileExists(path)) return;
  std::string data;
  s = fs_->ReadFile(path, &data);
  if (!s.ok()) {
    recovery_status_ = s;
    damaged_ = true;  // the file has bytes we cannot see; never append blind
    return;
  }
  size_t offset = 0;
  while (true) {
    Slice in(data.data() + offset, data.size() - offset);
    uint32_t length, crc;
    if (!GetFixed32(&in, &length) || !GetFixed32(&in, &crc)) break;
    if (in.size() < length) break;  // torn tail
    Slice body(in.data(), length);
    if (Crc32(body) != crc) break;  // torn or corrupt record
    CommittedTransaction txn;
    if (!DecodeTransactionBody(body, &txn)) break;
    if (txn.scn != next_scn_) break;  // dense commit order violated
    log_.push_back(std::move(txn));
    next_scn_++;
    offset += 8 + length;
  }
  if (offset < data.size()) {
    if (torn_truncations_ != nullptr) torn_truncations_->Increment();
    Status t = fs_->TruncateFile(path, static_cast<int64_t>(offset));
    if (!t.ok()) {
      recovery_status_ = t;
      if (write_failed_ != nullptr) write_failed_->Increment();
      damaged_ = true;  // garbage stays past offset; appends must not follow
    }
  }
  persisted_bytes_ = static_cast<int64_t>(offset);
  synced_bytes_ = persisted_bytes_;
  durable_scn_ = next_scn_ - 1;  // everything replayed is on stable storage
}

/// Write-only half of the persist: encodes the record, appends it, and
/// advances persisted_bytes_ on full acceptance. On failure the file is
/// rolled back to the last acknowledged byte (or, if even that fails, the
/// binlog declares itself damaged and refuses all further appends — the
/// loud alternative to silently burying an unacknowledged record).
Status Binlog::StageLocked(const CommittedTransaction& txn) {
  if (damaged_) {
    return Status::IOError("binlog damaged (unacked bytes on disk): " +
                           recovery_status_.message());
  }
  std::string record;
  EncodeTransaction(txn, &record);
  if (file_ == nullptr) {
    auto file = fs_->OpenAppend(FilePath());
    if (!file.ok()) {
      if (write_failed_ != nullptr) write_failed_->Increment();
      return file.status();
    }
    file_ = std::move(file.value());
  }
  int64_t accepted = 0;
  Status s = file_->Append(record, &accepted);
  if (s.ok() && accepted < static_cast<int64_t>(record.size())) {
    s = Status::IOError("short binlog write");
  }
  if (!s.ok()) {
    if (write_failed_ != nullptr) write_failed_->Increment();
    if (options_.legacy_advance_on_failed_write) {
      // The re-introduced bug: pretend the record landed. The file holds a
      // torn prefix that the next append will bury; recovery stops there.
      persisted_bytes_ += static_cast<int64_t>(record.size());
      return s;
    }
    file_.reset();
    Status t = fs_->TruncateFile(FilePath(), persisted_bytes_);
    if (!t.ok()) {
      damaged_ = true;
      if (recovery_status_.ok()) recovery_status_ = t;
    }
    return s;
  }
  persisted_bytes_ += static_cast<int64_t>(record.size());
  return Status::OK();
}

/// All-or-nothing persist of one transaction record (non-group path): the
/// write via StageLocked, then the policy-mandated inline sync. A failed
/// sync rolls the freshly written record back off the file too — the record
/// must not surface after a restart when its commit reported failure.
Status Binlog::PersistLocked(const CommittedTransaction& txn) {
  if (fs_ == nullptr) return Status::OK();
  const int64_t record_start = persisted_bytes_;
  Status s = StageLocked(txn);
  if (!s.ok()) return s;
  const bool sync_due =
      options_.sync == io::SyncPolicy::kAlways ||
      (options_.sync == io::SyncPolicy::kInterval &&
       persisted_bytes_ - synced_bytes_ >= options_.sync_interval_bytes);
  if (!sync_due) return Status::OK();
  // sync-choke-point: inline per-commit fdatasync (non-group kAlways, and
  // interval-policy threshold syncs).
  s = file_->Sync();
  if (s.ok()) {
    if (sync_count_ != nullptr) sync_count_->Increment();
    synced_bytes_ = persisted_bytes_;
    durable_scn_ = txn.scn;
    return Status::OK();
  }
  if (write_failed_ != nullptr) write_failed_->Increment();
  if (options_.legacy_advance_on_failed_write) return s;
  file_.reset();
  persisted_bytes_ = record_start;
  Status t = fs_->TruncateFile(FilePath(), persisted_bytes_);
  if (!t.ok()) {
    damaged_ = true;
    if (recovery_status_.ok()) recovery_status_ = t;
  }
  return s;
}

Result<int64_t> Binlog::Append(std::vector<Change> changes) {
  if (!group_mode()) {
    MutexLock lock(&mu_);
    CommittedTransaction txn;
    txn.scn = next_scn_;  // assigned for real only if the persist succeeds
    txn.changes = std::move(changes);
    Status s = PersistLocked(txn);
    if (!s.ok()) return s;
    next_scn_++;
    log_.push_back(std::move(txn));
    if (fs_ == nullptr) durable_scn_ = log_.back().scn;
    return log_.back().scn;
  }
  // Group commit: write the record under mu_, then hand the fdatasync to
  // the committer with mu_ RELEASED — concurrent committers stage into the
  // same batch while the leader's sync is in flight, and one covering sync
  // acknowledges them all. The epoch is captured BEFORE staging: if a
  // failed group sync rolls the file back at any point after this capture,
  // SyncTo refuses to acknowledge (see io/group_commit.h — false errors are
  // safe, false acks are not).
  const uint64_t staged_epoch = group_->epoch();
  int64_t scn = 0;
  int64_t target = 0;
  {
    MutexLock lock(&mu_);
    CommittedTransaction txn;
    txn.scn = next_scn_;
    txn.changes = std::move(changes);
    Status s = StageLocked(txn);
    if (!s.ok()) return s;
    scn = txn.scn;
    next_scn_++;
    pending_.push_back(Pending{std::move(txn), persisted_bytes_});
    target = persisted_bytes_;
  }
  Status s = group_->SyncTo(target, staged_epoch);
  if (!s.ok()) return s;
  return scn;
}

Result<int64_t> Binlog::GroupSyncNow() {
  std::shared_ptr<io::WritableFile> file;
  int64_t covered = 0;
  {
    MutexLock lock(&mu_);
    file = file_;
    covered = persisted_bytes_;
    if (file == nullptr || covered <= synced_bytes_) return synced_bytes_;
  }
  // sync-choke-point: the group leader's one covering fdatasync — the only
  // sync the group-commit path ever issues, with mu_ released so committers
  // keep staging the next batch.
  Status s = file->Sync();
  MutexLock lock(&mu_);
  if (s.ok()) {
    if (sync_count_ != nullptr) sync_count_->Increment();
    synced_bytes_ = std::max(synced_bytes_, covered);
    // Promote covered pending transactions, in stage order — log_ stays
    // dense and holds only durable commits.
    size_t promoted = 0;
    while (promoted < pending_.size() &&
           pending_[promoted].end_bytes <= synced_bytes_) {
      ++promoted;
    }
    for (size_t i = 0; i < promoted; ++i) {
      durable_scn_ = pending_[i].txn.scn;
      log_.push_back(std::move(pending_[i].txn));
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<int64_t>(promoted));
    return synced_bytes_;
  }
  // Failed group sync: every byte past the last covering sync is
  // indeterminate on disk. Roll the file back to the durable frontier and
  // drop the in-flight batch — the committer bumps its epoch, so every
  // staged waiter gets an error instead of a false acknowledgement.
  if (write_failed_ != nullptr) write_failed_->Increment();
  file_.reset();
  Status t = fs_->TruncateFile(FilePath(), synced_bytes_);
  if (!t.ok()) {
    damaged_ = true;
    if (recovery_status_.ok()) recovery_status_ = t;
  }
  persisted_bytes_ = synced_bytes_;
  pending_.clear();
  next_scn_ = log_.empty() ? 1 : log_.back().scn + 1;
  return s;
}

int64_t Binlog::DurableScn() const {
  MutexLock lock(&mu_);
  return durable_scn_;
}

Status Binlog::recovery_status() const {
  MutexLock lock(&mu_);
  return recovery_status_;
}

std::vector<CommittedTransaction> Binlog::ReadAfter(int64_t from_scn,
                                                    int64_t max_count) const {
  MutexLock lock(&mu_);
  ++read_calls_;
  std::vector<CommittedTransaction> out;
  // SCNs are dense starting at 1, so the offset is direct.
  int64_t start_index = from_scn;  // scn N lives at index N-1; read after it
  for (int64_t i = start_index;
       i < static_cast<int64_t>(log_.size()) &&
       static_cast<int64_t>(out.size()) < max_count;
       ++i) {
    out.push_back(log_[i]);
  }
  return out;
}

int64_t Binlog::LastScn() const {
  MutexLock lock(&mu_);
  return log_.empty() ? 0 : log_.back().scn;
}

int64_t Binlog::ReadCalls() const {
  MutexLock lock(&mu_);
  return read_calls_;
}

int64_t Binlog::TransactionCount() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(log_.size());
}

Status Database::CreateTable(const std::string& table) {
  MutexLock lock(&mu_);
  if (tables_.count(table) > 0) return Status::AlreadyExists(table);
  tables_[table];
  return Status::OK();
}

bool Database::HasTable(const std::string& table) const {
  MutexLock lock(&mu_);
  return tables_.count(table) > 0;
}

std::vector<std::string> Database::Tables() const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [name, rows] : tables_) out.push_back(name);
  return out;
}

void Database::SetPartitionFunction(std::function<int(Slice)> fn) {
  MutexLock lock(&mu_);
  partition_fn_ = std::move(fn);
}

void Database::AddTrigger(Trigger trigger) {
  MutexLock lock(&mu_);
  triggers_.push_back(std::move(trigger));
}

void Database::SetSemiSyncCallback(SemiSyncCallback callback) {
  MutexLock lock(&mu_);
  semi_sync_ = std::move(callback);
}

void Database::Transaction::Put(const std::string& table,
                                const std::string& primary_key, Row row) {
  Change change;
  change.table = table;
  change.primary_key = primary_key;
  change.row = std::move(row);
  change.op = Change::Op::kUpdate;  // resolved to insert/update at commit
  changes_.push_back(std::move(change));
}

void Database::Transaction::Delete(const std::string& table,
                                   const std::string& primary_key) {
  Change change;
  change.op = Change::Op::kDelete;
  change.table = table;
  change.primary_key = primary_key;
  changes_.push_back(std::move(change));
}

Result<int64_t> Database::Transaction::Commit() {
  return db_->CommitChanges(&changes_);
}

Result<int64_t> Database::Put(const std::string& table,
                              const std::string& primary_key, Row row) {
  Transaction txn = Begin();
  txn.Put(table, primary_key, std::move(row));
  return txn.Commit();
}

Result<int64_t> Database::Delete(const std::string& table,
                                 const std::string& primary_key) {
  Transaction txn = Begin();
  txn.Delete(table, primary_key);
  return txn.Commit();
}

int64_t Database::ReplayBinlog() {
  // Serialize against live commits so replay cannot interleave with them.
  MutexLock commit_lock(&commit_mu_);
  int64_t applied = 0;
  // SCNs are dense from 1; pull everything the recovery scan accepted.
  const auto transactions = binlog_.ReadAfter(0, binlog_.TransactionCount());
  MutexLock lock(&mu_);
  for (const auto& txn : transactions) {
    for (const auto& change : txn.changes) {
      auto& table = tables_[change.table];  // creates missing tables
      if (change.op == Change::Op::kDelete) {
        table.erase(change.primary_key);
      } else {
        table[change.primary_key] = change.row;
      }
      ++applied;
    }
  }
  return applied;
}

Result<int64_t> Database::CommitChanges(std::vector<Change>* changes) {
  // The commit lock serializes transactions, making binlog order the commit
  // order (timeline consistency downstream depends on this).
  MutexLock commit_lock(&commit_mu_);

  std::vector<Trigger> triggers;
  SemiSyncCallback semi_sync;
  {
    MutexLock lock(&mu_);
    // Validate before mutating: all-or-nothing.
    for (Change& change : *changes) {
      auto it = tables_.find(change.table);
      if (it == tables_.end()) {
        return Status::NotFound("no table " + change.table);
      }
      if (change.op != Change::Op::kDelete) {
        change.op = it->second.count(change.primary_key) > 0
                        ? Change::Op::kUpdate
                        : Change::Op::kInsert;
      }
      change.partition =
          partition_fn_ ? partition_fn_(change.primary_key) : -1;
    }
    triggers = triggers_;
    semi_sync = semi_sync_;
  }

  // Binlog first: if the durable record cannot be written, the commit fails
  // with the tables untouched — rows and binlog never disagree. (The commit
  // lock keeps other transactions from interleaving between the append and
  // the table apply below.)
  const auto appended = binlog_.Append(*changes);
  if (!appended.ok()) {
    return Status::Unavailable("binlog append failed: " +
                               appended.status().message());
  }
  const int64_t scn = appended.value();

  {
    MutexLock lock(&mu_);
    for (const Change& change : *changes) {
      auto& rows = tables_[change.table];
      if (change.op == Change::Op::kDelete) {
        rows.erase(change.primary_key);
      } else {
        rows[change.primary_key] = change.row;
      }
    }
  }

  CommittedTransaction txn;
  txn.scn = scn;
  txn.changes = *changes;
  if (semi_sync) {
    Status s = semi_sync(txn);
    if (!s.ok()) {
      // The write reached the binlog but not the second location; the paper's
      // durability contract is violated, surface it to the committer.
      return Status::Unavailable("semi-sync replication failed: " +
                                 s.message());
    }
  }
  for (const Trigger& trigger : triggers) {
    for (const Change& change : txn.changes) trigger(change, scn);
  }
  changes->clear();
  return scn;
}

Result<Row> Database::Get(const std::string& table,
                          const std::string& primary_key) const {
  MutexLock lock(&mu_);
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("no table " + table);
  auto rit = it->second.find(primary_key);
  if (rit == it->second.end()) return Status::NotFound(primary_key);
  return rit->second;
}

Status Database::Scan(
    const std::string& table,
    const std::function<bool(const std::string&, const Row&)>& visitor) const {
  // Snapshot the table, then visit without the lock: a visitor is allowed
  // to call back into the database (Get, Put, ...), which would self-
  // deadlock if mu_ were held across the callback.
  std::map<std::string, Row> snapshot;
  {
    MutexLock lock(&mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("no table " + table);
    snapshot = it->second;
  }
  for (const auto& [pk, row] : snapshot) {
    if (!visitor(pk, row)) break;
  }
  return Status::OK();
}

int64_t Database::RowCount(const std::string& table) const {
  MutexLock lock(&mu_);
  auto it = tables_.find(table);
  return it == tables_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

}  // namespace lidi::sqlstore
