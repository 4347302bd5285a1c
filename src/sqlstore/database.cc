#include "sqlstore/database.h"

#include <algorithm>
#include <limits>
#include <string_view>
#include <utility>

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

size_t EncodedRowSize(const Row& row) {
  size_t size = VarintLength(row.size());
  for (const auto& [column, value] : row) {
    size += VarintLength(column.size()) + column.size() +
            VarintLength(value.size()) + value.size();
  }
  return size;
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
constexpr size_t kRecordHeader = 8;
// The least a change takes: op, partition and three length prefixes.
constexpr uint64_t kMinChangeBytes = 5;

size_t EncodedRecordSize(int64_t scn, const std::vector<Change>& changes) {
  size_t size = kRecordHeader + VarintLength(static_cast<uint64_t>(scn)) +
                VarintLength(changes.size());
  for (const Change& change : changes) {
    const size_t row = EncodedRowSize(change.row);
    size += 1 + ZigZagLength(change.partition) +
            VarintLength(change.table.size()) + change.table.size() +
            VarintLength(change.primary_key.size()) +
            change.primary_key.size() + VarintLength(row) + row;
  }
  return size;
}

// Appends the record to *out, writing the body in place after the header
// and filling the header in last.
void EncodeRecord(int64_t scn, const std::vector<Change>& changes,
                  std::string* out) {
  const size_t start = out->size();
  out->append(kRecordHeader, '\0');
  PutVarint64(out, static_cast<uint64_t>(scn));
  PutVarint64(out, changes.size());
  for (const Change& change : changes) {
    out->push_back(static_cast<char>(change.op));
    PutZigZag64(out, change.partition);
    PutLengthPrefixed(out, change.table);
    PutLengthPrefixed(out, change.primary_key);
    PutVarint64(out, EncodedRowSize(change.row));
    EncodeRow(change.row, out);
  }
  const Slice body(out->data() + start + kRecordHeader,
                   out->size() - start - kRecordHeader);
  EncodeFixed32(out->data() + start, static_cast<uint32_t>(body.size()));
  EncodeFixed32(out->data() + start + 4, Crc32(body));
}

// Whether `row` is exactly one EncodeRow encoding.
bool RowDecodes(Slice row) {
  uint64_t count;
  if (!GetVarint64(&row, &count)) return false;
  for (uint64_t i = 0; i < count; ++i) {
    Slice column, value;
    if (!GetLengthPrefixed(&row, &column) || !GetLengthPrefixed(&row, &value)) {
      return false;
    }
  }
  return row.empty();
}

}  // namespace

Status DecodeRecordView(Slice body, RecordView* record) {
  record->changes.clear();
  uint64_t scn, count;
  if (!GetVarint64(&body, &scn) || !GetVarint64(&body, &count)) {
    return Status::Corruption("truncated binlog record header");
  }
  if (scn > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Status::Corruption("binlog record scn " + std::to_string(scn) +
                              " out of range");
  }
  if (count > body.size() / kMinChangeBytes) {
    return Status::Corruption("binlog record change count " +
                              std::to_string(count) + " exceeds its body");
  }
  record->scn = static_cast<int64_t>(scn);
  record->changes.resize(count);
  for (ChangeView& change : record->changes) {
    if (body.empty()) return Status::Corruption("truncated binlog change");
    const auto op = static_cast<uint8_t>(body[0]);
    if (op > static_cast<uint8_t>(Change::Op::kDelete)) {
      return Status::Corruption("binlog change op " + std::to_string(op) +
                                " out of range");
    }
    body.RemovePrefix(1);
    int64_t partition;
    if (!GetZigZag64(&body, &partition) ||
        !GetLengthPrefixed(&body, &change.table) ||
        !GetLengthPrefixed(&body, &change.primary_key) ||
        !GetLengthPrefixed(&body, &change.row)) {
      return Status::Corruption("truncated binlog change");
    }
    if (partition < std::numeric_limits<int>::min() ||
        partition > std::numeric_limits<int>::max()) {
      return Status::Corruption("binlog change partition " +
                                std::to_string(partition) + " out of range");
    }
    if (!RowDecodes(change.row)) {
      return Status::Corruption("binlog change row does not decode");
    }
    change.op = static_cast<Change::Op>(op);
    change.partition = static_cast<int>(partition);
  }
  if (!body.empty()) {
    return Status::Corruption("binlog record runs past its last change");
  }
  return Status::OK();
}

Binlog::Binlog(BinlogOptions options)
    : options_(std::move(options)),
      log_(options_.data_dir.empty()
               ? nullptr
               : std::make_unique<io::SegmentLog>(
                     io::SegmentLogOptions{
                         options_.data_dir, options_.fs, options_.sync,
                         options_.sync_interval_bytes, options_.group_commit,
                         options_.metrics, "sqlstore.binlog"},
                     &mu_,
                     [this](const Status& s) { OnGroupSyncLocked(s); })) {
  if (log_ != nullptr) {
    MutexLock lock(&mu_);
    log_->Recover([this](int64_t, std::string* bytes) {
      return ReplayLocked(*bytes);
    });
    durable_scn_ = next_scn_ - 1;  // everything replayed is on stable storage
  }
}

int64_t Binlog::ReplayLocked(Slice data) {
  size_t offset = 0;
  RecordView txn;
  while (true) {
    Slice in(data.data() + offset, data.size() - offset);
    uint32_t length, crc;
    if (!GetFixed32(&in, &length) || !GetFixed32(&in, &crc)) break;
    if (in.size() < length) break;  // torn tail
    Slice body(in.data(), length);
    if (Crc32(body) != crc) break;  // torn or corrupt record
    if (!DecodeRecordView(body, &txn).ok()) break;
    if (txn.scn != next_scn_) break;  // dense commit order violated
    const Slice record(data.data() + offset, kRecordHeader + length);
    index_.push_back(blocks_.Append(
        record.size(), [record](std::string* out) {
          out->append(record.data(), record.size());
        }));
    next_scn_++;
    offset += record.size();
  }
  return static_cast<int64_t>(offset);
}

ByteBlocks::Span Binlog::EncodeLocked(const std::vector<Change>& changes) {
  return blocks_.Append(EncodedRecordSize(next_scn_, changes),
                        [this, &changes](std::string* out) {
                          EncodeRecord(next_scn_, changes, out);
                        });
}

Result<int64_t> Binlog::Append(const std::vector<Change>& changes) {
  if (log_ == nullptr || !log_->group_mode()) {
    MutexLock lock(&mu_);
    const ByteBlocks::Span record = EncodeLocked(changes);
    if (log_ != nullptr) {
      // All or nothing: the record is written, then synced when the policy
      // makes a sync due, and its commit waits on that sync. A failure takes
      // the record back off the file.
      const int64_t start = log_->written_end();
      Status s = log_->Write(blocks_.Read(record));
      if (s.ok()) s = log_->SyncIfDue(start);
      if (!s.ok()) {
        blocks_.DropFrom(record);
        return s;
      }
    }
    index_.push_back(record);
    if (log_ == nullptr || log_->synced_end() == log_->written_end()) {
      durable_scn_ = next_scn_;
    }
    return next_scn_++;
  }
  // Group commit: write the record under mu_, then hand the fdatasync to
  // the committer with mu_ RELEASED — concurrent committers stage into the
  // same batch while the leader's sync is in flight, and one covering sync
  // acknowledges them all. The epoch is captured BEFORE staging: if a
  // failed group sync rolls the file back at any point after this capture,
  // SyncTo refuses to acknowledge (see io/group_commit.h — false errors are
  // safe, false acks are not).
  const uint64_t staged_epoch = log_->epoch();
  int64_t scn = 0;
  int64_t target = 0;
  {
    MutexLock lock(&mu_);
    const ByteBlocks::Span record = EncodeLocked(changes);
    Status s = log_->Write(blocks_.Read(record));
    if (!s.ok()) {
      blocks_.DropFrom(record);
      return s;
    }
    scn = next_scn_++;
    target = log_->written_end();
    pending_.push_back(Pending{record, target});
  }
  // SyncTo acknowledges only a frontier some successful group sync
  // returned, in the epoch this record was staged in; that sync indexed
  // every pending record it covered.
  Status s = log_->SyncTo(target, staged_epoch);
  if (!s.ok()) return s;
  return scn;
}

void Binlog::OnGroupSyncLocked(const Status& synced) {
  if (synced.ok()) {
    // Index covered pending records, in stage order — the index stays
    // dense and holds only durable commits.
    size_t promoted = 0;
    while (promoted < pending_.size() &&
           pending_[promoted].end_bytes <= log_->synced_end()) {
      index_.push_back(pending_[promoted].record);
      ++promoted;
    }
    pending_.erase(pending_.begin(),
                   pending_.begin() + static_cast<int64_t>(promoted));
    durable_scn_ = static_cast<int64_t>(index_.size());
    return;
  }
  // The file just rolled back to the synced frontier, past every indexed
  // record: drop the in-flight batch in the same critical section, so no
  // commit staged after it takes a rolled-back offset with a later SCN.
  if (!pending_.empty()) blocks_.DropFrom(pending_.front().record);
  pending_.clear();
  next_scn_ = static_cast<int64_t>(index_.size()) + 1;
}

int64_t Binlog::DurableScn() const {
  MutexLock lock(&mu_);
  return durable_scn_;
}

Status Binlog::recovery_status() const {
  MutexLock lock(&mu_);
  return log_ != nullptr ? log_->status() : Status::OK();
}

std::vector<Slice> Binlog::ReadAfter(int64_t from_scn,
                                     int64_t max_count) const {
  MutexLock lock(&mu_);
  ++read_calls_;
  std::vector<Slice> out;
  // SCNs are dense starting at 1, so the offset is direct: scn N lives at
  // index N-1, and the read starts after from_scn.
  const int64_t size = static_cast<int64_t>(index_.size());
  const int64_t begin = std::clamp<int64_t>(from_scn, 0, size);
  const int64_t end = begin + std::clamp<int64_t>(max_count, 0, size - begin);
  out.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    Slice record = blocks_.Read(index_[static_cast<size_t>(i)]);
    record.RemovePrefix(kRecordHeader);
    out.push_back(record);
  }
  return out;
}

int64_t Binlog::LastScn() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(index_.size());
}

int64_t Binlog::ReadCalls() const {
  MutexLock lock(&mu_);
  return read_calls_;
}

int64_t Binlog::TransactionCount() const {
  MutexLock lock(&mu_);
  return static_cast<int64_t>(index_.size());
}

int64_t Binlog::retained_bytes() const {
  MutexLock lock(&mu_);
  return blocks_.retained_bytes() +
         static_cast<int64_t>(index_.size() * sizeof(ByteBlocks::Span));
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
  const auto records = binlog_.ReadAfter(0, binlog_.TransactionCount());
  MutexLock lock(&mu_);
  RecordView txn;
  for (Slice record : records) {
    // Recovery kept only records that decode, rows included.
    if (!DecodeRecordView(record, &txn).ok()) break;
    for (const ChangeView& change : txn.changes) {
      auto& rows = tables_[change.table.ToString()];  // creates missing tables
      if (change.op == Change::Op::kDelete) {
        rows.erase(change.primary_key.ToString());
      } else {
        rows.insert_or_assign(change.primary_key.ToString(),
                              DecodeRow(change.row).value());
      }
    }
    applied += static_cast<int64_t>(txn.changes.size());
  }
  return applied;
}

Result<int64_t> Database::CommitChanges(std::vector<Change>* changes) {
  // The commit lock serializes transactions, making binlog order the commit
  // order (timeline consistency downstream depends on this).
  MutexLock commit_lock(&commit_mu_);
  {
    MutexLock lock(&mu_);
    // Whether each key this transaction has already written is present
    // after that write: a later change of the same row resolves against it,
    // not against the table. Only multi-change transactions fill it.
    std::map<std::pair<std::string_view, std::string_view>, bool> written;
    // Validate before mutating: all-or-nothing.
    for (Change& change : *changes) {
      auto it = tables_.find(change.table);
      if (it == tables_.end()) {
        return Status::NotFound("no table " + change.table);
      }
      const std::pair<std::string_view, std::string_view> row_id(
          change.table, change.primary_key);
      if (change.op != Change::Op::kDelete) {
        const auto earlier = written.find(row_id);
        const bool present = earlier != written.end()
                                 ? earlier->second
                                 : it->second.count(change.primary_key) > 0;
        change.op = present ? Change::Op::kUpdate : Change::Op::kInsert;
      }
      if (changes->size() > 1) {
        written[row_id] = change.op != Change::Op::kDelete;
      }
      change.partition =
          partition_fn_ ? partition_fn_(change.primary_key) : -1;
    }
  }

  // Binlog first: if the durable record cannot be written, the commit fails
  // with the tables untouched — rows and binlog never disagree. (The commit
  // lock keeps other transactions from interleaving between the append and
  // the table apply below.) The log keeps the changes as its record's
  // bytes; the tables then take each key and row by move.
  const auto scn = binlog_.Append(*changes);
  if (!scn.ok()) {
    changes->clear();
    return Status::Unavailable("binlog append failed: " +
                               scn.status().message());
  }
  MutexLock lock(&mu_);
  for (Change& change : *changes) {
    auto& rows = tables_[change.table];
    if (change.op == Change::Op::kDelete) {
      rows.erase(change.primary_key);
    } else {
      rows.insert_or_assign(std::move(change.primary_key),
                            std::move(change.row));
    }
  }
  changes->clear();
  return scn.value();
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
  std::vector<std::pair<std::string, Row>> snapshot;
  {
    MutexLock lock(&mu_);
    auto it = tables_.find(table);
    if (it == tables_.end()) return Status::NotFound("no table " + table);
    snapshot.assign(it->second.begin(), it->second.end());
  }
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
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
