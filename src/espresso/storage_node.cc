#include "espresso/storage_node.h"

#include <algorithm>

#include "avro/codec.h"
#include "common/coding.h"

namespace lidi::espresso {

StorageNode::StorageNode(std::string name, SchemaRegistry* registry,
                         EspressoRelay* relay, net::Transport* network,
                         const Clock* clock)
    : name_(std::move(name)),
      registry_(registry),
      relay_(relay),
      network_(network),
      clock_(clock),
      store_(name_ + "-mysql") {
  network_->Register(name_, "espresso.get",
                     [this](Slice req) { return HandleGet(req); });
  network_->Register(name_, "espresso.get-cond", [this](Slice req) {
    return HandleConditionalGet(req);
  });
  network_->Register(name_, "espresso.put",
                     [this](Slice req) { return HandlePut(req); });
  network_->Register(name_, "espresso.delete",
                     [this](Slice req) { return HandleDelete(req); });
  network_->Register(name_, "espresso.query",
                     [this](Slice req) { return HandleQuery(req); });
  network_->Register(name_, "espresso.txn",
                     [this](Slice req) { return HandleTxn(req); });
  network_->Register(name_, "espresso.fetch-partition", [this](Slice req) {
    return HandleFetchPartition(req);
  });
}

StorageNode::~StorageNode() { network_->Unregister(name_); }

void StorageNode::SetMasterLookup(
    std::function<std::string(const std::string&, int)> lookup) {
  MutexLock lock(&mu_);
  master_lookup_ = std::move(lookup);
}

std::string StorageNode::ResourceIdOf(const std::string& key) {
  const size_t slash = key.find('/');
  return slash == std::string::npos ? key : key.substr(0, slash);
}

void StorageNode::EnsureTable(const std::string& database,
                              const std::string& table) {
  // discard-ok: AlreadyExists is the steady state here, and CreateTable on
  // the in-process store has no other failure mode.
  (void)store_.CreateTable(StoreTable(database, table));
}

bool StorageNode::IsMasterOf(const std::string& database,
                             int partition) const {
  MutexLock lock(&mu_);
  return master_of_.count({database, partition}) > 0;
}

bool StorageNode::IsSlaveOf(const std::string& database, int partition) const {
  MutexLock lock(&mu_);
  return slave_of_.count({database, partition}) > 0;
}

int64_t StorageNode::AppliedScn(const std::string& database,
                                int partition) const {
  MutexLock lock(&mu_);
  auto it = applied_scn_.find({database, partition});
  return it == applied_scn_.end() ? 0 : it->second;
}

Status StorageNode::HandleTransition(const helix::Transition& transition) {
  const std::string& database = transition.resource;
  const int partition = transition.partition;
  using helix::ReplicaState;

  if (transition.from == ReplicaState::kOffline &&
      transition.to == ReplicaState::kSlave) {
    // A brand-new replica bootstraps from a snapshot of the current master,
    // then catches up from the relay (paper IV.B, cluster expansion).
    std::function<std::string(const std::string&, int)> lookup;
    {
      MutexLock lock(&mu_);
      lookup = master_lookup_;
    }
    if (lookup && AppliedScn(database, partition) == 0) {
      const std::string master = lookup(database, partition);
      if (!master.empty() && master != name_) {
        std::string request;
        PutLengthPrefixed(&request, database);
        PutVarint64(&request, static_cast<uint64_t>(partition));
        auto snapshot =
            network_->Call(name_, master, "espresso.fetch-partition", request);
        if (!snapshot.ok()) return snapshot.status();
        // Response: snapshot scn, count, then (table, key, record) triples.
        Slice input(snapshot.value());
        uint64_t snapshot_scn, count;
        if (!GetVarint64(&input, &snapshot_scn) ||
            !GetVarint64(&input, &count)) {
          return Status::Corruption("bad fetch-partition response");
        }
        for (uint64_t i = 0; i < count; ++i) {
          Slice table, key;
          DocumentRecord record;
          if (!GetLengthPrefixed(&input, &table) ||
              !GetLengthPrefixed(&input, &key)) {
            return Status::Corruption("truncated snapshot row");
          }
          Status s = DecodeDocumentRecord(&input, &record);
          if (!s.ok()) return s;
          EnsureTable(database, table.ToString());
          auto put = store_.Put(StoreTable(database, table.ToString()),
                                key.ToString(), record.ToRow());
          if (!put.ok()) {
            // applied_scn_ advances after this loop; a dropped row with an
            // advanced SCN is a permanently invisible document (catch-up
            // starts past it).
            return put.status();
          }
          IndexDocument(database, table.ToString(), key.ToString(), record);
        }
        MutexLock lock(&mu_);
        applied_scn_[{database, partition}] =
            static_cast<int64_t>(snapshot_scn);
      }
    }
    {
      MutexLock lock(&mu_);
      slave_of_.insert({database, partition});
    }
    CatchUp(database, partition);
    return Status::OK();
  }
  if (transition.from == ReplicaState::kSlave &&
      transition.to == ReplicaState::kMaster) {
    // Drain all outstanding changes before accepting writes.
    CatchUp(database, partition);
    MutexLock lock(&mu_);
    slave_of_.erase({database, partition});
    master_of_.insert({database, partition});
    return Status::OK();
  }
  if (transition.from == ReplicaState::kMaster &&
      transition.to == ReplicaState::kSlave) {
    MutexLock lock(&mu_);
    master_of_.erase({database, partition});
    slave_of_.insert({database, partition});
    return Status::OK();
  }
  if (transition.to == ReplicaState::kOffline) {
    MutexLock lock(&mu_);
    master_of_.erase({database, partition});
    slave_of_.erase({database, partition});
    return Status::OK();
  }
  return Status::OK();
}

int64_t StorageNode::CatchUp(const std::string& database, int partition) {
  int64_t total = 0;
  for (;;) {
    const int64_t since = AppliedScn(database, partition);
    auto events = relay_->Read(database, partition, since, 4096);
    if (!events.ok() || events.value().empty()) break;
    // Group by scn (transaction) and apply atomically.
    std::vector<databus::Event> txn;
    for (databus::Event& event : events.value()) {
      txn.push_back(std::move(event));
      if (txn.back().end_of_txn) {
        if (!ApplyEvents(database, partition, txn).ok()) return total;
        total += static_cast<int64_t>(txn.size());
        txn.clear();
      }
    }
    if (!txn.empty()) {
      // Partial transaction at the buffer head; wait for the rest.
      break;
    }
  }
  return total;
}

int64_t StorageNode::CatchUpAll() {
  std::vector<std::pair<std::string, int>> slaves;
  {
    MutexLock lock(&mu_);
    slaves.assign(slave_of_.begin(), slave_of_.end());
  }
  int64_t total = 0;
  for (const auto& [database, partition] : slaves) {
    total += CatchUp(database, partition);
  }
  return total;
}

Status StorageNode::ApplyEvents(const std::string& database, int partition,
                                const std::vector<databus::Event>& events) {
  if (events.empty()) return Status::OK();
  auto txn = store_.Begin();
  for (const databus::Event& event : events) {
    EnsureTable(database, event.source);
    const std::string table = StoreTable(database, event.source);
    if (event.op == databus::Event::Op::kDelete) {
      txn.Delete(table, event.key);
    } else {
      auto row = sqlstore::DecodeRow(event.payload);
      if (!row.ok()) return row.status();
      txn.Put(table, event.key, std::move(row.value()));
    }
  }
  auto committed = txn.Commit();
  if (!committed.ok()) return committed.status();

  // Maintain the local secondary index and the partition timeline mark.
  for (const databus::Event& event : events) {
    if (event.op == databus::Event::Op::kDelete) {
      UnindexDocument(database, event.source, event.key);
    } else {
      auto row = sqlstore::DecodeRow(event.payload);
      auto record = DocumentRecord::FromRow(row.value());
      if (record.ok()) {
        IndexDocument(database, event.source, event.key, record.value());
      }
    }
  }
  MutexLock lock(&mu_);
  applied_scn_[{database, partition}] =
      std::max(applied_scn_[{database, partition}], events.back().scn);
  return Status::OK();
}

Status StorageNode::MasterCommit(const std::string& database, int partition,
                                 const std::vector<DocumentUpdate>& updates) {
  if (!IsMasterOf(database, partition)) {
    return Status::Unavailable(name_ + " is not master of " + database + "/p" +
                               std::to_string(partition));
  }
  // SCN allocation, relay append and apply form one step: two concurrent
  // commits that both read AppliedScn()+1 would pick the same SCN, and the
  // relay would fence the second as if this node were a stale master.
  MutexLock commit(&commit_mu_);
  const int64_t scn = AppliedScn(database, partition) + 1;
  std::vector<databus::Event> events;
  for (size_t i = 0; i < updates.size(); ++i) {
    const DocumentUpdate& update = updates[i];
    databus::Event event;
    event.scn = scn;
    event.source = update.table;
    event.key = update.key;
    event.partition = partition;
    event.end_of_txn = i + 1 == updates.size();
    if (update.is_delete) {
      event.op = databus::Event::Op::kDelete;
    } else {
      DocumentRecord record;
      record.payload = update.payload;
      record.schema_version = update.schema_version;
      record.etag = ComputeEtag(update.payload);
      record.timestamp_millis = clock_->NowMillis();
      sqlstore::EncodeRow(record.ToRow(), &event.payload);
    }
    events.push_back(std::move(event));
  }
  // Semi-synchronous commit: the change must reach the relay (the second
  // durable location) before it is applied and acknowledged.
  Status s = relay_->Append(database, partition, events);
  if (!s.ok()) {
    if (s.IsObsoleteVersion()) {
      // Another node owns this partition's timeline: we are a stale master.
      return Status::Unavailable("fenced: partition timeline advanced past us");
    }
    return s;
  }
  return ApplyEvents(database, partition, events);
}

Result<std::string> StorageNode::HandleGet(Slice request) const {
  std::string database, table, key;
  Status s = DecodeGetRequest(request, &database, &table, &key);
  if (!s.ok()) return s;
  auto record = LocalGet(database, table, key);
  if (!record.ok()) return record.status();
  std::string out;
  EncodeDocumentRecord(record.value(), &out);
  return out;
}

Result<std::string> StorageNode::HandleConditionalGet(Slice request) const {
  // Conditional HTTP request (paper Table IV.1: "The timestamp and etag
  // fields are used to implement conditional HTTP requests"): behaves like
  // If-None-Match — when the caller's etag still matches, only a 1-byte
  // not-modified marker travels back instead of the document.
  Slice input = request;
  Slice database, table, key, etag;
  if (!GetLengthPrefixed(&input, &database) ||
      !GetLengthPrefixed(&input, &table) || !GetLengthPrefixed(&input, &key) ||
      !GetLengthPrefixed(&input, &etag)) {
    return Status::Corruption("bad conditional get request");
  }
  auto record = LocalGet(database.ToString(), table.ToString(), key.ToString());
  if (!record.ok()) return record.status();
  std::string out;
  if (!etag.empty() && record.value().etag == etag.ToString()) {
    out.push_back(0);  // not modified
    return out;
  }
  out.push_back(1);
  EncodeDocumentRecord(record.value(), &out);
  return out;
}

Result<DocumentRecord> StorageNode::LocalGet(const std::string& database,
                                             const std::string& table,
                                             const std::string& key) const {
  auto row = store_.Get(StoreTable(database, table), key);
  if (!row.ok()) return row.status();
  return DocumentRecord::FromRow(row.value());
}

Result<std::string> StorageNode::HandlePut(Slice request) {
  std::string database, table, key, expected_etag;
  DocumentRecord record;
  Status s = DecodePutRequest(request, &database, &table, &key, &record,
                              &expected_etag);
  if (!s.ok()) return s;
  auto db_schema = registry_->GetDatabase(database);
  if (!db_schema.ok()) return db_schema.status();
  const int partition = PartitionOf(db_schema.value(), ResourceIdOf(key));

  if (!expected_etag.empty()) {
    auto current = LocalGet(database, table, key);
    if (!current.ok() && !current.status().IsNotFound()) {
      return current.status();
    }
    const std::string current_etag =
        current.ok() ? current.value().etag : "";
    if (current_etag != expected_etag) {
      return Status::ObsoleteVersion("etag mismatch: have " + current_etag);
    }
  }

  DocumentUpdate update;
  update.table = table;
  update.key = key;
  update.payload = record.payload;
  update.schema_version = record.schema_version;
  s = MasterCommit(database, partition, {update});
  if (!s.ok()) return s;
  return ComputeEtag(record.payload);
}

Result<std::string> StorageNode::HandleDelete(Slice request) {
  std::string database, table, key;
  Status s = DecodeGetRequest(request, &database, &table, &key);
  if (!s.ok()) return s;
  auto db_schema = registry_->GetDatabase(database);
  if (!db_schema.ok()) return db_schema.status();
  const int partition = PartitionOf(db_schema.value(), ResourceIdOf(key));
  DocumentUpdate update;
  update.table = table;
  update.key = key;
  update.is_delete = true;
  s = MasterCommit(database, partition, {update});
  if (!s.ok()) return s;
  return std::string("ok");
}

Result<std::string> StorageNode::HandleTxn(Slice request) {
  std::string database, resource_id;
  std::vector<DocumentUpdate> updates;
  Status s = DecodeTxnRequest(request, &database, &resource_id, &updates);
  if (!s.ok()) return s;
  auto db_schema = registry_->GetDatabase(database);
  if (!db_schema.ok()) return db_schema.status();
  // All tables sharing the resource_id partition identically is what makes
  // the multi-table transaction local to one master (paper IV.A).
  for (const DocumentUpdate& update : updates) {
    if (ResourceIdOf(update.key) != resource_id) {
      return Status::InvalidArgument(
          "transactional updates must share the resource_id " + resource_id);
    }
  }
  const int partition = PartitionOf(db_schema.value(), resource_id);
  s = MasterCommit(database, partition, updates);
  if (!s.ok()) return s;
  return std::string("ok");
}

Result<std::string> StorageNode::HandleQuery(Slice request) const {
  std::string database, table, resource_id, query_text;
  Status s = DecodeQueryRequest(request, &database, &table, &resource_id,
                                &query_text);
  if (!s.ok()) return s;
  auto query = invidx::Query::Parse(query_text);
  if (!query.ok()) return query.status();

  const invidx::InvertedIndex* index = nullptr;
  {
    MutexLock lock(&mu_);
    auto it = indexes_.find({database, table});
    if (it != indexes_.end()) index = it->second.get();
  }
  std::vector<std::pair<std::string, DocumentRecord>> results;
  if (index != nullptr) {
    auto matches = index->Search(query.value());
    if (!matches.ok()) return matches.status();
    for (const std::string& key : matches.value()) {
      // Indexed access is limited to collection resources under a common
      // resource_id (paper IV.A).
      if (!resource_id.empty() && ResourceIdOf(key) != resource_id) continue;
      auto record = LocalGet(database, table, key);
      if (record.ok()) results.emplace_back(key, std::move(record.value()));
    }
  }
  std::string out;
  EncodeQueryResponse(results, &out);
  return out;
}

Result<std::string> StorageNode::HandleFetchPartition(Slice request) const {
  Slice input = request;
  Slice database_slice;
  uint64_t partition;
  if (!GetLengthPrefixed(&input, &database_slice) ||
      !GetVarint64(&input, &partition)) {
    return Status::Corruption("bad fetch-partition request");
  }
  const std::string database = database_slice.ToString();
  auto db_schema = registry_->GetDatabase(database);
  if (!db_schema.ok()) return db_schema.status();

  std::string body;
  int64_t count = 0;
  for (const std::string& table : registry_->Tables(database)) {
    Status scan =
        store_.Scan(StoreTable(database, table),
                    [&](const std::string& key, const sqlstore::Row& row) {
                      if (PartitionOf(db_schema.value(), ResourceIdOf(key)) ==
                          static_cast<int>(partition)) {
                        PutLengthPrefixed(&body, table);
                        PutLengthPrefixed(&body, key);
                        auto record = DocumentRecord::FromRow(row);
                        if (record.ok()) {
                          EncodeDocumentRecord(record.value(), &body);
                          ++count;
                        }
                      }
                      return true;
                    });
    if (!scan.ok() && !scan.IsNotFound()) {
      // A registered-but-never-written table is legitimately absent
      // (NotFound == empty); any other failure must not masquerade as an
      // empty partition — the bootstrap consumer would trust the snapshot's
      // SCN and skip catch-up for rows it never received.
      return scan;
    }
  }
  std::string out;
  PutVarint64(&out, static_cast<uint64_t>(
                        AppliedScn(database, static_cast<int>(partition))));
  PutVarint64(&out, static_cast<uint64_t>(count));
  out += body;
  return out;
}

void StorageNode::IndexDocument(const std::string& database,
                                const std::string& table,
                                const std::string& key,
                                const DocumentRecord& record) {
  auto schema =
      registry_->GetDocumentSchema(database, table, record.schema_version);
  if (!schema.ok()) return;
  // Collect indexed fields from the schema annotations.
  std::map<std::string, std::string> fields;
  std::set<std::string> text_fields;
  bool any_indexed = false;
  for (const avro::Field& field : schema.value()->fields()) {
    if (field.indexed) {
      any_indexed = true;
      if (field.text_indexed) text_fields.insert(field.name);
    }
  }
  if (!any_indexed) return;

  Slice payload(record.payload);
  auto datum = avro::Decode(*schema.value(), &payload);
  if (!datum.ok()) return;
  for (const avro::Field& field : schema.value()->fields()) {
    if (!field.indexed) continue;
    avro::DatumPtr value = datum.value()->GetField(field.name);
    if (value == nullptr) continue;
    std::string text;
    switch (value->type()) {
      case avro::Type::kString: text = value->string_value(); break;
      case avro::Type::kInt:
      case avro::Type::kLong: text = std::to_string(value->long_value()); break;
      default: text = value->ToString(); break;
    }
    fields[field.name] = std::move(text);
  }

  MutexLock lock(&mu_);
  auto& index = indexes_[{database, table}];
  if (index == nullptr) index = std::make_unique<invidx::InvertedIndex>();
  index->IndexDocument(key, fields, text_fields);
}

void StorageNode::UnindexDocument(const std::string& database,
                                  const std::string& table,
                                  const std::string& key) {
  MutexLock lock(&mu_);
  auto it = indexes_.find({database, table});
  if (it != indexes_.end()) it->second->RemoveDocument(key);
}

int64_t StorageNode::DocumentCount(const std::string& database,
                                   const std::string& table) const {
  return store_.RowCount(StoreTable(database, table));
}

}  // namespace lidi::espresso
