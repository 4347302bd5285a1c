#include "espresso/global_index.h"

#include "espresso/document.h"

namespace lidi::espresso {

int64_t GlobalIndexer::CatchUp() {
  auto db_schema = registry_->GetDatabase(database_);
  if (!db_schema.ok()) return 0;
  int64_t applied = 0;
  for (int p = 0; p < db_schema.value().num_partitions; ++p) {
    for (;;) {
      int64_t since;
      {
        MutexLock lock(&mu_);
        since = applied_scn_[p];
      }
      auto events = relay_->Read(database_, p, since, 4096);
      if (!events.ok() || events.value().empty()) break;
      for (const databus::Event& event : events.value()) {
        ApplyEvent(event);
        MutexLock lock(&mu_);
        applied_scn_[p] = std::max(applied_scn_[p], event.scn);
        ++applied;
      }
    }
  }
  return applied;
}

void GlobalIndexer::ApplyEvent(const databus::Event& event) {
  const std::string& table = event.source;
  if (event.op == databus::Event::Op::kDelete) {
    MutexLock lock(&mu_);
    indexes_[table].RemoveDocument(event.key);
    return;
  }
  auto row = sqlstore::DecodeRow(event.payload);
  if (!row.ok()) return;
  auto record = DocumentRecord::FromRow(row.value());
  if (!record.ok()) return;
  auto fields = ExtractIndexedFields(*registry_, database_, table,
                                     record.value().schema_version,
                                     record.value().payload);
  if (!fields.has_value()) return;
  MutexLock lock(&mu_);
  indexes_[table].IndexDocument(event.key, fields->values,
                                fields->text_fields);
  documents_indexed_.fetch_add(1);
}

Result<std::vector<std::string>> GlobalIndexer::Query(
    const std::string& table, const std::string& query_text) const {
  auto query = invidx::Query::Parse(query_text);
  if (!query.ok()) return query.status();
  MutexLock lock(&mu_);
  auto it = indexes_.find(table);
  if (it == indexes_.end()) return std::vector<std::string>{};
  return it->second.Search(query.value());
}

int64_t GlobalIndexer::AppliedScn(int partition) const {
  MutexLock lock(&mu_);
  auto it = applied_scn_.find(partition);
  return it == applied_scn_.end() ? 0 : it->second;
}

}  // namespace lidi::espresso
