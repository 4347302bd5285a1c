#include "espresso/schema.h"

#include <algorithm>

#include "avro/codec.h"
#include "common/hash.h"

namespace lidi::espresso {

int PartitionOf(const DatabaseSchema& schema, const std::string& resource_id) {
  switch (schema.partitioning) {
    case DatabaseSchema::Partitioning::kUnpartitioned:
      return 0;
    case DatabaseSchema::Partitioning::kRange: {
      const auto it = std::upper_bound(schema.range_boundaries.begin(),
                                       schema.range_boundaries.end(),
                                       resource_id);
      return static_cast<int>(it - schema.range_boundaries.begin());
    }
    case DatabaseSchema::Partitioning::kHash:
      break;
  }
  return static_cast<int>(Fnv1a64(resource_id) %
                          static_cast<uint64_t>(schema.num_partitions));
}

namespace {

bool NumericPromotable(avro::Type from, avro::Type to) {
  auto rank = [](avro::Type t) {
    switch (t) {
      case avro::Type::kInt: return 0;
      case avro::Type::kLong: return 1;
      case avro::Type::kFloat: return 2;
      case avro::Type::kDouble: return 3;
      default: return -1;
    }
  };
  const int rf = rank(from), rt = rank(to);
  return rf >= 0 && rt >= 0 && rf <= rt;
}

}  // namespace

Status CheckCompatible(const avro::Schema& writer, const avro::Schema& reader) {
  using avro::Type;
  if (writer.type() == Type::kUnion || reader.type() == Type::kUnion) {
    // Every writer branch must be readable by some reader branch (or by the
    // scalar reader).
    const std::vector<avro::SchemaPtr> writer_branches =
        writer.type() == Type::kUnion
            ? writer.branches()
            : std::vector<avro::SchemaPtr>{};
    if (writer.type() == Type::kUnion) {
      for (const auto& wb : writer_branches) {
        bool matched = false;
        if (reader.type() == Type::kUnion) {
          for (const auto& rb : reader.branches()) {
            if (CheckCompatible(*wb, *rb).ok()) {
              matched = true;
              break;
            }
          }
        } else {
          matched = CheckCompatible(*wb, reader).ok();
        }
        if (!matched) {
          return Status::InvalidArgument("union branch incompatible");
        }
      }
      return Status::OK();
    }
    // Scalar writer, union reader.
    for (const auto& rb : reader.branches()) {
      if (CheckCompatible(writer, *rb).ok()) return Status::OK();
    }
    return Status::InvalidArgument("no reader union branch fits writer");
  }

  if (writer.type() != reader.type()) {
    if (NumericPromotable(writer.type(), reader.type())) return Status::OK();
    return Status::InvalidArgument("type mismatch");
  }
  switch (writer.type()) {
    case Type::kArray:
      return CheckCompatible(*writer.item_schema(), *reader.item_schema());
    case Type::kMap:
      return CheckCompatible(*writer.value_schema(), *reader.value_schema());
    case Type::kEnum:
      for (const std::string& sym : writer.symbols()) {
        if (reader.SymbolIndex(sym) < 0) {
          return Status::InvalidArgument("enum symbol " + sym +
                                         " missing in reader");
        }
      }
      return Status::OK();
    case Type::kRecord: {
      for (const avro::Field& rf : reader.fields()) {
        const avro::Field* wf = writer.FindField(rf.name);
        if (wf == nullptr) {
          if (rf.default_json.empty()) {
            return Status::InvalidArgument(
                "new field " + rf.name +
                " lacks a default; old documents would be unreadable");
          }
          continue;
        }
        Status s = CheckCompatible(*wf->schema, *rf.schema);
        if (!s.ok()) {
          return Status::InvalidArgument("field " + rf.name + ": " +
                                         s.message());
        }
      }
      return Status::OK();
    }
    default:
      return Status::OK();  // same primitive type
  }
}

Status SchemaRegistry::CreateDatabase(DatabaseSchema schema) {
  if (schema.partitioning == DatabaseSchema::Partitioning::kRange) {
    if (static_cast<int>(schema.range_boundaries.size()) !=
        schema.num_partitions - 1) {
      return Status::InvalidArgument(
          "range partitioning needs num_partitions - 1 boundaries");
    }
    if (!std::is_sorted(schema.range_boundaries.begin(),
                        schema.range_boundaries.end())) {
      return Status::InvalidArgument("range boundaries must be sorted");
    }
  }
  MutexLock lock(&mu_);
  if (databases_.count(schema.name) > 0) {
    return Status::AlreadyExists(schema.name);
  }
  databases_[schema.name] = std::move(schema);
  return Status::OK();
}

Result<DatabaseSchema> SchemaRegistry::GetDatabase(
    const std::string& database) const {
  MutexLock lock(&mu_);
  auto it = databases_.find(database);
  if (it == databases_.end()) return Status::NotFound(database);
  return it->second;
}

Status SchemaRegistry::CreateTable(const std::string& database,
                                   TableSchema table) {
  MutexLock lock(&mu_);
  if (databases_.count(database) == 0) return Status::NotFound(database);
  const auto key = std::make_pair(database, table.name);
  if (tables_.count(key) > 0) return Status::AlreadyExists(table.name);
  tables_[key] = std::move(table);
  return Status::OK();
}

Result<TableSchema> SchemaRegistry::GetTable(const std::string& database,
                                             const std::string& table) const {
  MutexLock lock(&mu_);
  auto it = tables_.find({database, table});
  if (it == tables_.end()) return Status::NotFound(database + "/" + table);
  return it->second;
}

std::vector<std::string> SchemaRegistry::Tables(
    const std::string& database) const {
  MutexLock lock(&mu_);
  std::vector<std::string> out;
  for (const auto& [key, schema] : tables_) {
    if (key.first == database) out.push_back(key.second);
  }
  return out;
}

Result<int> SchemaRegistry::PostDocumentSchema(const std::string& database,
                                               const std::string& table,
                                               const std::string& schema_json) {
  auto parsed = avro::ParseSchema(schema_json);
  if (!parsed.ok()) return parsed.status();
  MutexLock lock(&mu_);
  if (tables_.count({database, table}) == 0) {
    return Status::NotFound(database + "/" + table);
  }
  auto& versions = document_schemas_[{database, table}];
  // Every older version's documents must be readable under the new schema.
  for (const avro::SchemaPtr& old : versions) {
    Status s = CheckCompatible(*old, *parsed.value());
    if (!s.ok()) {
      return Status::InvalidArgument("incompatible schema evolution: " +
                                     s.message());
    }
  }
  versions.push_back(std::move(parsed.value()));
  return static_cast<int>(versions.size());
}

Result<avro::SchemaPtr> SchemaRegistry::GetDocumentSchema(
    const std::string& database, const std::string& table, int version) const {
  MutexLock lock(&mu_);
  auto it = document_schemas_.find({database, table});
  if (it == document_schemas_.end() || version < 1 ||
      version > static_cast<int>(it->second.size())) {
    return Status::NotFound("schema version " + std::to_string(version));
  }
  return it->second[version - 1];
}

Result<std::pair<int, avro::SchemaPtr>> SchemaRegistry::LatestDocumentSchema(
    const std::string& database, const std::string& table) const {
  MutexLock lock(&mu_);
  auto it = document_schemas_.find({database, table});
  if (it == document_schemas_.end() || it->second.empty()) {
    return Status::NotFound("no document schema for " + database + "/" + table);
  }
  return std::make_pair(static_cast<int>(it->second.size()),
                        it->second.back());
}

std::optional<IndexedFields> ExtractIndexedFields(
    const SchemaRegistry& registry, const std::string& database,
    const std::string& table, int schema_version, Slice payload) {
  auto schema = registry.GetDocumentSchema(database, table, schema_version);
  if (!schema.ok()) return std::nullopt;
  IndexedFields out;
  bool any_indexed = false;
  for (const avro::Field& field : schema.value()->fields()) {
    if (field.indexed) {
      any_indexed = true;
      if (field.text_indexed) out.text_fields.insert(field.name);
    }
  }
  if (!any_indexed) return std::nullopt;

  auto datum = avro::Decode(*schema.value(), &payload);
  if (!datum.ok()) return std::nullopt;
  for (const avro::Field& field : schema.value()->fields()) {
    if (!field.indexed) continue;
    avro::DatumPtr value = datum.value()->GetField(field.name);
    if (value == nullptr) continue;
    switch (value->type()) {
      case avro::Type::kString:
        out.values[field.name] = value->string_value();
        break;
      case avro::Type::kInt:
      case avro::Type::kLong:
        out.values[field.name] = std::to_string(value->long_value());
        break;
      default:
        out.values[field.name] = value->ToString();
    }
  }
  return out;
}

}  // namespace lidi::espresso
