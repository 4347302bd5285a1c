#ifndef LIDI_ESPRESSO_SCHEMA_H_
#define LIDI_ESPRESSO_SCHEMA_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/sync.h"
#include "avro/schema.h"
#include "common/slice.h"
#include "common/status.h"

namespace lidi::espresso {

/// A database schema (paper Section IV.A): names the database, and defines
/// how it is partitioned. The paper ships hash-based partitioning and
/// un-partitioned (all documents on all nodes) and anticipates "adding range
/// based partitioning in the future" — kRange implements that future-work
/// strategy: resource ids are assigned to partitions by lexicographic range
/// boundaries, which keeps collections with adjacent ids co-located (useful
/// for time- or alphabet-ordered keys).
struct DatabaseSchema {
  std::string name;
  enum class Partitioning { kHash, kUnpartitioned, kRange } partitioning =
      Partitioning::kHash;
  int num_partitions = 8;
  int replication_factor = 2;
  /// For kRange: sorted upper-exclusive boundaries; resource_id r belongs to
  /// the first partition p with r < range_boundaries[p], and to the last
  /// partition when r >= every boundary. Must hold exactly
  /// num_partitions - 1 entries.
  std::vector<std::string> range_boundaries;
};

/// A table schema: how documents within the table are referenced. The
/// resource_id may designate a single document (singleton resource) or a
/// collection keyed by further subresource path elements, e.g. the Album
/// table's documents live at /Music/Album/<artist>/<album>.
struct TableSchema {
  std::string name;
  /// Number of subresource path elements after the resource_id. 0 =
  /// singleton resources (e.g. Artist), 1 = one level (Album), 2 = two
  /// (Song: artist/album/song).
  int subresource_levels = 0;
};

/// Computes the partition of a resource id under a database schema.
int PartitionOf(const DatabaseSchema& schema, const std::string& resource_id);

/// Checks Avro schema-resolution compatibility: data written with `writer`
/// must be readable with `reader` (new document schemas must be compatible
/// so existing documents can be promoted, Section IV.A).
Status CheckCompatible(const avro::Schema& writer, const avro::Schema& reader);

/// Versioned document-schema registry for one Espresso cluster. Document
/// schemas are freely evolvable: posting a new version succeeds only if
/// every existing version's data remains readable under it.
class SchemaRegistry {
 public:
  Status CreateDatabase(DatabaseSchema schema);
  Result<DatabaseSchema> GetDatabase(const std::string& database) const;

  Status CreateTable(const std::string& database, TableSchema table);
  Result<TableSchema> GetTable(const std::string& database,
                               const std::string& table) const;
  std::vector<std::string> Tables(const std::string& database) const;

  /// Posts a document schema version for (database, table). The first post
  /// establishes version 1; later posts must be backward compatible and get
  /// increasing versions. Returns the assigned version.
  Result<int> PostDocumentSchema(const std::string& database,
                                 const std::string& table,
                                 const std::string& schema_json);

  /// A specific schema version (writer schema of stored documents).
  Result<avro::SchemaPtr> GetDocumentSchema(const std::string& database,
                                            const std::string& table,
                                            int version) const;
  /// The latest version (reader schema for serving).
  Result<std::pair<int, avro::SchemaPtr>> LatestDocumentSchema(
      const std::string& database, const std::string& table) const;

 private:
  mutable Mutex mu_{"espresso.schema"};
  std::map<std::string, DatabaseSchema> databases_ LIDI_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, TableSchema> tables_
      LIDI_GUARDED_BY(mu_);
  std::map<std::pair<std::string, std::string>, std::vector<avro::SchemaPtr>>
      document_schemas_ LIDI_GUARDED_BY(mu_);
};

/// What a secondary index takes from one document (paper IV.A: indexes are
/// built from the document schema's index annotations): the value of each
/// field the schema marks `indexed`, as text, and which of them are
/// text-indexed.
struct IndexedFields {
  std::map<std::string, std::string> values;
  std::set<std::string> text_fields;
};

/// The indexed fields of an Avro `payload` written with `schema_version` of
/// (database, table). Nothing when that version is unknown, indexes no
/// field, or the payload does not decode.
std::optional<IndexedFields> ExtractIndexedFields(
    const SchemaRegistry& registry, const std::string& database,
    const std::string& table, int schema_version, Slice payload);

}  // namespace lidi::espresso

#endif  // LIDI_ESPRESSO_SCHEMA_H_
