// Edge-case coverage sweep across the smaller public APIs.

#include <gtest/gtest.h>

#include "databus/event.h"
#include "espresso/document.h"
#include "espresso/replication.h"
#include "espresso/uri.h"
#include "voldemort/readonly_store.h"
#include "voldemort/wire.h"

#include "status_test_util.h"

namespace lidi {
namespace {

TEST(UriEdgeTest, DecodingAndQueryVariants) {
  // %XX decoding and '+' handling.
  auto p = espresso::ParseUri("/db/t/r?query=a%3Ab+c%22d%22");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value().query, "a:b c\"d\"");
  // Multiple parameters: only query= is extracted.
  auto q = espresso::ParseUri("/db/t/r?foo=1&query=x:y&bar=2");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q.value().query, "x:y");
  // No resource id: db/table-level URI parses with empty resource.
  auto r = espresso::ParseUri("/db/t");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().resource_id.empty());
  // Repeated slashes collapse (empty segments skipped).
  auto s = espresso::ParseUri("/db//t///res");
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(s.value().resource_id, "res");
  // Truncated %-escape passes through un-decoded rather than crashing.
  auto t = espresso::ParseUri("/db/t/r?query=x%2");
  ASSERT_TRUE(t.ok());
}

TEST(TransformEdgeTest, SublistBounds) {
  std::string list;
  voldemort::EncodeStringList({"a", "b", "c"}, &list);
  voldemort::Transform t;
  t.type = voldemort::Transform::Type::kSublist;

  // Offset past the end: empty result.
  t.offset = 10;
  t.count = 5;
  auto past = voldemort::ApplyTransform(t, list);
  ASSERT_TRUE(past.ok());
  EXPECT_TRUE(voldemort::DecodeStringList(past.value()).value().empty());

  // Negative offset: clamped (negative indices skipped).
  t.offset = -2;
  t.count = 3;
  auto negative = voldemort::ApplyTransform(t, list);
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(voldemort::DecodeStringList(negative.value()).value(),
            std::vector<std::string>{"a"});

  // Count beyond the end: truncated.
  t.offset = 1;
  t.count = 100;
  auto long_count = voldemort::ApplyTransform(t, list);
  ASSERT_TRUE(long_count.ok());
  EXPECT_EQ(voldemort::DecodeStringList(long_count.value()).value(),
            (std::vector<std::string>{"b", "c"}));

  // Append to an empty (absent) value starts a fresh list.
  voldemort::Transform append;
  append.type = voldemort::Transform::Type::kAppend;
  append.item = "first";
  auto fresh = voldemort::ApplyTransform(append, Slice());
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(voldemort::DecodeStringList(fresh.value()).value(),
            std::vector<std::string>{"first"});
}

TEST(ReadOnlyStoreEdgeTest, LifecycleErrors) {
  voldemort::ReadOnlyStore store;
  // Reads before any swap are Unavailable, not a crash.
  EXPECT_TRUE(store.Get("k").status().IsUnavailable());
  // Rollback with no history fails cleanly.
  EXPECT_FALSE(store.Rollback().ok());
  // Duplicate version rejected.
  ASSERT_TRUE(store.AddVersion(1, {}).ok());
  EXPECT_TRUE(store.AddVersion(1, {}).code() == Code::kAlreadyExists);
  // RetainVersions never drops the current or previous version.
  ASSERT_OK(store.AddVersion(2, {}));
  ASSERT_OK(store.AddVersion(3, {}));
  ASSERT_OK(store.Swap(2));
  ASSERT_OK(store.Swap(3));  // current=3, previous=2
  store.RetainVersions(0);
  auto versions = store.versions();
  EXPECT_NE(std::find(versions.begin(), versions.end(), 3), versions.end());
  EXPECT_NE(std::find(versions.begin(), versions.end(), 2), versions.end());
}

TEST(EspressoRelayEdgeTest, ReadsOnUnknownPartitions) {
  espresso::EspressoRelay relay;
  auto empty = relay.Read("db", 7, 0, 100);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
  EXPECT_EQ(relay.MaxScn("db", 7), 0);
  EXPECT_EQ(relay.TotalEvents(), 0);
  // Appending an empty transaction is a no-op, not an error.
  EXPECT_TRUE(relay.Append("db", 7, {}).ok());
}

TEST(DatabusFilterEdgeTest, NegativePartitionsAndEmptyResidues) {
  databus::Event e;
  e.partition = -1;  // un-partitioned source
  databus::Filter f;
  f.mod_base = 4;
  f.mod_residues = {0};
  EXPECT_TRUE(f.Matches(e));  // residue of "no partition" defaults to 0
  f.mod_residues = {1};
  EXPECT_FALSE(f.Matches(e));
  // mod_base without residues matches nothing partitioned.
  databus::Filter none;
  none.mod_base = 2;
  databus::Event p0;
  p0.partition = 0;
  EXPECT_FALSE(none.Matches(p0));
}

TEST(DocumentRecordEdgeTest, MalformedRowsRejected) {
  sqlstore::Row missing{{"val", "x"}};  // lacks schema_version/etag/timestamp
  EXPECT_FALSE(espresso::DocumentRecord::FromRow(missing).ok());
  espresso::DocumentRecord record;
  record.payload = "p";
  record.schema_version = 3;
  record.etag = "e1";
  record.timestamp_millis = 99;
  auto round = espresso::DocumentRecord::FromRow(record.ToRow());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round.value().schema_version, 3);
  EXPECT_EQ(round.value().etag, "e1");
  EXPECT_EQ(round.value().timestamp_millis, 99);
}

}  // namespace
}  // namespace lidi
