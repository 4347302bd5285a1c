// Property tests for the storage engines: random operation sequences
// checked against a model map, parameterized over engine tuning.

#include <gtest/gtest.h>

#include <map>

#include "common/random.h"
#include "obs/metrics.h"
#include "storage/engine.h"
#include "storage/log_engine.h"

#include "status_test_util.h"

namespace lidi::storage {
namespace {

struct LogEngineParams {
  int64_t segment_bytes;
  double garbage_ratio;
  uint64_t seed;
};

class LogEnginePropertyTest
    : public ::testing::TestWithParam<LogEngineParams> {};

TEST_P(LogEnginePropertyTest, MatchesModelUnderRandomOps) {
  const LogEngineParams params = GetParam();
  LogEngineOptions options;
  options.segment_size_bytes = params.segment_bytes;
  options.compaction_garbage_ratio = params.garbage_ratio;
  auto engine = NewLogStructuredEngine(options);
  std::map<std::string, std::string> model;
  Random rng(params.seed);

  for (int step = 0; step < 4000; ++step) {
    const std::string key = "k" + std::to_string(rng.Uniform(80));
    const double op = rng.NextDouble();
    if (op < 0.55) {
      const std::string value = rng.Bytes(rng.Uniform(120));
      ASSERT_TRUE(engine->Put(key, value).ok());
      model[key] = value;
    } else if (op < 0.75) {
      ASSERT_TRUE(engine->Delete(key).ok());
      model.erase(key);
    } else if (op < 0.95) {
      std::string value;
      const Status s = engine->Get(key, &value);
      auto it = model.find(key);
      if (it == model.end()) {
        EXPECT_TRUE(s.IsNotFound()) << key;
      } else {
        ASSERT_TRUE(s.ok()) << key << ": " << s.ToString();
        EXPECT_EQ(value, it->second);
      }
    } else {
      engine->CompactNow();
    }
    ASSERT_EQ(engine->Count(), static_cast<int64_t>(model.size()));
  }

  // Full scan equals the model.
  std::map<std::string, std::string> scanned;
  engine->ForEach([&scanned](Slice k, Slice v) {
    scanned[k.ToString()] = v.ToString();
    return true;
  });
  EXPECT_EQ(scanned, model);
  EXPECT_TRUE(engine->VerifyChecksums().ok());

  const obs::RegistrySnapshot stats = engine->metrics()->Snapshot();
  EXPECT_EQ(stats.Value("storage.live_keys"),
            static_cast<int64_t>(model.size()));
  EXPECT_GE(stats.Value("storage.total_bytes"), 0);
}

TEST_P(LogEnginePropertyTest, CompactionPreservesDataAndReclaimsSpace) {
  const LogEngineParams params = GetParam();
  LogEngineOptions options;
  options.segment_size_bytes = params.segment_bytes;
  options.compaction_garbage_ratio = 10.0;  // never auto-compact
  auto engine = NewLogStructuredEngine(options);
  Random rng(params.seed);

  // Overwrite a small key set many times: mostly garbage accumulates.
  std::map<std::string, std::string> model;
  for (int i = 0; i < 2000; ++i) {
    const std::string key = "k" + std::to_string(rng.Uniform(20));
    const std::string value = rng.Bytes(100);
    ASSERT_OK(engine->Put(key, value));
    model[key] = value;
  }
  const int64_t before =
      engine->metrics()->Snapshot().Value("storage.total_bytes");
  engine->CompactNow();
  const obs::RegistrySnapshot after = engine->metrics()->Snapshot();
  EXPECT_LT(after.Value("storage.total_bytes"), before / 4);
  EXPECT_EQ(after.Value("storage.dead_bytes"), 0);
  EXPECT_EQ(after.Value("storage.compactions"), 1);

  std::map<std::string, std::string> scanned;
  engine->ForEach([&scanned](Slice k, Slice v) {
    scanned[k.ToString()] = v.ToString();
    return true;
  });
  EXPECT_EQ(scanned, model);
  EXPECT_TRUE(engine->VerifyChecksums().ok());
}

INSTANTIATE_TEST_SUITE_P(
    Tunings, LogEnginePropertyTest,
    ::testing::Values(LogEngineParams{1 << 20, 0.5, 1},   // defaults
                      LogEngineParams{512, 0.5, 2},       // tiny segments
                      LogEngineParams{512, 0.1, 3},       // eager compaction
                      LogEngineParams{1 << 14, 0.9, 4},   // lazy compaction
                      LogEngineParams{256, 0.3, 5}));

class EngineContractTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  std::unique_ptr<StorageEngine> MakeEngine() {
    if (std::string(GetParam()) == "memtable") return NewMemTableEngine();
    return NewLogStructuredEngine();
  }
};

TEST_P(EngineContractTest, BasicContract) {
  auto engine = MakeEngine();
  std::string value;
  EXPECT_TRUE(engine->Get("missing", &value).IsNotFound());
  EXPECT_TRUE(engine->Put("a", "1").ok());
  EXPECT_TRUE(engine->Put("a", "2").ok());  // overwrite
  ASSERT_TRUE(engine->Get("a", &value).ok());
  EXPECT_EQ(value, "2");
  EXPECT_EQ(engine->Count(), 1);
  EXPECT_TRUE(engine->Delete("a").ok());
  EXPECT_TRUE(engine->Delete("a").ok());  // idempotent
  EXPECT_TRUE(engine->Get("a", &value).IsNotFound());
  EXPECT_EQ(engine->Count(), 0);
}

TEST_P(EngineContractTest, BinaryKeysAndValues) {
  auto engine = MakeEngine();
  const std::string key("\x00\x01\xff", 3);
  const std::string val("\xde\xad\x00\xbe\xef", 5);
  ASSERT_TRUE(engine->Put(key, val).ok());
  std::string got;
  ASSERT_TRUE(engine->Get(key, &got).ok());
  EXPECT_EQ(got, val);
}

TEST_P(EngineContractTest, ForEachEarlyStop) {
  auto engine = MakeEngine();
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(engine->Put("k" + std::to_string(i), "v"));
  }
  int visited = 0;
  engine->ForEach([&visited](Slice, Slice) { return ++visited < 3; });
  EXPECT_EQ(visited, 3);
}

INSTANTIATE_TEST_SUITE_P(Engines, EngineContractTest,
                         ::testing::Values("memtable", "logstructured"));

}  // namespace
}  // namespace lidi::storage
