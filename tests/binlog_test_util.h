// Reading a sqlstore::Binlog back in tests: ReadAfter's record bodies,
// decoded in place with sqlstore::DecodeRecordView.
#ifndef LIDI_TESTS_BINLOG_TEST_UTIL_H_
#define LIDI_TESTS_BINLOG_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/slice.h"
#include "sqlstore/database.h"

#include "status_test_util.h"

namespace lidi::sqlstore {

/// The transactions with scn > from_scn, up to max_count, decoded; a record
/// that does not decode fails the test. The views stay valid for the
/// binlog's lifetime.
inline std::vector<RecordView> Logged(const Binlog& binlog, int64_t from_scn,
                                      int64_t max_count) {
  std::vector<RecordView> out;
  for (Slice record : binlog.ReadAfter(from_scn, max_count)) {
    EXPECT_OK(DecodeRecordView(record, &out.emplace_back()));
  }
  return out;
}

/// A logged change's post-image row, decoded.
inline Row RowOf(const ChangeView& change) {
  auto row = DecodeRow(change.row);
  EXPECT_OK(row);
  return row.ok() ? row.value() : Row{};
}

}  // namespace lidi::sqlstore

#endif  // LIDI_TESTS_BINLOG_TEST_UTIL_H_
