#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/time_series.h"
#include "prediction/spar_model.h"
#include "trace/b2w_trace_generator.h"

namespace pstore {
namespace {

TimeSeries TrainingTrace() {
  B2wTraceOptions options;
  options.days = 16;
  options.seed = 12;
  return GenerateB2wTrace(options);
}

SparOptions SmallOptions() {
  SparOptions options;
  options.period = 1440;
  options.num_periods = 3;
  options.num_recent = 10;
  options.max_tau = 20;
  options.tau_stride = 5;
  return options;
}

TEST(SparModelIoTest, SaveRequiresFit) {
  SparPredictor spar(SmallOptions());
  EXPECT_FALSE(spar.SaveToFile(::testing::TempDir() + "/x.spar").ok());
}

TEST(SparModelIoTest, RoundTripPredictsIdentically) {
  const TimeSeries trace = TrainingTrace();
  SparPredictor original(SmallOptions());
  ASSERT_TRUE(original.Fit(trace.Slice(0, 14 * 1440)).ok());

  const std::string path = ::testing::TempDir() + "/roundtrip.spar";
  ASSERT_TRUE(original.SaveToFile(path).ok());
  StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  for (size_t tau : {1u, 7u, 20u}) {
    const StatusOr<double> a = original.PredictAhead(trace, tau);
    const StatusOr<double> b = loaded->PredictAhead(trace, tau);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Hex-float serialization: bit-exact round trip.
    EXPECT_EQ(*a, *b) << "tau=" << tau;
  }
  std::remove(path.c_str());
}

TEST(SparModelIoTest, MissingFileFails) {
  EXPECT_FALSE(SparPredictor::LoadFromFile("/no/such/model.spar").ok());
}

TEST(SparModelIoTest, WrongMagicRejected) {
  const std::string path = ::testing::TempDir() + "/bad_magic.spar";
  std::ofstream(path) << "NOTSPAR\n1 2 3 4 5\n";
  EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(SparModelIoTest, TruncatedHeaderRejected) {
  const std::string path = ::testing::TempDir() + "/trunc.spar";
  std::ofstream(path) << "SPARv1\n1440 3\n";
  EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(SparModelIoTest, CoefficientCountMismatchRejected) {
  const std::string path = ::testing::TempDir() + "/short_row.spar";
  std::ofstream(path) << "SPARv1\n1440 3 10 20 5\n1 0x1p+0 0x1p+0\n";
  EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(SparModelIoTest, MissingStrideTauRejected) {
  // Header says taus 1, 6, 11, 16 must exist; provide only tau 1.
  const std::string path = ::testing::TempDir() + "/missing_tau.spar";
  std::ofstream out(path);
  out << "SPARv1\n1440 1 1 20 5\n1 0x1p+0 0x1p+0\n";
  out.close();
  EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

TEST(SparModelIoTest, EmptyModelRejected) {
  const std::string path = ::testing::TempDir() + "/empty.spar";
  std::ofstream(path) << "SPARv1\n1440 3 10 20 5\n";
  EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

// Writes a model file: the header line, then the rows as given.
std::string WriteModel(const std::string& name, const std::string& header,
                       const std::string& rows) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream(path) << "SPARv1\n" << header << "\n" << rows;
  return path;
}

// One coefficient row for `tau` with `cols` coefficients of 1.
std::string OnesRow(size_t tau, size_t cols) {
  std::string row = std::to_string(tau);
  for (size_t i = 0; i < cols; ++i) row += " 0x1p+0";
  return row + "\n";
}

// Every header field must parse in full as a count, and there are five.
TEST(SparModelIoTest, HeaderMustParseInFull) {
  for (const std::string header :
       {"1440 1 1 1 1.5", "1440 1 1 1 1xyz", "1440 1 1 1 1 1", "1440 1 1 -1 1",
        "1440 1 1 1 +1"}) {
    const std::string path =
        WriteModel("bad_header.spar", header, OnesRow(1, 2));
    const StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
    std::remove(path.c_str());
  }
  const std::string path = WriteModel("good_header.spar", " 1440\t1 1 1 1 ",
                                      OnesRow(1, 2));
  EXPECT_TRUE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

// The table is sized from the rows, never from the header alone. Each of
// these headers threw std::bad_alloc or std::length_error when the table
// or a row was sized before any row was read.
TEST(SparModelIoTest, HeaderCannotAskForMemoryItsRowsDoNotBack) {
  const std::string row = OnesRow(1, 37);
  for (const std::string header :
       {"1440 7 30 100000000000000 1",             // 10^14 taus, one row
        "1440 100000000000000000 30 60 1",         // 10^17-wide rows
        "2 9223372036854775808 30 60 1"}) {        // n * period wraps
    const std::string path = WriteModel("huge.spar", header, row);
    const StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << header;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << header;
    std::remove(path.c_str());
  }
  // One fitted tau covers all 10^14: one row backs the whole table.
  const std::string path = WriteModel(
      "wide_stride.spar", "1440 7 30 100000000000000 100000000000000", row);
  const StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->CoefficientsFor(100000000000000).size(), 37u);
  std::remove(path.c_str());
}

// Every tau and coefficient must parse in full, and every coefficient
// must be finite; strtod alone read "1.5xyz" as 1.5 and "abc" as 0, and
// the row "1.5 0x1p+0" loaded as tau 1 with coefficients 0.5 and 1.
TEST(SparModelIoTest, CoefficientsMustParseInFullAndBeFinite) {
  for (const std::string bad :
       {"1 0x1p+0 1.5xyz", "1 0x1p+0 abc", "1 0x1p+0 nan", "1 0x1p+0 inf",
        "1 0x1p+0 -inf", "1 0x1p+0 1e999", "1 0x1p+0 0x1p+0,",
        "1.5 0x1p+0", "1x 0x1p+0 0x1p+0", "-1 0x1p+0 0x1p+0"}) {
    const std::string path =
        WriteModel("bad_coef.spar", "1440 1 1 1 1", bad + "\n");
    const StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
    ASSERT_FALSE(loaded.ok()) << bad;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << bad;
    std::remove(path.c_str());
  }
  const std::string path =
      WriteModel("good_coef.spar", "1440 1 1 1 1", "1 0x1p+0 1.5\n");
  const StatusOr<SparPredictor> loaded = SparPredictor::LoadFromFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->CoefficientsFor(1), (std::vector<double>{1.0, 1.5}));
  std::remove(path.c_str());
}

// SaveToFile writes the fitted taus in order, one row each; a row for a
// tau the stride skips, a second row for one tau, rows out of order or a
// row past the last fitted tau is not a model it wrote.
TEST(SparModelIoTest, RowsListTheFittedTausInOrder) {
  for (const std::string& rows :
       {OnesRow(1, 2) + OnesRow(3, 2) + OnesRow(6, 2),
        OnesRow(1, 2) + OnesRow(1, 2) + OnesRow(6, 2),
        OnesRow(6, 2) + OnesRow(1, 2),
        OnesRow(1, 2) + OnesRow(6, 2) + OnesRow(6, 2)}) {
    const std::string path = WriteModel("rows.spar", "1440 1 1 10 5", rows);
    EXPECT_FALSE(SparPredictor::LoadFromFile(path).ok()) << rows;
    std::remove(path.c_str());
  }
  const std::string path = WriteModel("in_order.spar", "1440 1 1 10 5",
                                      OnesRow(1, 2) + OnesRow(6, 2));
  EXPECT_TRUE(SparPredictor::LoadFromFile(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pstore
