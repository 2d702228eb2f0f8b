// Failure-injection tests: invalid inputs must be rejected loudly (CHECK
// abort, captured via gtest death tests) or via error Status, never
// silently accepted.

#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "common/serialize.h"
#include "core/label_propagation.h"
#include "core/moments.h"
#include "data/registry.h"
#include "graph/graph.h"
#include "graph/subgraph.h"
#include "linalg/csr.h"
#include "linalg/ops.h"
#include "nn/loss.h"
#include "nn/parameters.h"
#include "partition/metis.h"

namespace fedgta {
namespace {

using FailureDeathTest = ::testing::Test;

TEST(FailureDeathTest, GraphRejectsOutOfRangeEndpoints) {
  EXPECT_DEATH(Graph::FromEdges(3, {{0, 3}}), "edge endpoint");
  EXPECT_DEATH(Graph::FromEdges(3, {{-1, 0}}), "edge endpoint");
}

TEST(FailureDeathTest, CsrRejectsOutOfRangeCoo) {
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{2, 0, 1.0f}}), "COO row");
  EXPECT_DEATH(CsrMatrix::FromCoo(2, 2, {{0, 5, 1.0f}}), "COO col");
}

TEST(FailureDeathTest, CsrMultiplyShapeMismatch) {
  const CsrMatrix m = CsrMatrix::FromCoo(2, 3, {{0, 0, 1.0f}});
  Matrix wrong(5, 2, 1.0f);
  Matrix out;
  EXPECT_DEATH(m.Multiply(wrong, &out), "FEDGTA_CHECK");
}

TEST(FailureDeathTest, GemmInnerDimensionMismatch) {
  Matrix a(2, 3), b(4, 5), c(2, 5);
  EXPECT_DEATH(Gemm(a, Transpose::kNo, b, Transpose::kNo, 1.0f, 0.0f, &c),
               "inner dimensions");
}

TEST(FailureDeathTest, SubgraphRejectsDuplicatesAndBadIds) {
  const Graph g = Graph::FromEdges(4, {{0, 1}});
  EXPECT_DEATH(InduceSubgraph(g, {0, 0}), "duplicate node id");
  EXPECT_DEATH(InduceSubgraph(g, {7}), "node id");
}

TEST(FailureDeathTest, MetisRejectsTooManyParts) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}});
  Rng rng(1);
  EXPECT_DEATH(MetisPartition(g, 10, rng), "more parts than nodes");
}

TEST(FailureDeathTest, CrossEntropyRejectsBadLabels) {
  Matrix logits(2, 3);
  Matrix dlogits;
  EXPECT_DEATH(
      SoftmaxCrossEntropy(logits, {0, 7}, {0, 1}, &dlogits), "label");
  EXPECT_DEATH(SoftmaxCrossEntropy(logits, {0, 1}, {}, &dlogits),
               "FEDGTA_CHECK");
}

TEST(FailureDeathTest, UnflattenSizeMismatch) {
  Matrix w(2, 2), g(2, 2);
  std::vector<ParamRef> params{{&w, &g}};
  std::vector<float> wrong(3, 0.0f);
  EXPECT_DEATH(UnflattenParams(wrong, params), "FEDGTA_CHECK");
}

TEST(FailureDeathTest, LabelPropagationValidatesArguments) {
  const Graph g = Graph::FromEdges(3, {{0, 1}});
  const CsrMatrix op = LabelPropagationOperator(g);
  Matrix y0(3, 2, 0.5f);
  EXPECT_DEATH(NonParamLabelPropagation(op, y0, 0.5f, 0), "k");
  EXPECT_DEATH(NonParamLabelPropagation(op, y0, 1.5f, 2), "alpha");
  Matrix mismatched(5, 2, 0.5f);
  EXPECT_DEATH(NonParamLabelPropagation(op, mismatched, 0.5f, 2),
               "FEDGTA_CHECK");
}

TEST(FailureDeathTest, MomentsRejectEmptyAndBadOrder) {
  EXPECT_DEATH(MixedMoments({}, 2), "FEDGTA_CHECK");
  std::vector<Matrix> hops{Matrix(2, 2, 0.5f)};
  EXPECT_DEATH(MixedMoments(hops, 0), "moment_order");
}

TEST(FailureStatusTest, UnknownNamesReturnErrors) {
  EXPECT_EQ(GetDatasetSpec("no-such-dataset").status().code(),
            StatusCode::kNotFound);
}

TEST(FailureDeathTest, ResultValueOnErrorAborts) {
  Result<int> r(InternalError("boom"));
  EXPECT_DEATH((void)r.value(), "Result::value");
}

// Checkpoint corruption must always surface as an error Status — a damaged
// or foreign file must never abort the process or load partially.
class CheckpointCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One file per test: ctest runs these cases as parallel processes.
    path_ = (std::filesystem::temp_directory_path() /
             (std::string("fedgta_corruption_") +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() +
              ".ckpt"))
                .string();
    serialize::Writer writer;
    writer.WriteString("state");
    writer.WriteI64(1234);
    ASSERT_TRUE(writer.WriteToFile(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    raw_.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    ASSERT_GT(raw_.size(), 20u);  // header is 20 bytes
  }

  void TearDown() override { std::filesystem::remove(path_); }

  void WriteRaw(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::string raw_;
};

TEST_F(CheckpointCorruptionTest, TruncatedHeaderIsOutOfRange) {
  WriteRaw(raw_.substr(0, 10));
  EXPECT_EQ(serialize::Reader::FromFile(path_).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(CheckpointCorruptionTest, TruncatedPayloadIsOutOfRange) {
  WriteRaw(raw_.substr(0, raw_.size() - 4));
  EXPECT_EQ(serialize::Reader::FromFile(path_).status().code(),
            StatusCode::kOutOfRange);
}

TEST_F(CheckpointCorruptionTest, BadMagicIsInvalidArgument) {
  std::string bad = raw_;
  bad[0] = 'X';  // clobber the first magic byte
  WriteRaw(bad);
  const Status status = serialize::Reader::FromFile(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, WrongVersionIsInvalidArgument) {
  std::string bad = raw_;
  const uint32_t future = serialize::kVersion + 1;
  std::memcpy(bad.data() + 4, &future, sizeof(future));
  WriteRaw(bad);
  const Status status = serialize::Reader::FromFile(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, FlippedPayloadByteFailsCrc) {
  std::string bad = raw_;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x5a);
  WriteRaw(bad);
  const Status status = serialize::Reader::FromFile(path_).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("CRC"), std::string::npos);
}

TEST_F(CheckpointCorruptionTest, TrailingGarbageIsOutOfRange) {
  WriteRaw(raw_ + "garbage");
  EXPECT_EQ(serialize::Reader::FromFile(path_).status().code(),
            StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace fedgta
