// Tests of the batched folds: MeanAggregator::ConsumeBatch and
// ConsumeScattered must be bit-identical to scalar Consume calls in the
// same order (the engine's sampled drivers fold through them, so this
// equivalence is what keeps fixed-seed results stable), and both must
// reject malformed batches without mutating state.

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "protocol/aggregator.h"

namespace hdldp {
namespace protocol {
namespace {

TEST(ConsumeBatchTest, MatchesScalarConsumePlusMergeBitExactly) {
  constexpr std::size_t kDims = 12;
  constexpr std::size_t kEntries = 4096;
  Rng rng(2024);
  std::vector<std::uint32_t> dims(kEntries);
  std::vector<double> values(kEntries);
  for (std::size_t k = 0; k < kEntries; ++k) {
    dims[k] = static_cast<std::uint32_t>(rng.UniformInt(kDims));
    values[k] = rng.Uniform(-3.0, 3.0);
  }

  // Scalar reference: one aggregator consuming every entry in order.
  auto scalar = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  for (std::size_t k = 0; k < kEntries; ++k) scalar.Consume(dims[k], values[k]);

  // Batched: two shard aggregators splitting the stream, then Merge —
  // the pipeline's worker-reduction shape.
  auto shard_a = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  auto shard_b = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  const std::size_t half = kEntries / 2;
  ASSERT_TRUE(shard_a
                  .ConsumeBatch(std::span<const std::uint32_t>(dims).first(half),
                                std::span<const double>(values).first(half))
                  .ok());
  ASSERT_TRUE(
      shard_b
          .ConsumeBatch(std::span<const std::uint32_t>(dims).subspan(half),
                        std::span<const double>(values).subspan(half))
          .ok());
  ASSERT_TRUE(shard_a.Merge(shard_b).ok());

  ASSERT_EQ(scalar.TotalReports(), shard_a.TotalReports());
  const std::vector<double> scalar_mean = scalar.EstimatedMean();
  const std::vector<double> batch_mean = shard_a.EstimatedMean();
  ASSERT_EQ(scalar_mean.size(), batch_mean.size());
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar.ReportCount(j), shard_a.ReportCount(j));
  }
  // NeumaierSum::Merge folds the shard total in one Add, so the merged sum
  // is not guaranteed bit-equal to the sequential sum in general — but for
  // this fixed stream the estimates must agree to full precision.
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_DOUBLE_EQ(scalar_mean[j], batch_mean[j]);
  }

  // Single aggregator, whole stream in one batch: exactly the scalar order,
  // so bit-identical.
  auto whole = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(whole.ConsumeBatch(dims, values).ok());
  const std::vector<double> whole_mean = whole.EstimatedMean();
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(scalar_mean[j], whole_mean[j]);
  }
}

TEST(ConsumeBatchTest, RejectsMalformedBatchWithoutMutating) {
  auto agg = MeanAggregator::Create(3, mech::DomainMap()).value();
  const std::vector<std::uint32_t> dims{0, 1, 7};  // 7 out of range.
  const std::vector<double> values{0.1, 0.2, 0.3};
  EXPECT_FALSE(agg.ConsumeBatch(dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);  // Whole batch rejected atomically.

  const std::vector<std::uint32_t> short_dims{0, 1};
  EXPECT_FALSE(agg.ConsumeBatch(short_dims, values).ok());  // Size mismatch.
  EXPECT_EQ(agg.TotalReports(), 0);

  const std::vector<std::uint32_t> good_dims{0, 2};
  const std::vector<double> good_values{1.0, -1.0};
  EXPECT_TRUE(agg.ConsumeBatch(good_dims, good_values).ok());
  EXPECT_EQ(agg.TotalReports(), 2);
}

// ConsumeScattered is ConsumeBatch with a cache-bucketed fold: same
// validation, bit-identical per-dimension accumulation order. The v3
// sampled engine driver feeds whole cross-user blocks through it, so
// this equivalence is what keeps v3 estimates independent of block
// geometry details like the bucket width.
TEST(ConsumeScatteredTest, BitIdenticalToConsumeBatch) {
  Rng rng(77);
  // Both fold regimes: single-bucket (d <= 512) and multi-bucket.
  for (const std::size_t dims_count : {std::size_t{100}, std::size_t{3000}}) {
    SCOPED_TRACE(dims_count);
    constexpr std::size_t kEntries = 40000;
    std::vector<std::uint32_t> dims(kEntries);
    std::vector<double> values(kEntries);
    for (std::size_t k = 0; k < kEntries; ++k) {
      dims[k] = static_cast<std::uint32_t>(rng.UniformInt(dims_count));
      values[k] = rng.Uniform(-3.0, 3.0);
    }
    auto batch = MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    auto scattered =
        MeanAggregator::Create(dims_count, mech::DomainMap()).value();
    ASSERT_TRUE(batch.ConsumeBatch(dims, values).ok());
    ASSERT_TRUE(scattered.ConsumeScattered(dims, values).ok());
    EXPECT_EQ(batch.EstimatedMean(), scattered.EstimatedMean());
    EXPECT_EQ(batch.TotalReports(), scattered.TotalReports());
    for (std::size_t j = 0; j < dims_count; ++j) {
      ASSERT_EQ(batch.ReportCount(j), scattered.ReportCount(j)) << j;
    }
  }
}

TEST(ConsumeScatteredTest, RunShapedBlocksStayBitIdentical) {
  // One-hot expansions produce ascending index runs; interleave runs
  // with isolated entries to exercise the shape the v3 freq path feeds.
  constexpr std::size_t kDims = 640;
  Rng rng(5);
  std::vector<std::uint32_t> dims;
  std::vector<double> values;
  for (int rep = 0; rep < 3000; ++rep) {
    const auto off = static_cast<std::uint32_t>(rng.UniformInt(kDims - 8));
    for (std::uint32_t k = 0; k < 8; ++k) {
      dims.push_back(off + k);
      values.push_back(rng.Uniform(-1.0, 1.0));
    }
    dims.push_back(static_cast<std::uint32_t>(rng.UniformInt(kDims)));
    values.push_back(rng.Uniform(-1.0, 1.0));
  }
  auto batch = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  auto scattered = MeanAggregator::Create(kDims, mech::DomainMap()).value();
  ASSERT_TRUE(batch.ConsumeBatch(dims, values).ok());
  ASSERT_TRUE(scattered.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(batch.EstimatedMean(), scattered.EstimatedMean());
  EXPECT_EQ(batch.TotalReports(), scattered.TotalReports());
}

TEST(ConsumeScatteredTest, RejectsMalformedBlocksWithoutMutating) {
  auto agg = MeanAggregator::Create(3, mech::DomainMap()).value();
  const std::vector<std::uint32_t> dims{0, 1, 7};  // 7 out of range.
  const std::vector<double> values{0.1, 0.2, 0.3};
  EXPECT_FALSE(agg.ConsumeScattered(dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
  const std::vector<std::uint32_t> short_dims{0, 1};
  EXPECT_FALSE(agg.ConsumeScattered(short_dims, values).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
  EXPECT_TRUE(agg.ConsumeScattered({}, {}).ok());
  EXPECT_EQ(agg.TotalReports(), 0);
}

}  // namespace
}  // namespace protocol
}  // namespace hdldp
