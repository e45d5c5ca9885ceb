// Tests of the fault-tolerance stack: deterministic fault injection
// (data/fault_injection.h), the engine's retry/backoff and quarantine
// controls (engine/reduce.h), and their end-to-end contract — a run
// whose transient faults are all recovered is bit-identical to a
// fault-free run, at every thread count.

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generators.h"
#include "data/shard.h"
#include "hdr4me/recalibrate.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/pipeline.h"

namespace hdldp {
namespace data {
namespace {

// Three chunks: two full (4096 users) plus one partial tail.
constexpr std::size_t kUsers = 2 * 4096 + 1000;
constexpr std::size_t kDims = 6;

Dataset TestDataset() {
  Rng rng(77);
  return GenerateUniform({.num_users = kUsers, .num_dims = kDims}, &rng)
      .value();
}

protocol::PipelineOptions BaseOptions() {
  protocol::PipelineOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 5;
  opts.num_threads = 2;
  return opts;
}

mech::MechanismPtr Mech() { return mech::MakeMechanism("piecewise").value(); }

TEST(FaultScheduleTest, RandomIsDeterministic) {
  FaultSchedule::RandomOptions opts;
  opts.transient_rate = 0.3;
  opts.persistent_rate = 0.1;
  opts.bit_flip_rate = 0.1;
  const FaultSchedule a = FaultSchedule::Random(42, 1000, opts);
  const FaultSchedule b = FaultSchedule::Random(42, 1000, opts);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.FaultedChunks(), b.FaultedChunks());
  for (const std::size_t c : a.FaultedChunks()) {
    ASSERT_NE(b.Find(c), nullptr);
    EXPECT_EQ(static_cast<int>(a.Find(c)->kind),
              static_cast<int>(b.Find(c)->kind));
  }
  // Roughly half the chunks should be faulted at these rates; the exact
  // set is pinned by the seed, not asserted here.
  EXPECT_GT(a.size(), 300u);
  EXPECT_LT(a.size(), 700u);
}

TEST(FaultScheduleTest, RateOneFaultsEveryChunk) {
  FaultSchedule::RandomOptions opts;
  opts.transient_rate = 1.0;
  const FaultSchedule schedule = FaultSchedule::Random(1, 64, opts);
  EXPECT_EQ(schedule.size(), 64u);
}

TEST(FaultInjectionTest, TransientFaultFailsThenSucceeds) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 1,
                .failing_attempts = 2});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer buffer;
  EXPECT_EQ(source.Chunk(1, &buffer).status().code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(source.Chunk(1, &buffer).status().code(),
            StatusCode::kUnavailable);
  const auto rows = source.Chunk(1, &buffer);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(source.attempts(1), 3u);
  // Unfaulted chunks pass straight through.
  EXPECT_TRUE(source.Chunk(0, &buffer).ok());
}

TEST(FaultInjectionTest, PersistentFaultAlwaysFailsNamingTheChunk) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 2});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer buffer;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const auto rows = source.Chunk(2, &buffer);
    ASSERT_FALSE(rows.ok());
    EXPECT_EQ(rows.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(rows.status().message().find("chunk 2"), std::string::npos);
  }
}

TEST(FaultInjectionTest, BitFlipCorruptsExactlyOneByte) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kBitFlip,
                .chunk = 0,
                .byte_offset = 1234,
                .xor_mask = 0x40});
  const FaultInjectingChunkSource source(&base, schedule);
  ChunkBuffer clean_buffer;
  ChunkBuffer flipped_buffer;
  const auto clean = base.Chunk(0, &clean_buffer);
  const auto flipped = source.Chunk(0, &flipped_buffer);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(flipped.ok());
  ASSERT_EQ(clean.value().size(), flipped.value().size());
  std::size_t differing_bytes = 0;
  const auto* a =
      reinterpret_cast<const unsigned char*>(clean.value().data());
  const auto* b =
      reinterpret_cast<const unsigned char*>(flipped.value().data());
  for (std::size_t i = 0; i < clean.value().size() * sizeof(double); ++i) {
    differing_bytes += a[i] != b[i];
  }
  EXPECT_EQ(differing_bytes, 1u);
}

TEST(FaultInjectionTest, TrueMeanBypassesFaults) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 0});
  const FaultInjectingChunkSource source(&base, schedule);
  const auto true_mean = source.TrueMean();
  ASSERT_TRUE(true_mean.ok());
  EXPECT_EQ(true_mean.value(), base.TrueMean().value());
}

TEST(PipelineFaultTest, RecoveredTransientFaultsAreBitIdentical) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  const auto clean =
      protocol::RunMeanEstimation(base, Mech(), BaseOptions()).value();

  FaultSchedule::RandomOptions random;
  random.transient_rate = 0.9;
  random.failing_attempts = 2;
  const FaultInjectingChunkSource faulty(
      &base, FaultSchedule::Random(13, base.num_chunks(), random));
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    protocol::PipelineOptions opts = BaseOptions();
    opts.num_threads = threads;
    opts.retry.max_attempts = 3;
    const auto recovered =
        protocol::RunMeanEstimation(faulty, Mech(), opts).value();
    EXPECT_EQ(recovered.estimated_mean, clean.estimated_mean)
        << "threads=" << threads;
    EXPECT_TRUE(recovered.quarantined_chunks.empty());
    EXPECT_EQ(recovered.surviving_users, kUsers);
  }
}

TEST(PipelineFaultTest, TransientFaultWithoutRetryIsUnavailable) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 1,
                .failing_attempts = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), BaseOptions());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(PipelineFaultTest, ExhaustedRetriesStillFail) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 5});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.retry.max_attempts = 3;  // < failing_attempts: still fails.
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
}

TEST(PipelineFaultTest, PersistentFaultFailsCleanlyWithoutOptIn) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.retry.max_attempts = 3;  // Retries never help a persistent fault.
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(run.status().message().find("chunk 1"), std::string::npos);
}

TEST(PipelineFaultTest, QuarantineSkipsFailingChunksAndReportsThem) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.allow_missing_chunks = true;
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts).value();
  EXPECT_EQ(run.quarantined_chunks, std::vector<std::size_t>{1});
  EXPECT_EQ(run.surviving_users, kUsers - base.ChunkUsers(1));
  // The estimate covers surviving users only: report counts must sum to
  // surviving_users per dimension (m == d, every survivor reports all).
  for (std::size_t j = 0; j < kDims; ++j) {
    EXPECT_EQ(run.report_counts[j],
              static_cast<std::int64_t>(run.surviving_users));
  }
}

TEST(PipelineFaultTest, EveryChunkQuarantinedLeavesNothingToScore) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule::RandomOptions random;
  random.persistent_rate = 1.0;
  const FaultInjectingChunkSource faulty(
      &base, FaultSchedule::Random(3, base.num_chunks(), random));
  protocol::PipelineOptions opts = BaseOptions();
  opts.allow_missing_chunks = true;
  EXPECT_EQ(protocol::RunMeanEstimation(faulty, Mech(), opts).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineFaultTest, QuarantinedEstimateMatchesSurvivorsOnlyRun) {
  // Quarantining chunk 2 (the tail) must produce the exact estimate of
  // running the protocol over chunks 0..1 alone: quarantine is a skip,
  // not a rescale-after-the-fact.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 2});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.allow_missing_chunks = true;
  const auto quarantined =
      protocol::RunMeanEstimation(faulty, Mech(), opts).value();

  const SlicedChunkSource survivors(&base, 0, 2 * 4096);
  const auto direct =
      protocol::RunMeanEstimation(survivors, Mech(), BaseOptions()).value();
  EXPECT_EQ(quarantined.estimated_mean, direct.estimated_mean);
  // The ground truth and score cover the same survivors.
  EXPECT_EQ(quarantined.true_mean, direct.true_mean);
  EXPECT_EQ(quarantined.mse, direct.mse);
}

TEST(PipelineFaultTest, ShardBitFlipQuarantinesAndScoresSurvivorsOnly) {
  // A flipped payload byte in the shard's tail chunk fails its CRC on
  // every pull; under allow_missing_chunks the run completes, and
  // neither the estimate nor the ground truth reads that chunk.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource resident(&dataset);
  const std::string dir = ::testing::TempDir() + "hdldp_fault_shard_flip";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(WriteShards(resident, dir).ok());
  {
    // Past the 4096-byte header, 123 bytes into chunk 2's payload.
    const std::size_t offset =
        4096 + 2 * kUsersPerChunk * kDims * sizeof(double) + 123;
    std::fstream part(dir + "/part-00000.hds",
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(part.good());
    part.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    part.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x01);
    part.seekp(static_cast<std::streamoff>(offset));
    part.write(&byte, 1);
    ASSERT_TRUE(part.good());
  }
  const auto shard = ShardFileSource::Open(dir);
  ASSERT_TRUE(shard.ok()) << shard.status().ToString();

  protocol::PipelineOptions opts = BaseOptions();
  EXPECT_EQ(protocol::RunMeanEstimation(shard.value(), Mech(), opts)
                .status()
                .code(),
            StatusCode::kDataLoss);
  opts.allow_missing_chunks = true;
  const auto run = protocol::RunMeanEstimation(shard.value(), Mech(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarantined_chunks, std::vector<std::size_t>{2});

  const SlicedChunkSource survivors(&resident, 0, 2 * kUsersPerChunk);
  const auto direct =
      protocol::RunMeanEstimation(survivors, Mech(), BaseOptions()).value();
  EXPECT_EQ(run->estimated_mean, direct.estimated_mean);
  EXPECT_EQ(run->true_mean, direct.true_mean);
  EXPECT_EQ(run->mse, direct.mse);
  std::filesystem::remove_all(dir);
}

TEST(PipelineFaultTest, VarianceQuarantineNeverRereadsQuarantinedChunks) {
  // The 9192 users split at 4596: a persistent fault on base chunk 1
  // quarantines the values half's chunk 1 (users 4096..4595) and the
  // squares half's chunk 0 (users 4596..8691, straddling base chunks 1
  // and 2). Neither the HDR4ME marginal sample nor the ground-truth pass
  // may pull them again.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kPersistent, .chunk = 1});
  const FaultInjectingChunkSource faulty(&base, schedule);
  hdr4me::VarianceOptions opts;
  opts.total_epsilon = 1.0;
  opts.seed = 5;
  opts.num_threads = 2;
  opts.allow_missing_chunks = true;
  opts.recalibrate = true;
  const auto run = hdr4me::RunVarianceEstimation(faulty, Mech(), opts);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->quarantined_values_chunks, std::vector<std::size_t>{1});
  EXPECT_EQ(run->quarantined_squares_chunks, std::vector<std::size_t>{0});
  constexpr std::size_t kTailBegin = 4596 + 4096;
  EXPECT_EQ(run->surviving_users, 4096 + (kUsers - kTailBegin));

  // The ground truth covers exactly the surviving users, in user order.
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < kUsers; ++i) {
    if (i < 4096 || i >= kTailBegin) survivors.push_back(i);
  }
  for (std::size_t j = 0; j < kDims; ++j) {
    NeumaierSum sum;
    for (const std::size_t i : survivors) sum.Add(dataset.Row(i)[j]);
    const double mean = sum.Total() / static_cast<double>(survivors.size());
    NeumaierSum squares;
    for (const std::size_t i : survivors) {
      squares.Add(Sq(dataset.Row(i)[j] - mean));
    }
    EXPECT_EQ(run->true_variance[j],
              squares.Total() / static_cast<double>(survivors.size()))
        << "dim " << j;
  }

  // HDR4ME models each half with the reports it received: the values
  // half's expected count is its 4096 surviving users (m == d), not the
  // 4596 it was assigned. L2 shrinkage shows the count in every
  // dimension; L1 zeroes this noisy estimate under either count.
  opts.hdr4me.regularizer = hdr4me::Regularizer::kL2;
  const auto l2_run = hdr4me::RunVarianceEstimation(faulty, Mech(), opts);
  ASSERT_TRUE(l2_run.ok()) << l2_run.status().ToString();
  const SlicedChunkSource values_half(&faulty, 0, kUsers / 2);
  const auto mean_run =
      protocol::EstimateMean(values_half, Mech(), opts).value();
  EXPECT_EQ(mean_run.surviving_users, 4096u);
  const auto deviations =
      hdr4me::MarginalDeviations(values_half, mean_run.quarantined_chunks,
                                 *Mech(), mean_run.per_dim_epsilon, 4096.0)
          .value();
  const auto expected =
      hdr4me::Recalibrate(mean_run.estimated_mean, deviations, opts.hdr4me)
          .value();
  EXPECT_EQ(l2_run->estimated_mean, expected.enhanced_mean);

  // Without the opt-in the same fault fails the run cleanly.
  opts.allow_missing_chunks = false;
  EXPECT_EQ(hdr4me::RunVarianceEstimation(faulty, Mech(), opts)
                .status()
                .code(),
            StatusCode::kDataLoss);
}

TEST(RetryPolicyTest, BackoffSequenceIsExponential) {
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 3});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 4;
  opts.retry.initial_backoff_ms = 10;
  std::mutex mu;
  std::vector<std::uint64_t> backoffs;
  opts.retry.sleep = [&](std::uint64_t ms) {
    const std::lock_guard<std::mutex> lock(mu);
    backoffs.push_back(ms);
  };
  ASSERT_TRUE(protocol::RunMeanEstimation(faulty, Mech(), opts).ok());
  EXPECT_EQ(backoffs, (std::vector<std::uint64_t>{10, 20, 40}));
}

TEST(RetryPolicyTest, WallClockDeadlineCutsTheLadderShort) {
  // A persistent outage with a generous attempt budget: the wall-clock
  // deadline, not max_attempts, must be what stops the retry ladder.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 10});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 8;
  opts.retry.initial_backoff_ms = 10;
  opts.retry.max_total_backoff_ms = 50;
  // Deterministic time: the injected clock advances only when the
  // injected sleep runs, so the deadline math is exact.
  std::uint64_t fake_now = 0;
  std::vector<std::uint64_t> backoffs;
  opts.retry.now_ms = [&] { return fake_now; };
  opts.retry.sleep = [&](std::uint64_t ms) {
    backoffs.push_back(ms);
    fake_now += ms;
  };
  const auto run = protocol::RunMeanEstimation(faulty, Mech(), opts);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kUnavailable);
  // The deadline armed at the first failure (t=0); after backoffs
  // 10+20+40 the clock reads 70 >= 50, so attempt 5 is never scheduled
  // even though max_attempts would allow four more.
  EXPECT_EQ(backoffs, (std::vector<std::uint64_t>{10, 20, 40}));
  EXPECT_EQ(faulty.attempts(0), 4u);
}

TEST(RetryPolicyTest, RecoveryWithinDeadlineStaysBitIdentical) {
  // The deadline only cuts the ladder short — a fault that clears
  // before the budget runs out must still recover bit-identically.
  const Dataset dataset = TestDataset();
  const ResidentChunkSource base(&dataset);
  const auto clean =
      protocol::RunMeanEstimation(base, Mech(), BaseOptions()).value();

  FaultSchedule schedule;
  schedule.Add({.kind = FaultSpec::Kind::kTransient,
                .chunk = 0,
                .failing_attempts = 3});
  const FaultInjectingChunkSource faulty(&base, schedule);
  protocol::PipelineOptions opts = BaseOptions();
  opts.num_threads = 1;
  opts.retry.max_attempts = 8;
  opts.retry.initial_backoff_ms = 10;
  opts.retry.max_total_backoff_ms = 50;
  std::uint64_t fake_now = 0;
  opts.retry.now_ms = [&] { return fake_now; };
  opts.retry.sleep = [&](std::uint64_t ms) { fake_now += ms; };
  const auto recovered =
      protocol::RunMeanEstimation(faulty, Mech(), opts).value();
  EXPECT_EQ(recovered.estimated_mean, clean.estimated_mean);
  EXPECT_TRUE(recovered.quarantined_chunks.empty());
}

}  // namespace
}  // namespace data
}  // namespace hdldp
