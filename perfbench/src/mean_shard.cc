// W1 `mean-shard-sampled`: the paper's high-dimensional mean pipeline
// (piecewise mechanism, m = 8 of d = 128 dimensions sampled per user,
// HDR4ME-L1 recalibration) over a Gaussian population written to
// CRC-checked shard files in set-up and read back through
// ShardFileSource. Loads chunk delivery, the serial ground-truth pass and
// dimension sampling/gather/scatter; lane perturbation is a small share.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "batch_common.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "engine/chunked_estimation.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "hdr4me/recalibrate.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/client.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hdldp::Result;
using hdldp::Status;
namespace data = hdldp::data;
namespace engine = hdldp::engine;
namespace framework = hdldp::framework;
namespace mech = hdldp::mech;
namespace protocol = hdldp::protocol;

struct MeanShape {
  std::size_t users = 409600;  // 100 chunks
  std::size_t dims = 128;
  std::size_t report_dims = 8;
  double epsilon = 1.0;
};

// HDR4ME deviation models come from the first rows' empirical marginals,
// exactly as the `hdldp_cli mean` verb builds them.
constexpr std::size_t kModelRows = 2000;
constexpr std::size_t kModelBins = 16;

// Accuracy band: naive MSE must lie within [kBandLow, kBandHigh] x the
// framework-predicted naive MSE, HDR4ME MSE within [kHdr4meBandLow,
// kBandHigh] x. HDR4ME's soft threshold can take out error the naive
// estimate carries, so its lower limit is looser. Measured over 60
// seeds: naive 0.74-1.31x (mean 1.00, sd 0.13), HDR4ME 0.62-1.46x
// (mean 1.05, sd 0.19).
//
// HDR4ME is not required to beat naive: at this shape the paper's
// Lemma 4 precondition fails (sigma_j ~ 0.1 << 1) and, measured, HDR4ME
// wins on some seeds and loses on others (HDR4ME/naive MSE 0.51-1.52).
// The ratio is recorded as `mean.hdr4me_over_naive_mse`; the check is
// that the enhanced estimate is exactly Eq. 34 with Lemma 4's weights.
constexpr double kBandLow = 0.4;
constexpr double kHdr4meBandLow = 0.25;
constexpr double kBandHigh = 2.0;
constexpr double kLemma4Z = 3.0;  // LambdaOptions::confidence_z default.

// Freshly written shard pages read ~1.5x slower for the first few passes
// over them (page-cache state after the write; `hdldp_cli generate` then
// `mean --input` shows the same), so this many N-thread requests follow
// the reference before anything is timed.
constexpr std::size_t kWarmupRequests = 4;

// trace.coverage band (see CheckCoverage): the serial replica times
// ~1.0x the 1-thread library request at this shape. TrueMean is about
// half of that request, so folding it into the chunk pass would lift
// the coverage well past the band until the replica follows.
constexpr double kCoverageLow = 0.8;
constexpr double kCoverageHigh = 1.25;

struct MeanOutcome {
  std::vector<double> estimate;
  std::vector<double> enhanced;
  std::vector<double> lambda;
  std::vector<hdldp::framework::GaussianDeviation> deviations;
  double naive_mse = 0.0;
  double hdr_mse = 0.0;
  double predicted_mse = 0.0;
  // From the estimation call to its return (the fold phase).
  double estimate_s = 0.0;
  // From the estimation call to the recalibrated estimate.
  double total_s = 0.0;
};

struct ShardSetup {
  std::string dir;
  std::optional<data::ShardFileSource> source;
  double write_s = 0.0;
  double total_s = 0.0;
};

std::uint64_t DataSeed(std::uint64_t seed) { return seed ^ 0xDA7Aull; }

// Set-up: chunk-keyed Gaussian population -> WriteShards -> Open.
Status SetUpShards(const RunContext& ctx, const MeanShape& shape,
                   std::size_t rep, ShardSetup* out) {
  const Clock::time_point start = Clock::now();
  data::GaussianSpec spec;
  spec.num_users = shape.users;
  spec.num_dims = shape.dims;
  HDLDP_ASSIGN_OR_RETURN(
      const data::GeneratorChunkSource generator,
      data::GeneratorChunkSource::Create(spec,
                                         DataSeed(ctx.options->seed)));
  out->dir = ctx.scratch->Join("shards-" + std::to_string(rep));
  const Clock::time_point write_start = Clock::now();
  HDLDP_ASSIGN_OR_RETURN(const std::size_t rows,
                         data::WriteShards(generator, out->dir));
  out->write_s = SecondsSince(write_start);
  if (rows != shape.users) {
    return Status::Internal("WriteShards wrote " + std::to_string(rows) +
                            " rows");
  }
  HDLDP_ASSIGN_OR_RETURN(data::ShardFileSource source,
                         data::ShardFileSource::Open(out->dir));
  out->source.emplace(std::move(source));
  out->total_s = SecondsSince(start);
  return Status::OK();
}

// HDR4ME-L1 recalibration of `estimate` with per-dimension deviation
// models, plus the MSE figures the accuracy checks read.
Status Recalibrate(const data::ChunkSource& source,
                   const mech::Mechanism& mechanism, double per_dim_epsilon,
                   const MeanShape& shape, const std::vector<double>& truth,
                   Tracer* tracer, const BatchSpans& spans,
                   MeanOutcome* out) {
  const std::size_t d = source.num_dims();
  const std::size_t rows = std::min(source.num_users(), kModelRows);
  std::vector<double> marginals;
  {
    const Span span(tracer, spans.materialize);
    HDLDP_ASSIGN_OR_RETURN(marginals, data::MaterializeRows(source, 0, rows));
  }
  const double reports = static_cast<double>(source.num_users()) *
                         static_cast<double>(shape.report_dims) /
                         static_cast<double>(d);
  std::vector<framework::GaussianDeviation>& deviations = out->deviations;
  deviations.clear();
  {
    const Span span(tracer, spans.model);
    std::vector<double> column(rows);
    for (std::size_t j = 0; j < d; ++j) {
      for (std::size_t i = 0; i < rows; ++i) column[i] = marginals[i * d + j];
      HDLDP_ASSIGN_OR_RETURN(
          const framework::ValueDistribution values,
          framework::ValueDistribution::FromSamples(column, kModelBins));
      HDLDP_ASSIGN_OR_RETURN(
          const framework::DeviationModel model,
          framework::ModelDeviation(mechanism, per_dim_epsilon, values,
                                    reports));
      deviations.push_back(model.deviation);
    }
  }
  {
    const Span span(tracer, spans.recalibrate);
    HDLDP_ASSIGN_OR_RETURN(
        const hdldp::hdr4me::RecalibrationResult recalibrated,
        hdldp::hdr4me::Recalibrate(out->estimate, deviations,
                                   hdldp::hdr4me::Hdr4meOptions{}));
    out->enhanced = recalibrated.enhanced_mean;
    out->lambda = recalibrated.lambda;
  }
  HDLDP_ASSIGN_OR_RETURN(out->predicted_mse,
                         framework::PredictedMse(deviations));
  HDLDP_ASSIGN_OR_RETURN(out->naive_mse,
                         protocol::MeanSquaredError(out->estimate, truth));
  HDLDP_ASSIGN_OR_RETURN(out->hdr_mse,
                         protocol::MeanSquaredError(out->enhanced, truth));
  return Status::OK();
}

// One request through the library: RunMeanEstimation at `threads`
// workers, then HDR4ME.
Status LibraryRequest(const data::ChunkSource& source,
                      const mech::MechanismPtr& mechanism,
                      const MeanShape& shape, std::uint64_t seed,
                      std::size_t threads, MeanOutcome* out) {
  const Clock::time_point start = Clock::now();
  protocol::PipelineOptions options;
  options.total_epsilon = shape.epsilon;
  options.report_dims = shape.report_dims;
  options.seed = seed;
  options.num_threads = threads;
  HDLDP_ASSIGN_OR_RETURN(
      const protocol::MeanEstimationResult run,
      protocol::RunMeanEstimation(source, mechanism, options));
  out->estimate_s = SecondsSince(start);
  out->estimate = run.estimated_mean;
  HDLDP_RETURN_NOT_OK(Recalibrate(source, *mechanism, run.per_dim_epsilon,
                                  shape, run.true_mean, nullptr,
                                  BatchSpans(nullptr), out));
  out->total_s = SecondsSince(start);
  return Status::OK();
}

// The same request, composed serially from the layers' public calls
// (client plan, chunk pull, the engine's sampled chunk driver, the
// aggregator folds and merges, the ground-truth pass, HDR4ME), with a
// span around each. Reproduces the library's kV3Batched estimate bit
// for bit.
Status ReplicaRequest(const data::ChunkSource& source,
                      const mech::MechanismPtr& mechanism,
                      const MeanShape& shape, std::uint64_t seed,
                      Tracer* tracer, const BatchSpans& spans,
                      MeanOutcome* out, std::uint64_t* folded) {
  const Clock::time_point start = Clock::now();
  const Span root(tracer, spans.request);
  const std::size_t d = source.num_dims();
  std::optional<protocol::Client> client;
  {
    const Span span(tracer, spans.setup);
    protocol::ClientOptions client_options;
    client_options.total_epsilon = shape.epsilon;
    client_options.report_dims = shape.report_dims;
    HDLDP_ASSIGN_OR_RETURN(
        protocol::Client created,
        protocol::Client::Create(mechanism, d, client_options));
    client.emplace(std::move(created));
  }
  const mech::DomainMap map = client->domain_map();
  const mech::SamplerPlan& plan = client->plan();
  const std::size_t m = client->report_dims();
  engine::EngineOptions engine_options;
  engine_options.seed = seed;
  engine_options.seed_scheme = hdldp::SeedScheme::kV3Batched;
  engine_options.num_threads = 1;
  const engine::ChunkedEstimation core(source, engine_options);
  data::ChunkBuffer buffer;
  HDLDP_ASSIGN_OR_RETURN(
      const protocol::MeanAggregator aggregator,
      ReplicaReduce(
          core.num_chunks(),
          [&] { return protocol::MeanAggregator::Create(d, map); },
          [&](std::size_t c, protocol::MeanAggregator* scratch) -> Status {
            const engine::ChunkRange range = core.Range(c);
            std::span<const double> rows;
            {
              const Span span(tracer, spans.chunk_pull);
              HDLDP_ASSIGN_OR_RETURN(rows, source.Chunk(c, &buffer));
            }
            const Span span(tracer, spans.sampled_chunk);
            TracedFold fold(scratch, tracer, spans.fold, folded);
            return core.PerturbSampledChunk(
                plan, range, d, m, &fold,
                [&](std::size_t user, std::span<const std::uint32_t> dims,
                    std::vector<std::uint32_t>* entry_indices,
                    std::vector<double>* natives) {
                  entry_indices->insert(entry_indices->end(), dims.begin(),
                                        dims.end());
                  const std::size_t base = natives->size();
                  natives->resize(base + dims.size());
                  double* values = natives->data() + base;
                  const double* row = rows.data() + (user - range.begin) * d;
                  for (std::size_t k = 0; k < dims.size(); ++k) {
                    values[k] = map.Forward(row[dims[k]]);
                  }
                });
          },
          tracer, spans));
  std::vector<double> truth;
  {
    const Span span(tracer, spans.true_mean);
    HDLDP_ASSIGN_OR_RETURN(truth, source.TrueMean());
  }
  {
    const Span span(tracer, spans.finalize);
    out->estimate = aggregator.EstimatedMean();
  }
  out->estimate_s = SecondsSince(start);
  HDLDP_RETURN_NOT_OK(Recalibrate(source, *mechanism,
                                  client->PerDimensionEpsilon(), shape, truth,
                                  tracer, spans, out));
  out->total_s = SecondsSince(start);
  return Status::OK();
}

struct ProbeFigures {
  double crc_gbps = 0.0;
  double sample_dims_per_s = 0.0;
  double perturb_values_per_s = 0.0;
};

// Serial probes of the layers the engine driver calls internally: the
// CRC32C over every chunk's bytes, the chunk dimension sampler, and lane
// perturbation over the gathered entries in the driver's block size.
Status ProbeLayers(const data::ChunkSource& source,
                   const mech::MechanismPtr& mechanism,
                   const MeanShape& shape, std::uint64_t seed,
                   ProbeFigures* out) {
  protocol::ClientOptions client_options;
  client_options.total_epsilon = shape.epsilon;
  client_options.report_dims = shape.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const protocol::Client client,
      protocol::Client::Create(mechanism, source.num_dims(), client_options));
  engine::EngineOptions engine_options;
  engine_options.seed = seed;
  const engine::ChunkedEstimation core(source, engine_options);
  const std::size_t d = source.num_dims();
  const std::size_t m = client.report_dims();
  data::ChunkBuffer buffer;
  hdldp::BatchSamplerScratch sampler;
  std::vector<std::uint32_t> sampled;
  std::vector<double> natives;
  std::vector<double> perturbed;
  double crc_s = 0.0, sample_s = 0.0, perturb_s = 0.0;
  double bytes = 0.0, dims = 0.0, values = 0.0;
  std::uint32_t crc_sink = 0;
  for (std::size_t c = 0; c < core.num_chunks(); ++c) {
    const engine::ChunkRange range = core.Range(c);
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(c, &buffer));
    Clock::time_point t = Clock::now();
    crc_sink ^= hdldp::Crc32c(rows.data(), rows.size_bytes());
    crc_s += SecondsSince(t);
    bytes += static_cast<double>(rows.size_bytes());

    hdldp::Rng dims_rng = core.DimSamplerStream(range);
    sampled.clear();
    t = Clock::now();
    dims_rng.SampleWithoutReplacementBatch(d, m, range.num_users(),
                                           /*sorted=*/true, &sampler,
                                           &sampled);
    sample_s += SecondsSince(t);
    dims += static_cast<double>(sampled.size());

    natives.resize(sampled.size());
    for (std::size_t i = 0; i < sampled.size(); ++i) {
      natives[i] =
          client.domain_map().Forward(rows[(i / m) * d + sampled[i]]);
    }
    perturbed.resize(natives.size());
    hdldp::RngLanes lanes = core.LaneStreams(range);
    t = Clock::now();
    for (std::size_t b = 0; b < natives.size();
         b += engine::kSampledEntriesPerBlock) {
      const std::size_t len =
          std::min(engine::kSampledEntriesPerBlock, natives.size() - b);
      mech::PerturbLanes(client.plan(),
                         std::span<const double>(natives).subspan(b, len),
                         &lanes, std::span<double>(perturbed).subspan(b, len));
    }
    perturb_s += SecondsSince(t);
    values += static_cast<double>(natives.size());
  }
  if (crc_sink == 0x5EED) std::fprintf(stderr, " ");  // Keeps the CRC live.
  out->crc_gbps = bytes / crc_s / 1e9;
  out->sample_dims_per_s = dims / sample_s;
  out->perturb_values_per_s = values / perturb_s;
  return Status::OK();
}

// True iff the enhanced estimate is Eq. 34, soft(theta-hat_j, lambda_j),
// with Lemma 4's lambda_j = |delta_j| + z sigma_j, to rounding.
bool IsEquation34(const MeanOutcome& outcome) {
  const std::size_t d = outcome.estimate.size();
  if (outcome.enhanced.size() != d || outcome.lambda.size() != d ||
      outcome.deviations.size() != d) {
    return false;
  }
  const auto close = [](double a, double b) {
    return std::abs(a - b) <= 1e-12 * std::max(1.0, std::abs(b));
  };
  for (std::size_t j = 0; j < d; ++j) {
    const hdldp::framework::GaussianDeviation& dev = outcome.deviations[j];
    const double lambda =
        std::abs(dev.mean) + kLemma4Z * dev.stddev;
    const double theta = outcome.estimate[j];
    const double soft =
        std::copysign(std::max(std::abs(theta) - lambda, 0.0), theta);
    if (!close(outcome.lambda[j], lambda) ||
        !close(outcome.enhanced[j], soft)) {
      return false;
    }
  }
  return true;
}

void CheckAccuracy(Report* report, const MeanOutcome& outcome) {
  const double naive = outcome.naive_mse / outcome.predicted_mse;
  const double hdr = outcome.hdr_mse / outcome.predicted_mse;
  report->Meta("mean.naive_over_predicted_mse", naive);
  report->Meta("mean.hdr4me_over_predicted_mse", hdr);
  report->Meta("mean.hdr4me_over_naive_mse",
               outcome.hdr_mse / outcome.naive_mse);
  report->Check(IsEquation34(outcome),
                "mean: HDR4ME estimate is Eq. 34 with Lemma 4 weights");
  report->Check(naive >= kBandLow && naive <= kBandHigh,
                "mean: naive MSE within the band of the predicted MSE");
  report->Check(hdr >= kHdr4meBandLow && hdr <= kBandHigh,
                "mean: HDR4ME MSE within the band of the predicted MSE");
}

}  // namespace

Status RunMeanShardSampled(const RunContext& ctx) {
  const Options& options = *ctx.options;
  Report* report = ctx.report;
  MetricValues& metrics = *ctx.metrics;
  const MeanShape shape;
  report->Meta("shape", "gaussian n=" + std::to_string(shape.users) +
                            " d=128 m=8 eps=1 piecewise, shard files");

  // Set-up, repeated; the last one stays open for the timed phase.
  std::vector<double> setup_s;
  std::vector<double> write_s;
  ShardSetup setup;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    if (setup.source.has_value()) {
      setup.source.reset();
      RemoveAll(setup.dir);
    }
    HDLDP_RETURN_NOT_OK(SetUpShards(ctx, shape, rep, &setup));
    setup_s.push_back(setup.total_s);
    write_s.push_back(setup.write_s);
  }
  report->Samples("setup_s", setup_s, 0);
  report->Samples("data.shard_write_s", write_s, 0);
  metrics["setup_s"] = Median(setup_s);
  metrics["data.shard_write_s"] = Median(write_s);
  const data::ChunkSource& source = *setup.source;
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism("piecewise"));

  // The 1-thread reference every other request must reproduce.
  MeanOutcome reference;
  HDLDP_RETURN_NOT_OK(LibraryRequest(source, mechanism, shape, options.seed,
                                     1, &reference));
  report->Operations(1, 0);
  CheckAccuracy(report, reference);
  const auto same_as_reference = [&](const MeanOutcome& out) {
    return SameBits(out.estimate, reference.estimate) &&
           SameBits(out.enhanced, reference.enhanced);
  };

  if (ctx.tracer == nullptr) {
    std::vector<double> latency_ms;
    std::vector<double> reports_per_s;
    std::vector<double> steal;
    const std::size_t warmup = kWarmupRequests;
    HDLDP_RETURN_NOT_OK(RepeatFor(
        options.seconds, warmup, 3, [&](bool) -> Status {
          const CpuTicks before = ReadCpuTicks();
          MeanOutcome out;
          HDLDP_RETURN_NOT_OK(LibraryRequest(source, mechanism, shape,
                                             options.seed, options.threads,
                                             &out));
          report->Check(same_as_reference(out),
                        "mean: estimate bits identical at 1 and N threads");
          steal.push_back(StealFraction(before, ReadCpuTicks()));
          latency_ms.push_back(1e3 * out.total_s);
          reports_per_s.push_back(static_cast<double>(shape.users) /
                                  out.estimate_s);
          return Status::OK();
        }));
    report->Samples("latency_ms", latency_ms, warmup);
    report->Samples("reports_per_s", reports_per_s, warmup);
    report->Samples("steal_frac", steal, warmup);
    metrics["latency_p50_ms"] = QuietMedian(latency_ms, steal, warmup);
    metrics["reports_per_s"] = QuietMedian(reports_per_s, steal, warmup);
    metrics["peak_rss_mb"] = PeakRssMiB();
    return Status::OK();
  }

  // Traced run. Thread scaling from untraced library requests first,
  // after the same warm-up as the timed phase.
  const auto library = [&](std::size_t threads, double* seconds) -> Status {
    MeanOutcome out;
    HDLDP_RETURN_NOT_OK(LibraryRequest(source, mechanism, shape,
                                       options.seed, threads, &out));
    report->Check(same_as_reference(out),
                  "mean: estimate bits identical at 1 and N threads");
    *seconds = out.total_s;
    return Status::OK();
  };
  HDLDP_ASSIGN_OR_RETURN(
      const ThreadLatency latency,
      MeasureThreadLatency(kWarmupRequests, options.threads, library, report));
  metrics["engine.thread_scaling"] =
      latency.one_thread_s / latency.n_threads_s;

  Tracer* tracer = ctx.tracer;
  const BatchSpans spans(tracer);
  ReplicaLayers layers;
  HDLDP_RETURN_NOT_OK(TraceReplica(
      options.seconds, tracer, "engine.sampled_chunk", "data.true_mean",
      [&](double* seconds) { return library(1, seconds); },
      [&](std::uint64_t* folded) -> Status {
        MeanOutcome out;
        HDLDP_RETURN_NOT_OK(ReplicaRequest(source, mechanism, shape,
                                           options.seed, tracer, spans, &out,
                                           folded));
        report->Check(same_as_reference(out),
                      "mean: traced replica reproduces the library estimate");
        return Status::OK();
      },
      report, &layers));

  ProbeFigures probe;
  HDLDP_RETURN_NOT_OK(
      ProbeLayers(source, mechanism, shape, options.seed, &probe));

  const double users = static_cast<double>(shape.users);
  const double bytes = users * static_cast<double>(shape.dims) * 8.0;
  metrics["data.chunk_pull_gbps"] = bytes / Median(layers.chunk_pull_s) / 1e9;
  metrics["common.crc32c_gbps"] = probe.crc_gbps;
  metrics["data.true_mean_ms"] = 1e3 * Median(layers.truth_s);
  metrics["common.sample_dims_per_s"] = probe.sample_dims_per_s;
  metrics["engine.sampled_chunk_per_s"] = users / Median(layers.chunk_s);
  metrics["mech.perturb_lanes_per_s"] = probe.perturb_values_per_s;
  metrics["protocol.fold_per_s"] =
      static_cast<double>(layers.folded_per_request) / Median(layers.fold_s);
  metrics["protocol.merge_ms"] = 1e3 * Median(layers.merge_s);
  metrics["hdr4me.recalibrate_ms"] = 1e3 * Median(layers.recalibrate_s);
  metrics["trace.coverage"] = Median(layers.coverage);
  CheckCoverage(report, "mean", metrics["trace.coverage"], kCoverageLow,
                kCoverageHigh);
  return Status::OK();
}

}  // namespace perfbench
