// W2 `freq-dense-resident`: the paper's frequency pipeline with HDR4ME
// recalibration (16 questions x 8 categories, Zipf 1 marginals, every
// question reported at eps/(2d) per one-hot entry, piecewise) over a
// resident population. Lane perturbation and the dense fold dominate;
// there is no shard, CRC or dimension sampling on this path, so it is
// the "bypasses it" twin of every W1 delivery and sampling layer.

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "batch_common.h"
#include "common/math.h"
#include "common/rng.h"
#include "engine/chunked_estimation.h"
#include "framework/deviation_model.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/recalibrate.h"
#include "mech/plan.h"
#include "mech/registry.h"
#include "protocol/budget.h"
#include "protocol/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hdldp::Result;
using hdldp::Status;
namespace data = hdldp::data;
namespace engine = hdldp::engine;
namespace framework = hdldp::framework;
namespace freq = hdldp::freq;
namespace mech = hdldp::mech;
namespace protocol = hdldp::protocol;

struct FreqShape {
  std::size_t users = 2'000'000;
  std::size_t questions = 16;
  std::size_t categories = 8;
  double zipf = 1.0;
  double epsilon = 1.0;
};

// Accuracy band: the naive MSE (after the pipeline's clip and
// renormalize) must lie within [kBandLow, kBandHigh] x the
// framework-predicted naive MSE of the unclipped entries. Measured over
// 60 seeds: 0.65-1.33x (mean 0.97, sd 0.17).
//
// HDR4ME is deliberately not checked against naive here. At this
// population the naive estimate is already accurate (sigma ~ 0.01 per
// entry, far below the Lemma 4 threshold), the paper promises no
// improvement there, and ungated HDR4ME-L1 measures worse than naive
// (11-26x at n = 2M over 60 seeds). The ratio is recorded in the run's
// metadata as `freq.hdr4me_over_naive_mse`.
constexpr double kBandLow = 0.4;
constexpr double kBandHigh = 2.0;

constexpr mech::Interval kEntryDomain{0.0, 1.0};

// The first N-thread requests pay for worker start-up and first touches
// (the first one takes ~3x the steady latency); they are not timed.
constexpr std::size_t kWarmupRequests = 2;

// trace.coverage band (see CheckCoverage): the serial replica times
// ~0.95x the 1-thread library request at this shape; the rest is the
// library's per-chunk category validation and its streamed ground-truth
// pass, which have no public entry to wrap.
constexpr double kCoverageLow = 0.75;
constexpr double kCoverageHigh = 1.2;

struct FreqOutcome {
  std::vector<double> raw;           // Clipped and renormalized, flat.
  std::vector<double> recalibrated;  // Clipped and renormalized, flat.
  double naive_mse = 0.0;
  double hdr_mse = 0.0;
  double total_s = 0.0;
};

std::vector<double> Flatten(const std::vector<std::vector<double>>& nested) {
  std::vector<double> flat;
  for (const auto& v : nested) flat.insert(flat.end(), v.begin(), v.end());
  return flat;
}

// The pipeline's output convention: clip each entry into [0, 1] and
// renormalize every question to mass 1 (uniform when nothing survives).
void ClipAndNormalize(const freq::CategoricalSchema& schema,
                      std::vector<double>* flat) {
  for (std::size_t j = 0; j < schema.num_dims(); ++j) {
    double* f = flat->data() + schema.EntryOffset(j);
    const std::size_t c = schema.Cardinality(j);
    double total = 0.0;
    for (std::size_t k = 0; k < c; ++k) {
      f[k] = hdldp::Clamp(f[k], 0.0, 1.0);
      total += f[k];
    }
    for (std::size_t k = 0; k < c; ++k) {
      f[k] = total > 0.0 ? f[k] / total : 1.0 / static_cast<double>(c);
    }
  }
}

struct FreqSetup {
  std::optional<freq::CategoricalSchema> schema;
  std::optional<freq::CategoricalDataset> dataset;
  std::optional<freq::CategoricalChunkSource> source;
};

Status SetUp(const FreqShape& shape, std::uint64_t seed, FreqSetup* out) {
  out->source.reset();
  out->dataset.reset();
  HDLDP_ASSIGN_OR_RETURN(
      freq::CategoricalSchema schema,
      freq::CategoricalSchema::Create(
          std::vector<std::size_t>(shape.questions, shape.categories)));
  hdldp::Rng rng(seed ^ 0xF8E0ull);
  HDLDP_ASSIGN_OR_RETURN(
      freq::CategoricalDataset dataset,
      freq::GenerateCategorical(shape.users, schema, shape.zipf, &rng));
  out->schema.emplace(std::move(schema));
  out->dataset.emplace(std::move(dataset));
  out->source.emplace(&*out->dataset);
  return Status::OK();
}

Status LibraryRequest(const FreqSetup& setup,
                      const mech::MechanismPtr& mechanism,
                      const FreqShape& shape, std::uint64_t seed,
                      std::size_t threads, FreqOutcome* out,
                      freq::FrequencyEstimationResult* full = nullptr) {
  const Clock::time_point start = Clock::now();
  freq::FrequencyOptions options;
  options.total_epsilon = shape.epsilon;
  options.seed = seed;
  options.num_threads = threads;
  HDLDP_ASSIGN_OR_RETURN(
      freq::FrequencyEstimationResult result,
      freq::RunFrequencyEstimation(*setup.source, *setup.schema, mechanism,
                                   options));
  out->total_s = SecondsSince(start);
  out->raw = Flatten(result.raw);
  out->recalibrated = Flatten(result.recalibrated);
  out->naive_mse = result.mse_raw;
  out->hdr_mse = result.mse_recalibrated;
  if (full != nullptr) *full = std::move(result);
  return Status::OK();
}

// The framework's naive-MSE prediction from the true frequencies: each
// entry is Bernoulli(f) over {0, 1}, reported by every user.
Result<double> PredictedMse(const freq::FrequencyEstimationResult& result,
                            const mech::Mechanism& mechanism,
                            double users) {
  HDLDP_ASSIGN_OR_RETURN(
      const framework::DeviationModelBuilder builder,
      framework::DeviationModelBuilder::Create(
          mechanism, result.per_entry_epsilon,
          std::vector<double>{0.0, 1.0}, kEntryDomain));
  std::vector<framework::GaussianDeviation> deviations;
  for (const std::vector<double>& question : result.true_frequencies) {
    for (const double f : question) {
      const double probs[2] = {1.0 - f, f};
      HDLDP_ASSIGN_OR_RETURN(const framework::DeviationModel model,
                             builder.Model(probs, users));
      deviations.push_back(model.deviation);
    }
  }
  return framework::PredictedMse(deviations);
}

// The request composed serially from the layers' public calls — plan,
// chunk pull, one-hot fill, the engine's dense chunk driver, aggregator
// folds and merges, the per-entry deviation models, HDR4ME, the ground
// truth — with a span around each. Reproduces the library's output bit
// for bit.
Status ReplicaRequest(const FreqSetup& setup,
                      const mech::MechanismPtr& mechanism,
                      const FreqShape& shape, std::uint64_t seed,
                      Tracer* tracer, const BatchSpans& spans,
                      FreqOutcome* out, std::uint64_t* folded) {
  const Clock::time_point start = Clock::now();
  const Span root(tracer, spans.request);
  const freq::CategoricalSchema& schema = *setup.schema;
  const data::ChunkSource& source = *setup.source;
  const std::size_t d = schema.num_dims();
  const std::size_t entries = schema.total_entries();
  double per_entry_eps = 0.0;
  std::optional<mech::DomainMap> map;
  std::optional<mech::SamplerPlan> plan;
  {
    const Span span(tracer, spans.setup);
    HDLDP_ASSIGN_OR_RETURN(
        per_entry_eps,
        protocol::BudgetAccountant::PerEntryBudget(shape.epsilon, d));
    HDLDP_ASSIGN_OR_RETURN(
        const mech::DomainMap between,
        mech::DomainMap::Between(kEntryDomain, mechanism->InputDomain()));
    map.emplace(between);
    plan.emplace(mechanism->MakePlan(per_entry_eps));
  }
  const double native_zero = map->Forward(0.0);
  const double native_one = map->Forward(1.0);
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
          [&] { return protocol::MeanAggregator::Create(entries, *map); },
          [&](std::size_t c, protocol::MeanAggregator* scratch) -> Status {
            const engine::ChunkRange range = core.Range(c);
            std::span<const double> rows;
            {
              const Span span(tracer, spans.chunk_pull);
              HDLDP_ASSIGN_OR_RETURN(rows, source.Chunk(c, &buffer));
            }
            const Span span(tracer, spans.dense_chunk);
            // Paint each block's one-hot entries and un-paint the
            // previous block's, as the pipeline's dense fill does.
            const auto paint = [&](std::size_t user, std::size_t block,
                                   std::span<double> natives, double value) {
              for (std::size_t u = 0; u < block; ++u) {
                double* row = natives.data() + u * entries;
                const double* cats = rows.data() + (user + u - range.begin) * d;
                for (std::size_t j = 0; j < d; ++j) {
                  row[schema.EntryOffset(j) +
                      static_cast<std::uint32_t>(cats[j])] = value;
                }
              }
            };
            std::size_t prev_user = 0;
            std::size_t prev_block = 0;
            TracedFold fold(scratch, tracer, spans.fold, folded);
            return core.PerturbDenseChunk(
                *plan, range, entries, native_zero, &fold,
                [&](std::size_t user, std::size_t block,
                    std::span<double> natives) {
                  const Span fill(tracer, spans.encode);
                  paint(prev_user, prev_block, natives, native_zero);
                  paint(user, block, natives, native_one);
                  prev_user = user;
                  prev_block = block;
                });
          },
          tracer, spans));
  std::vector<double> raw;
  std::vector<framework::GaussianDeviation> deviations;
  {
    const Span span(tracer, spans.model);
    raw = aggregator.EstimatedMean();
    static constexpr double kOneHotSupport[2] = {0.0, 1.0};
    HDLDP_ASSIGN_OR_RETURN(
        const framework::DeviationModelBuilder builder,
        framework::DeviationModelBuilder::Create(*mechanism, per_entry_eps,
                                                 kOneHotSupport, kEntryDomain));
    deviations.reserve(entries);
    for (std::size_t j = 0; j < d; ++j) {
      const std::size_t off = schema.EntryOffset(j);
      const double r = static_cast<double>(aggregator.ReportCount(off));
      for (std::size_t k = 0; k < schema.Cardinality(j); ++k) {
        const double f = hdldp::Clamp(raw[off + k], 0.0, 1.0);
        const double probs[2] = {1.0 - f, f};
        HDLDP_ASSIGN_OR_RETURN(const framework::DeviationModel model,
                               builder.Model(probs, r));
        deviations.push_back(model.deviation);
      }
    }
  }
  {
    const Span span(tracer, spans.recalibrate);
    HDLDP_ASSIGN_OR_RETURN(
        const hdldp::hdr4me::RecalibrationResult recalibrated,
        hdldp::hdr4me::Recalibrate(raw, deviations,
                                   hdldp::hdr4me::Hdr4meOptions{}));
    out->recalibrated = recalibrated.enhanced_mean;
  }
  std::vector<double> truth;
  {
    const Span span(tracer, spans.true_frequencies);
    truth = Flatten(setup.dataset->TrueFrequencies());
  }
  {
    const Span span(tracer, spans.finalize);
    out->raw = std::move(raw);
    ClipAndNormalize(schema, &out->raw);
    ClipAndNormalize(schema, &out->recalibrated);
    HDLDP_ASSIGN_OR_RETURN(out->naive_mse,
                           protocol::MeanSquaredError(out->raw, truth));
    HDLDP_ASSIGN_OR_RETURN(
        out->hdr_mse, protocol::MeanSquaredError(out->recalibrated, truth));
  }
  out->total_s = SecondsSince(start);
  return Status::OK();
}

// Serial probe of lane perturbation over the dense driver's one-hot
// blocks (the engine calls mech::PerturbLanes internally).
Result<double> ProbePerturbLanes(const FreqSetup& setup,
                                 const mech::MechanismPtr& mechanism,
                                 const FreqShape& shape, std::uint64_t seed) {
  const freq::CategoricalSchema& schema = *setup.schema;
  const std::size_t d = schema.num_dims();
  const std::size_t entries = schema.total_entries();
  HDLDP_ASSIGN_OR_RETURN(
      const double per_entry_eps,
      protocol::BudgetAccountant::PerEntryBudget(shape.epsilon, d));
  HDLDP_ASSIGN_OR_RETURN(
      const mech::DomainMap map,
      mech::DomainMap::Between(kEntryDomain, mechanism->InputDomain()));
  const mech::SamplerPlan plan = mechanism->MakePlan(per_entry_eps);
  engine::EngineOptions engine_options;
  engine_options.seed = seed;
  const engine::ChunkedEstimation core(*setup.source, engine_options);
  const std::size_t block_users =
      std::max<std::size_t>(1, engine::kEntriesPerBlock / entries);
  std::vector<double> natives(block_users * entries);
  std::vector<double> perturbed(natives.size());
  data::ChunkBuffer buffer;
  double seconds = 0.0;
  double values = 0.0;
  for (std::size_t c = 0; c < core.num_chunks(); ++c) {
    const engine::ChunkRange range = core.Range(c);
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           setup.source->Chunk(c, &buffer));
    hdldp::RngLanes lanes = core.LaneStreams(range);
    for (std::size_t i = range.begin; i < range.end; i += block_users) {
      const std::size_t block = std::min(block_users, range.end - i);
      std::fill(natives.begin(), natives.end(), map.Forward(0.0));
      for (std::size_t u = 0; u < block; ++u) {
        for (std::size_t j = 0; j < d; ++j) {
          natives[u * entries + schema.EntryOffset(j) +
                  static_cast<std::uint32_t>(
                      rows[(i + u - range.begin) * d + j])] = map.Forward(1.0);
        }
      }
      const std::size_t len = block * entries;
      const Clock::time_point t = Clock::now();
      mech::PerturbLanes(plan, std::span<const double>(natives).first(len),
                         &lanes, std::span<double>(perturbed).first(len));
      seconds += SecondsSince(t);
      values += static_cast<double>(len);
    }
  }
  return values / seconds;
}

}  // namespace

Status RunFreqDenseResident(const RunContext& ctx) {
  const Options& options = *ctx.options;
  Report* report = ctx.report;
  MetricValues& metrics = *ctx.metrics;
  const FreqShape shape;
  report->Meta("shape", "categorical n=" + std::to_string(shape.users) +
                            " q=16 c=8 zipf=1 m=d eps=1 piecewise, resident");

  std::vector<double> setup_s;
  FreqSetup setup;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = Clock::now();
    HDLDP_RETURN_NOT_OK(SetUp(shape, options.seed, &setup));
    setup_s.push_back(SecondsSince(start));
  }
  report->Samples("setup_s", setup_s, 0);
  metrics["setup_s"] = Median(setup_s);
  HDLDP_ASSIGN_OR_RETURN(const mech::MechanismPtr mechanism,
                         mech::MakeMechanism("piecewise"));

  FreqOutcome reference;
  freq::FrequencyEstimationResult full;
  HDLDP_RETURN_NOT_OK(LibraryRequest(setup, mechanism, shape, options.seed, 1,
                                     &reference, &full));
  report->Operations(1, 0);
  HDLDP_ASSIGN_OR_RETURN(
      const double predicted,
      PredictedMse(full, *mechanism, static_cast<double>(shape.users)));
  const double naive = reference.naive_mse / predicted;
  report->Meta("freq.naive_over_predicted_mse", naive);
  report->Meta("freq.hdr4me_over_naive_mse",
               reference.hdr_mse / reference.naive_mse);
  report->Check(naive >= kBandLow && naive <= kBandHigh,
                "freq: naive MSE within the band of the predicted MSE");
  const auto same_as_reference = [&](const FreqOutcome& out) {
    return SameBits(out.raw, reference.raw) &&
           SameBits(out.recalibrated, reference.recalibrated);
  };

  if (ctx.tracer == nullptr) {
    std::vector<double> latency_ms;
    std::vector<double> reports_per_s;
    std::vector<double> steal;
    const std::size_t warmup = kWarmupRequests;
    HDLDP_RETURN_NOT_OK(RepeatFor(
        options.seconds, warmup, 5, [&](bool) -> Status {
          const CpuTicks before = ReadCpuTicks();
          FreqOutcome out;
          HDLDP_RETURN_NOT_OK(LibraryRequest(setup, mechanism, shape,
                                             options.seed, options.threads,
                                             &out));
          report->Check(same_as_reference(out),
                        "freq: estimate bits identical at 1 and N threads");
          steal.push_back(StealFraction(before, ReadCpuTicks()));
          latency_ms.push_back(1e3 * out.total_s);
          reports_per_s.push_back(static_cast<double>(shape.users) /
                                  out.total_s);
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
    FreqOutcome out;
    HDLDP_RETURN_NOT_OK(LibraryRequest(setup, mechanism, shape,
                                       options.seed, threads, &out));
    report->Check(same_as_reference(out),
                  "freq: estimate bits identical at 1 and N threads");
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
      options.seconds, tracer, "engine.dense_chunk", "freq.true_frequencies",
      [&](double* seconds) { return library(1, seconds); },
      [&](std::uint64_t* folded) -> Status {
        FreqOutcome out;
        HDLDP_RETURN_NOT_OK(ReplicaRequest(setup, mechanism, shape,
                                           options.seed, tracer, spans, &out,
                                           folded));
        report->Check(same_as_reference(out),
                      "freq: traced replica reproduces the library estimate");
        return Status::OK();
      },
      report, &layers));
  HDLDP_ASSIGN_OR_RETURN(
      const double perturb_per_s,
      ProbePerturbLanes(setup, mechanism, shape, options.seed));

  const double users = static_cast<double>(shape.users);
  const double bytes = users * static_cast<double>(shape.questions) * 8.0;
  metrics["data.chunk_pull_gbps"] = bytes / Median(layers.chunk_pull_s) / 1e9;
  metrics["freq.true_frequencies_ms"] = 1e3 * Median(layers.truth_s);
  metrics["engine.dense_chunk_per_s"] = users / Median(layers.chunk_s);
  metrics["mech.perturb_lanes_per_s"] = perturb_per_s;
  metrics["protocol.fold_per_s"] =
      static_cast<double>(layers.folded_per_request) / Median(layers.fold_s);
  metrics["protocol.merge_ms"] = 1e3 * Median(layers.merge_s);
  metrics["hdr4me.recalibrate_ms"] = 1e3 * Median(layers.recalibrate_s);
  metrics["trace.coverage"] = Median(layers.coverage);
  CheckCoverage(report, "freq", metrics["trace.coverage"], kCoverageLow,
                kCoverageHigh);
  return Status::OK();
}

}  // namespace perfbench
