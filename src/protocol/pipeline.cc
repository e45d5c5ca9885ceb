#include "protocol/pipeline.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/math.h"
#include "protocol/metrics.h"

namespace hdldp {
namespace protocol {

namespace {

// Users per row block of the dense (m == d) kV1Scalar chunk body: large
// enough to amortize the ConsumeDense call, small enough to keep the
// block in cache even at high dimensionality.
constexpr std::size_t kDenseBlockUsers = 64;

// The legacy kV1Scalar chunk body: one scalar stream per chunk, each user
// reported in order through Client::ReportTo — the draw order of the
// pre-lane-era pipeline. Frozen so mean estimates recorded under v1 seeds
// keep their outputs bit for bit (tests/test_engine.cc pins them). `rows`
// is the chunk's row-major block from the bound source. `client` is the
// one validated instance built by NumericPath; it is copied here (a cheap
// value copy — shared mechanism pointer, prepared plan, empty scratch)
// because ReportTo writes the client's sampling scratch.
Status SimulateChunkV1(std::span<const double> rows, std::size_t num_dims,
                       const Client& client, const engine::ChunkRange& range,
                       MeanAggregator* aggregator) {
  const Client local = client;
  Rng rng(range.chunk_seed);
  const std::size_t users = range.num_users();
  if (local.report_dims() < num_dims) {
    for (std::size_t i = 0; i < users; ++i) {
      local.ReportTo(rows.subspan(i * num_dims, num_dims), &rng,
                     [aggregator](std::uint32_t dim, double value) {
                       aggregator->Consume(dim, value);
                     });
    }
    return Status::OK();
  }
  // Every dimension reported: each user's values fill one whole row, and
  // ConsumeDense folds a block of rows in the per-dimension order of
  // entry-by-entry Consume calls (same bits, faster fold).
  std::vector<double> block(std::min(kDenseBlockUsers, users) * num_dims);
  for (std::size_t first = 0; first < users; first += kDenseBlockUsers) {
    const std::size_t count = std::min(kDenseBlockUsers, users - first);
    for (std::size_t i = 0; i < count; ++i) {
      double* row = block.data() + i * num_dims;
      local.ReportTo(rows.subspan((first + i) * num_dims, num_dims), &rng,
                     [row](std::uint32_t dim, double value) {
                       row[dim] = value;
                     });
    }
    HDLDP_RETURN_NOT_OK(aggregator->ConsumeDense(
        std::span<const double>(block).first(count * num_dims)));
  }
  return Status::OK();
}

using ChunkBody =
    std::function<Status(const engine::ChunkRange&, MeanAggregator*)>;

// What a mean encoding contributes to a run; RunMeanEstimation does the
// rest (checkpointed reduction, result assembly) once for both.
struct MeanPath {
  // Digest tag: the mechanism name, or "hadamard1".
  std::string name;
  std::size_t report_dims = 0;
  double per_dim_epsilon = 0.0;
  // Native space -> data domain of the aggregated values.
  mech::DomainMap map;
  ChunkBody body;
};

// The Hadamard 1-bit mean path: one randomized sign bit per user at the
// full eps, decoded unbiasedly by MeanAggregator::ConsumeHadamard1.
// Draw layout (the "compact encodings" stream contract in
// common/rng_lanes.h): one scalar stream per chunk, per user a Floyd
// m-of-d sample sorted ascending, then the Hadamard1Encode draws (row
// index, sign coin). Decoded values are already in the data domain, so
// the aggregator runs with an identity map. The single bit spends the
// whole budget; there is no per-dimension split to report.
Result<MeanPath> Hadamard1Path(const engine::ChunkedEstimation& core,
                               std::size_t d, const PipelineOptions& options) {
  const std::size_t m = options.report_dims == 0 ? d : options.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const Hadamard1Params params,
      Hadamard1Params::Create(d, m, options.total_epsilon));
  return MeanPath{
      "hadamard1", m, options.total_epsilon, mech::DomainMap(),
      [&core, d, m, params](const engine::ChunkRange& range,
                            MeanAggregator* scratch) -> Status {
        HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                               core.ChunkRows(range));
        Rng rng(range.chunk_seed);
        std::vector<std::uint32_t> sampled;
        std::vector<double> values(m);
        for (std::size_t i = range.begin; i < range.end; ++i) {
          const double* row = rows.data() + (i - range.begin) * d;
          sampled.clear();
          rng.SampleWithoutReplacement(d, m, &sampled);
          std::sort(sampled.begin(), sampled.end());
          for (std::size_t pos = 0; pos < m; ++pos) {
            values[pos] = row[sampled[pos]];
          }
          const Hadamard1Report report = Hadamard1Encode(params, values, &rng);
          HDLDP_RETURN_NOT_OK(scratch->ConsumeHadamard1(
              params, sampled, report.index, report.positive));
        }
        return Status::OK();
      }};
}

// The numeric path: each reported value perturbed by the mechanism at
// eps/m. The chunk body only says what a user row looks like in the
// mechanism's native domain; chunk geometry, (seed, chunk, lane) stream
// seeding and plan dispatch live in the engine. Each chunk body pulls
// its rows once up front (worker-local buffer, one chunk resident per
// worker).
Result<MeanPath> NumericPath(const engine::ChunkedEstimation& core,
                             std::size_t d, mech::MechanismPtr mechanism,
                             const PipelineOptions& options) {
  ClientOptions client_options;
  client_options.total_epsilon = options.total_epsilon;
  client_options.report_dims = options.report_dims;
  HDLDP_ASSIGN_OR_RETURN(
      const Client client,
      Client::Create(std::move(mechanism), d, client_options));
  const std::size_t m = client.report_dims();
  return MeanPath{
      std::string(client.mechanism().Name()), m, client.PerDimensionEpsilon(),
      client.domain_map(),
      [&core, d, m, client](const engine::ChunkRange& range,
                            MeanAggregator* scratch) -> Status {
        HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                               core.ChunkRows(range));
        if (core.options().seed_scheme == SeedScheme::kV1Scalar) {
          return SimulateChunkV1(rows, d, client, range, scratch);
        }
        const mech::SamplerPlan& plan = client.plan();
        const mech::DomainMap map = client.domain_map();
        if (m == d) {
          // Dense fast path: whole tuples map onto native rows.
          return core.PerturbDenseChunk(
              plan, range, d, 0.0, scratch,
              [&](std::size_t user, std::size_t block,
                  std::span<double> natives) {
                const std::span<const double> block_rows =
                    rows.subspan((user - range.begin) * d, block * d);
                for (std::size_t k = 0; k < block_rows.size(); ++k) {
                  natives[k] = map.Forward(block_rows[k]);
                }
              });
        }
        // Sampled path: each sampled dimension contributes one entry,
        // bulk-appended per user (v3 batches many users' entries into
        // each lane span; v2 keeps one span per user — the engine driver
        // dispatches).
        return core.PerturbSampledChunk(
            plan, range, d, m, scratch,
            [&](std::size_t user, std::span<const std::uint32_t> dims,
                std::vector<std::uint32_t>* entry_indices,
                std::vector<double>* natives) {
              entry_indices->insert(entry_indices->end(), dims.begin(),
                                    dims.end());
              const std::size_t base = natives->size();
              natives->resize(base + dims.size());
              double* out = natives->data() + base;
              const std::span<const double> row =
                  rows.subspan((user - range.begin) * d, d);
              for (std::size_t k = 0; k < dims.size(); ++k) {
                out[k] = map.Forward(row[dims[k]]);
              }
            });
      }};
}

}  // namespace

Result<CheckpointedReduce> ReduceCheckpointed(
    const engine::ChunkedEstimation& core, std::size_t num_entries,
    const mech::DomainMap& map, const std::string& checkpoint_path,
    const RunDigest& digest, const ChunkBody& body) {
  const auto make = [&] { return MeanAggregator::Create(num_entries, map); };
  // Translate between the codec's opaque group records and the
  // aggregator's exact state.
  std::optional<SnapshotFile> snapshot;
  engine::CheckpointHooks<MeanAggregator> hooks;
  if (!checkpoint_path.empty()) {
    HDLDP_ASSIGN_OR_RETURN(SnapshotFile file,
                           SnapshotFile::Open(checkpoint_path, digest.bytes));
    snapshot.emplace(std::move(file));
    hooks.load = [&](std::size_t group)
        -> Result<std::optional<engine::GroupCheckpoint<MeanAggregator>>> {
      std::optional<SnapshotFile::GroupState> state = snapshot->Load(group);
      if (!state.has_value()) {
        return std::optional<engine::GroupCheckpoint<MeanAggregator>>();
      }
      HDLDP_ASSIGN_OR_RETURN(MeanAggregator acc, make());
      HDLDP_RETURN_NOT_OK(acc.RestoreState(state->acc_state));
      return std::optional<engine::GroupCheckpoint<MeanAggregator>>(
          engine::GroupCheckpoint<MeanAggregator>{
              state->chunks_done, std::move(state->quarantined),
              std::move(acc)});
    };
    hooks.save = [&](std::size_t group, std::size_t chunks_done,
                     const std::vector<std::size_t>& quarantined,
                     const MeanAggregator& acc) -> Status {
      std::vector<unsigned char> bytes;
      acc.SerializeState(&bytes);
      return snapshot->Save(group, chunks_done, quarantined, bytes);
    };
  }
  const bool resumed = snapshot.has_value() && snapshot->resumed();
  std::vector<std::size_t> quarantined;
  HDLDP_ASSIGN_OR_RETURN(
      MeanAggregator aggregator,
      core.ReduceResumable<MeanAggregator>(make, body, hooks, &quarantined));
  // The run completed; its checkpoint is spent.
  if (snapshot.has_value()) {
    HDLDP_RETURN_NOT_OK(snapshot->Close());
    HDLDP_RETURN_NOT_OK(SnapshotFile::Remove(checkpoint_path));
  }
  return CheckpointedReduce{std::move(aggregator), std::move(quarantined),
                            resumed};
}

Result<MeanEstimationResult> EstimateMean(const data::ChunkSource& source,
                                          mech::MechanismPtr mechanism,
                                          const PipelineOptions& options) {
  if (options.encoding == ReportEncoding::kOue ||
      options.encoding == ReportEncoding::kOlh) {
    return Status::InvalidArgument(
        "oue/olh are frequency-oracle encodings; mean estimation supports "
        "dense|sampled|hadamard1");
  }
  const std::size_t d = source.num_dims();
  const engine::ChunkedEstimation core(source, options);
  HDLDP_ASSIGN_OR_RETURN(
      const MeanPath path,
      options.encoding == ReportEncoding::kHadamard1
          ? Hadamard1Path(core, d, options)
          : NumericPath(core, d, std::move(mechanism), options));

  // Checkpoint manifest: everything the estimate depends on, in a fixed
  // field order (a checkpoint written by any earlier release of this
  // layout still resumes).
  RunDigest digest;
  digest.AddString("mean");
  digest.AddString(path.name);
  digest.AddF64(options.total_epsilon);
  digest.AddU64(path.report_dims);
  digest.AddU64(options.seed);
  digest.AddU64(static_cast<std::uint64_t>(options.seed_scheme));
  digest.AddU64(source.num_users());
  digest.AddU64(d);
  digest.AddU64(options.allow_missing_chunks ? 1 : 0);
  HDLDP_ASSIGN_OR_RETURN(CheckpointedReduce reduced,
                         ReduceCheckpointed(core, d, path.map,
                                            options.checkpoint_path, digest,
                                            path.body));

  MeanEstimationResult result;
  result.estimated_mean = reduced.aggregator.EstimatedMean();
  result.report_counts.reserve(d);
  for (std::size_t j = 0; j < d; ++j) {
    result.report_counts.push_back(reduced.aggregator.ReportCount(j));
  }
  result.per_dim_epsilon = path.per_dim_epsilon;
  result.surviving_users = source.SurvivingUsers(reduced.quarantined_chunks);
  result.quarantined_chunks = std::move(reduced.quarantined_chunks);
  result.resumed_from_checkpoint = reduced.resumed;
  return result;
}

Result<MeanEstimationResult> RunMeanEstimation(const data::ChunkSource& source,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options) {
  HDLDP_ASSIGN_OR_RETURN(MeanEstimationResult result,
                         EstimateMean(source, std::move(mechanism), options));
  // The truth covers the users the estimate covers: quarantined chunks
  // are never read again.
  HDLDP_ASSIGN_OR_RETURN(result.true_mean,
                         source.SurvivingMean(result.quarantined_chunks));
  HDLDP_ASSIGN_OR_RETURN(
      result.mse, MeanSquaredError(result.estimated_mean, result.true_mean));
  return result;
}

Result<MeanEstimationResult> RunMeanEstimation(const data::Dataset& dataset,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options) {
  const data::ResidentChunkSource source(&dataset);
  return RunMeanEstimation(source, std::move(mechanism), options);
}

Result<SingleDimensionResult> RunSingleDimension(
    std::span<const double> values, const mech::Mechanism& mechanism,
    double per_dim_epsilon, double inclusion_prob,
    const mech::Interval& data_domain, SeedScheme seed_scheme, Rng* rng) {
  if (seed_scheme != SeedScheme::kV1Scalar) {
    // The harness draws from one caller-owned scalar stream; that IS the
    // kV1Scalar contract. A lane variant would be a new scheme with its
    // own golden streams (see common/rng_lanes.h), not a silent re-layout
    // of this one.
    return Status::InvalidArgument(
        "RunSingleDimension implements only the kV1Scalar stream contract");
  }
  if (values.empty()) {
    return Status::InvalidArgument("RunSingleDimension requires users");
  }
  if (!(inclusion_prob > 0.0 && inclusion_prob <= 1.0)) {
    return Status::InvalidArgument(
        "RunSingleDimension requires inclusion_prob in (0, 1]");
  }
  HDLDP_RETURN_NOT_OK(mechanism.ValidateBudget(per_dim_epsilon));
  HDLDP_ASSIGN_OR_RETURN(
      const mech::DomainMap map,
      mech::DomainMap::Between(data_domain, mechanism.InputDomain()));
  // One prepared plan for the whole pass; one visit resolves the variant
  // outside the per-user loop.
  const mech::SamplerPlan plan = mechanism.MakePlan(per_dim_epsilon);
  NeumaierSum sum;
  std::int64_t count = 0;
  std::visit(
      [&](const auto& p) {
        for (const double t : values) {
          if (!rng->Bernoulli(inclusion_prob)) continue;
          sum.Add(p(map.Forward(t), rng));
          ++count;
        }
      },
      plan);
  SingleDimensionResult result;
  result.report_count = count;
  result.estimated_mean =
      count == 0 ? 0.0 : map.Backward(sum.Total() / static_cast<double>(count));
  return result;
}

}  // namespace protocol
}  // namespace hdldp
