// End-to-end simulation of the high-dimensional LDP mean-estimation
// protocol: n clients sample-and-perturb, the collector aggregates
// (Section VI's experimental loop). Values stream from the client into
// the aggregator, so memory stays O(n*d) for the dataset plus O(d) for
// the collector state even at paper scale.
//
// The run is a thin workload config over engine::ChunkedEstimation
// (engine/chunked_estimation.h): the engine owns chunk scheduling,
// stream seeding, plan dispatch and the deterministic reduction tree;
// this pipeline only says what a user row looks like in the mechanism's
// native domain (dense whole tuples when m == d, gathered sampled
// dimensions when m < d).
//
// RunSingleDimension is the specialized harness behind Figure 2: each user
// includes a tracked dimension with probability m/d (sampling m of d
// without replacement makes every dimension's inclusion marginal m/d), so
// only the tracked dimension's reports are simulated.

#ifndef HDLDP_PROTOCOL_PIPELINE_H_
#define HDLDP_PROTOCOL_PIPELINE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "engine/chunked_estimation.h"
#include "mech/mechanism.h"
#include "protocol/aggregator.h"
#include "protocol/client.h"
#include "protocol/snapshot.h"
#include "protocol/wire.h"

namespace hdldp {
namespace protocol {

/// \brief Configuration of a mean-estimation run: the shared engine
/// fields (seed, seed_scheme, num_threads, retry, allow_missing_chunks;
/// see engine::EngineOptions) plus what the protocol adds on top. The
/// frequency and variance pipelines extend this struct in turn.
///
/// Under seed_scheme kV3Batched (default) each chunk perturbs through the
/// prepared sampler plan with the four lane streams of ChunkSeed(seed,
/// chunk); dense (m == d) runs are laid out exactly as kV2Lanes while
/// sampled (m < d) runs batch many users' entries into each lane span.
/// kV2Lanes replays the per-user sampled lane spans of the first
/// lane-era releases; kV1Scalar replays the legacy per-chunk scalar
/// stream (ReportDense / ReportBatch draw order). Under
/// allow_missing_chunks the estimate covers surviving users only
/// (per-dimension averages already divide by received report counts, so
/// no post-hoc correction is applied).
struct PipelineOptions : engine::EngineOptions {
  /// Collective privacy budget per user.
  double total_epsilon = 1.0;
  /// Dimensions reported per user (m); 0 means all d.
  std::size_t report_dims = 0;
  /// Checkpoint file path; empty disables checkpointing. With a path,
  /// per-group accumulator state persists as the run progresses
  /// (protocol/snapshot.h); re-running after a crash resumes from the
  /// file and produces bit-identical final estimates, and a completed
  /// run removes its spent checkpoint.
  std::string checkpoint_path;
  /// Report encoding. kDense/kSampled run the numeric path above (each
  /// reported value perturbed by `mechanism` at eps/m); kHadamard1 runs
  /// the 1-bit path (protocol/hadamard.h): each user's m sampled values
  /// collapse into one randomized sign bit at the full eps, decoded
  /// unbiasedly by MeanAggregator::ConsumeHadamard1. Hadamard draws
  /// follow their own frozen scalar per-chunk stream contract
  /// (common/rng_lanes.h, "compact encodings"); seed_scheme does not
  /// alter them, checkpointing works as usual, and estimates remain
  /// bit-identical across thread counts, sources and SIMD builds.
  /// kOue/kOlh are frequency-oracle encodings and are rejected here.
  ReportEncoding encoding = ReportEncoding::kDense;
};

/// Outcome of a mean-estimation run.
struct MeanEstimationResult {
  /// The collector's naive estimate theta-hat (data domain).
  std::vector<double> estimated_mean;
  /// The ground-truth mean theta-bar of the dataset.
  std::vector<double> true_mean;
  /// Reports received per dimension (the paper's r_j).
  std::vector<std::int64_t> report_counts;
  /// Per-dimension privacy budget eps / m actually used.
  double per_dim_epsilon = 0.0;
  /// MSE(theta-hat, theta-bar), paper Eq. 3.
  double mse = 0.0;
  /// Chunks skipped under allow_missing_chunks, sorted ascending
  /// (empty on a fault-free run).
  std::vector<std::size_t> quarantined_chunks;
  /// Users whose reports the estimate covers: num_users minus the users
  /// of quarantined chunks.
  std::size_t surviving_users = 0;
  /// True iff the run continued from a prior checkpoint.
  bool resumed_from_checkpoint = false;
};

/// \brief Runs the full protocol over any chunked data source —
/// resident, on-disk shards, or a streaming generator — with
/// `mechanism`. Memory stays O(chunk) for data delivery plus O(d) for
/// the collector state, so n is bounded by disk (or nothing, for
/// generator sources), not RAM. Source values must already lie in
/// [-1, 1] (the paper's normalized data domain); out-of-domain values
/// are clamped by the client. For a fixed (values, options), the
/// estimate is bit-identical across source kinds and thread counts.
Result<MeanEstimationResult> RunMeanEstimation(const data::ChunkSource& source,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options);

/// \brief RunMeanEstimation without the ground truth: `true_mean` stays
/// empty and `mse` 0, and no reference pass reads the source. For
/// callers that score against a reference of their own, such as the
/// variance halves, which are views whose quarantined chunks must not be
/// read again.
Result<MeanEstimationResult> EstimateMean(const data::ChunkSource& source,
                                          mech::MechanismPtr mechanism,
                                          const PipelineOptions& options);

/// \brief Resident-dataset convenience wrapper: adapts `dataset` through
/// data::ResidentChunkSource (zero-copy) and runs the source overload.
Result<MeanEstimationResult> RunMeanEstimation(const data::Dataset& dataset,
                                               mech::MechanismPtr mechanism,
                                               const PipelineOptions& options);

/// Outcome of ReduceCheckpointed.
struct CheckpointedReduce {
  MeanAggregator aggregator;
  /// Chunks skipped under allow_missing_chunks, sorted ascending.
  std::vector<std::size_t> quarantined_chunks;
  /// True iff the run continued from a prior checkpoint.
  bool resumed = false;
};

/// \brief The checkpointed MeanAggregator reduction shared by the mean,
/// Hadamard1 and numeric frequency pipelines: runs `core`'s reduction
/// over aggregators of `num_entries` entries read back through `map`,
/// folding chunk after chunk with `body`. With a non-empty
/// `checkpoint_path`, per-group state persists in a SnapshotFile keyed
/// by `digest` (everything the estimate depends on; the thread count is
/// deliberately left out), a run that finds matching state resumes from
/// it bit-identically, and a completed run removes its spent file.
Result<CheckpointedReduce> ReduceCheckpointed(
    const engine::ChunkedEstimation& core, std::size_t num_entries,
    const mech::DomainMap& map, const std::string& checkpoint_path,
    const RunDigest& digest,
    const std::function<Status(const engine::ChunkRange&, MeanAggregator*)>&
        body);

/// Outcome of a single-dimension run.
struct SingleDimensionResult {
  /// Estimated mean of the tracked dimension (data domain).
  double estimated_mean = 0.0;
  /// Number of reports the tracked dimension received.
  std::int64_t report_count = 0;
};

/// \brief Simulates only one dimension of the protocol: each of the
/// `values.size()` users reports it with probability `inclusion_prob`
/// (= m/d), perturbed at `per_dim_epsilon`. Used by the Figure 2 harness,
/// where n*d full simulation would be needlessly quadratic.
///
/// `seed_scheme` names the stream contract of the caller-owned `rng`
/// and must be SeedScheme::kV1Scalar — the only contract this harness
/// implements (one scalar stream, one Bernoulli + one perturbation draw
/// per included user; see common/rng_lanes.h for the decision record).
/// Recorded fig-2 cells carry the scheme name so a future lane variant
/// becomes a new scheme instead of silently changing draws.
Result<SingleDimensionResult> RunSingleDimension(
    std::span<const double> values, const mech::Mechanism& mechanism,
    double per_dim_epsilon, double inclusion_prob,
    const mech::Interval& data_domain, SeedScheme seed_scheme, Rng* rng);

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_PIPELINE_H_
