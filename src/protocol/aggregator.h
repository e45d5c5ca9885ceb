// Collector-side half of the protocol: per-dimension calibration and
// aggregation (paper Section IV-B steps 2-3).
//
// The aggregator accumulates perturbed values per dimension (in the
// mechanism's native output space), optionally applies a constant
// per-dimension bias correction (the paper's "calibration by delta_ij";
// all unbiased mechanisms use delta = 0, and the paper's square-wave
// evaluation deliberately leaves the bias in), then averages and maps the
// estimate back into the data domain.

#ifndef HDLDP_PROTOCOL_AGGREGATOR_H_
#define HDLDP_PROTOCOL_AGGREGATOR_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/math.h"
#include "common/result.h"
#include "common/status.h"
#include "engine/reduce.h"
#include "mech/mechanism.h"
#include "protocol/hadamard.h"
#include "protocol/report.h"

namespace hdldp {
namespace protocol {

/// \brief Streaming per-dimension mean estimator.
class MeanAggregator {
 public:
  /// Creates an aggregator for d dimensions whose incoming values live in
  /// the native space reached through `domain_map` (pass a default map if
  /// values are already in the data domain).
  static Result<MeanAggregator> Create(std::size_t num_dims,
                                       const mech::DomainMap& domain_map);

  /// \brief Folds one perturbed value for `dimension` (native space).
  void Consume(std::uint32_t dimension, double value) {
    sums_[dimension].Add(value);
    ++counts_[dimension];
  }

  /// \brief Folds every entry of a report.
  Status ConsumeReport(const UserReport& report);

  /// \brief Exact unbiased decoder of one Hadamard 1-bit report
  /// (protocol/hadamard.h): folds the report_dims decoded entries
  /// bit * bound * (1/c) * H(index, pos) into `dims` (the report's
  /// sampled dimensions, ascending — e.g. from Hadamard1SampleDims).
  /// Requires an identity domain map (decoded values are already in the
  /// data domain). Validates shape without mutating state on failure.
  Status ConsumeHadamard1(const Hadamard1Params& params,
                          std::span<const std::uint32_t> dims,
                          std::uint32_t index, bool positive);

  /// \brief Folds a flat block of entries: `dimensions[k]` receives
  /// `values[k]`. Validates sizes and dimension bounds up front (rejecting
  /// the whole batch without mutating state on failure), then folds in a
  /// tight loop. Entry-for-entry equivalent to scalar Consume() calls in
  /// the same order, so estimates are bit-identical across the two paths.
  Status ConsumeBatch(std::span<const std::uint32_t> dimensions,
                      std::span<const double> values);

  /// \brief Folds a flat block of scattered entries — same arguments,
  /// same validation and bit-identical per-dimension accumulation order
  /// as ConsumeBatch — but built for the large cross-user blocks of the
  /// v3 batched sampled driver: when the accumulator arrays exceed the
  /// L1-resident range, entries are first bucketed by dimension group
  /// (stable counting sort into internal scratch) so the compensated
  /// adds of each pass touch one cache-resident slice of `sums_` instead
  /// of scattering across all of it. Falls back to the plain fold for
  /// small dimensionalities or small blocks.
  Status ConsumeScattered(std::span<const std::uint32_t> dimensions,
                          std::span<const double> values);

  /// \brief Folds complete user rows: `values` holds whole perturbed
  /// tuples back to back (size a multiple of d, entry k belonging to
  /// dimension k % d), as produced by the engine's dense driver and the
  /// v1 dense chunk body. Per-dimension accumulation order equals the
  /// scalar Consume() order, so estimates are bit-identical; no per-entry
  /// dimension index or bounds check is paid.
  Status ConsumeDense(std::span<const double> values);

  /// \brief Folds another aggregator's state in (parallel reduction).
  /// Both aggregators must have the same dimensionality; the bias
  /// correction of *this* aggregator is kept.
  Status Merge(const MeanAggregator& other);

  /// \brief State-exact merge: per dimension the raw Neumaier (sum,
  /// compensation) pairs combine through NeumaierSum::MergeState (an
  /// error-free TwoSum in the sum channel) and counts add.
  ///
  /// This is the mergeable-state primitive of the aggregation service
  /// (laws pinned by tests/test_merge_laws.cc for mean and
  /// freq-expanded state): the zero-state aggregator is an exact
  /// identity, the operation is bit-commutative, a fixed split merged
  /// in a fixed order is bit-reproducible — the service pins its
  /// group/pane merge order, making published estimates independent of
  /// worker count and of crash/restore boundaries (SerializeState
  /// round-trips the raw state exactly) — and when every addition is
  /// exact the merge tree is provably invisible: any association is
  /// bit-identical to the single fold. For general perturbed data the
  /// merged estimate stays within an ulp or two of the single fold.
  ///
  /// Merge() (above) instead folds the other side's rounded Total() and
  /// stays frozen: the reduction tree's golden estimates pin it.
  Status MergeState(const MeanAggregator& other);

  /// \brief Zeroes all sums and counts (bias correction and domain map
  /// are kept), so one scratch aggregator can serve many chunks.
  void Reset();

  /// \brief Appends the exact aggregation state — per dimension the raw
  /// Neumaier (sum, compensation) pair and the report count, little-
  /// endian — to *out. Configuration (domain map, bias correction) is
  /// NOT serialized; it is re-derived from the run options on resume.
  /// Round-tripping through RestoreState reproduces the accumulator bit
  /// for bit, which is what makes checkpointed runs resume to
  /// bit-identical estimates (protocol/snapshot.h).
  void SerializeState(std::vector<unsigned char>* out) const;

  /// \brief Restores state written by SerializeState into this
  /// aggregator. The byte count must match this dimensionality.
  Status RestoreState(std::span<const unsigned char> bytes);

  /// Upper bound on simultaneously-live partial aggregators in
  /// ReduceChunks (beyond the per-worker scratch): caps the reduction
  /// footprint at kMaxReductionGroups * d accumulators no matter how many
  /// chunks a million-user run splits into.
  static constexpr std::size_t kMaxReductionGroups =
      engine::kMaxReductionGroups;

  /// \brief Deterministic two-level parallel reduction over
  /// `num_chunks` chunk simulations: engine::ReduceChunks (see
  /// engine/reduce.h for the full geometry and determinism contract)
  /// bound to MeanAggregator accumulators of this dimensionality.
  /// Estimates are identical for every `max_concurrency` (0 = one per
  /// hardware thread), and for num_chunks <= kMaxReductionGroups the
  /// merge sequence is exactly the flat chunk-order merge of the PR 2
  /// pipeline, bit for bit.
  static Result<MeanAggregator> ReduceChunks(
      std::size_t num_dims, const mech::DomainMap& domain_map,
      std::size_t num_chunks, std::size_t max_concurrency,
      const std::function<Status(std::size_t chunk, MeanAggregator* scratch)>&
          simulate_chunk);

  /// \brief Sets a per-dimension additive bias correction subtracted from
  /// each dimension's native-space mean (the calibration step). Must have
  /// d entries.
  Status SetBiasCorrection(std::vector<double> native_bias);

  /// Reports received in dimension j (the paper's r_j).
  std::int64_t ReportCount(std::size_t j) const { return counts_[j]; }

  /// Total reports across dimensions.
  std::int64_t TotalReports() const;

  /// \brief Estimated mean theta-hat in the data domain. Dimensions with
  /// zero reports estimate the data-domain midpoint. The estimate is the
  /// naive average the paper identifies as sub-optimal in high dimensions;
  /// feed it to hdr4me::Recalibrate for the enhanced mean.
  std::vector<double> EstimatedMean() const;

  /// Number of dimensions d.
  std::size_t num_dims() const { return counts_.size(); }

 private:
  MeanAggregator(std::size_t num_dims, const mech::DomainMap& domain_map);

  mech::DomainMap domain_map_;
  std::vector<NeumaierSum> sums_;
  std::vector<std::int64_t> counts_;
  std::vector<double> native_bias_;

  // ConsumeScattered's bucket-pass scratch. Not aggregation state:
  // Reset() and Merge() ignore it, and its contents never outlive one
  // ConsumeScattered call.
  std::vector<std::uint32_t> scatter_dims_;
  std::vector<double> scatter_values_;
  std::vector<std::size_t> scatter_begin_;
  std::vector<std::size_t> scatter_cursor_;
};

}  // namespace protocol
}  // namespace hdldp

#endif  // HDLDP_PROTOCOL_AGGREGATOR_H_
