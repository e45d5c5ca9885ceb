#include "hdr4me/variance.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>
#include <vector>

#include "common/math.h"
#include "protocol/metrics.h"

namespace hdldp {
namespace hdr4me {

namespace {

// HDR4ME pass over one half's estimate, with per-dimension models built
// from that half's empirical marginals outside its quarantined chunks.
Result<std::vector<double>> RecalibrateHalf(
    const data::ChunkSource& half, std::span<const std::size_t> quarantined,
    const mech::Mechanism& mechanism, const std::vector<double>& estimate,
    double per_dim_eps, const mech::Interval& data_domain,
    const Hdr4meOptions& options, double reports) {
  HDLDP_ASSIGN_OR_RETURN(
      const std::vector<framework::GaussianDeviation> deviations,
      MarginalDeviations(half, quarantined, mechanism, per_dim_eps, reports,
                         data_domain));
  HDLDP_ASSIGN_OR_RETURN(const RecalibrationResult result,
                         Recalibrate(estimate, deviations, options));
  return result.enhanced_mean;
}

// One part of the population and the chunks its run quarantined.
struct Survivors {
  const data::ChunkSource* source;
  std::span<const std::size_t> quarantined;
};

// Ground-truth per-dimension variance over the surviving users of
// `parts`: a mean pass, then a squared-deviation pass, each visiting the
// parts in order and users in order within each, so on a fault-free run
// the compensated sums see exactly the users, in the order, of the
// resident Dataset::TrueMean and variance loops (same bits).
Result<std::vector<double>> SurvivingVariance(
    std::span<const Survivors> parts, std::size_t d) {
  std::size_t n = 0;
  for (const Survivors& part : parts) {
    n += part.source->SurvivingUsers(part.quarantined);
  }
  if (n == 0) {
    return Status::FailedPrecondition(
        "every chunk was quarantined; no surviving users to estimate");
  }
  std::vector<double> mean(d);
  std::vector<double> variance(d);
  for (std::vector<double>* moment : {&mean, &variance}) {
    std::vector<NeumaierSum> acc(d);
    for (const Survivors& part : parts) {
      HDLDP_RETURN_NOT_OK(data::ForEachSurvivingChunk(
          *part.source, part.quarantined,
          [&](std::span<const double> rows, std::size_t users) {
            for (std::size_t i = 0; i < users; ++i) {
              for (std::size_t j = 0; j < d; ++j) {
                const double v = rows[i * d + j];
                acc[j].Add(moment == &mean ? v : Sq(v - mean[j]));
              }
            }
            return true;
          }));
    }
    for (std::size_t j = 0; j < d; ++j) {
      (*moment)[j] = acc[j].Total() / static_cast<double>(n);
    }
  }
  return variance;
}

}  // namespace

Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::ChunkSource& source, mech::MechanismPtr mechanism,
    const VarianceOptions& options) {
  if (mechanism == nullptr) {
    return Status::InvalidArgument("variance estimation requires a mechanism");
  }
  if (options.encoding != protocol::ReportEncoding::kDense &&
      options.encoding != protocol::ReportEncoding::kSampled) {
    return Status::InvalidArgument(
        "variance estimation runs numeric mean halves; it supports "
        "dense|sampled encodings");
  }
  const std::size_t n = source.num_users();
  const std::size_t d = source.num_dims();
  if (n < 2) {
    return Status::InvalidArgument(
        "variance estimation requires >= 2 users to split");
  }
  // Half A keeps the raw values, half B the squares. Both halves (and
  // the square/embedding stages) are lazy views over `source` — each
  // chunk is sliced or transformed on pull, so nothing is materialized.
  const std::size_t half_a = n / 2;
  const data::SlicedChunkSource values_half(&source, 0, half_a);
  const data::SlicedChunkSource raw_half_b(&source, half_a, n - half_a);
  const data::TransformedChunkSource squares_half(&raw_half_b, [](double v) {
    const double c = Clamp(v, -1.0, 1.0);
    return c * c;
  });
  // The squares live in [0, 1]; the generic pipeline assumes the [-1, 1]
  // data domain, so run the squares through the affine embedding
  // u = 2v - 1 and invert afterwards.
  const data::TransformedChunkSource squares_embedded(
      &squares_half, [](double v) { return 2.0 * v - 1.0; });

  // Mean estimation on both halves. The halves checkpoint independently
  // (suffixes keep the two snapshot files distinct; their digests also
  // differ through the seed XOR), so a crash in either half resumes that
  // half exactly where it stopped. A completed half's checkpoint is
  // spent and removed, so re-running it recomputes deterministically —
  // bit-identical either way.
  protocol::PipelineOptions mean_opts = options;
  if (!options.checkpoint_path.empty()) {
    mean_opts.checkpoint_path = options.checkpoint_path + ".values";
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto mean_run,
      protocol::EstimateMean(values_half, mechanism, mean_opts));

  protocol::PipelineOptions square_opts = mean_opts;
  square_opts.seed = options.seed ^ 0x5ECC0ull;
  if (!options.checkpoint_path.empty()) {
    square_opts.checkpoint_path = options.checkpoint_path + ".squares";
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto square_run,
      protocol::EstimateMean(squares_embedded, mechanism, square_opts));

  VarianceEstimationResult result;
  result.quarantined_values_chunks = mean_run.quarantined_chunks;
  result.quarantined_squares_chunks = square_run.quarantined_chunks;
  result.surviving_users =
      mean_run.surviving_users + square_run.surviving_users;
  result.resumed_from_checkpoint =
      mean_run.resumed_from_checkpoint || square_run.resumed_from_checkpoint;
  result.estimated_mean = mean_run.estimated_mean;
  result.estimated_second_moment.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    // Undo the [0,1] -> [-1,1] embedding.
    result.estimated_second_moment[j] =
        0.5 * (square_run.estimated_mean[j] + 1.0);
  }

  if (options.recalibrate) {
    const double m = options.report_dims == 0
                         ? static_cast<double>(d)
                         : static_cast<double>(options.report_dims);
    const double eps_per_dim = options.total_epsilon / m;
    // Reports each half's estimate actually received: quarantined chunks
    // sent none.
    const double reports_a = static_cast<double>(mean_run.surviving_users) *
                             m / static_cast<double>(d);
    const double reports_b =
        static_cast<double>(square_run.surviving_users) * m /
        static_cast<double>(d);
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_mean,
        RecalibrateHalf(values_half, mean_run.quarantined_chunks, *mechanism,
                        result.estimated_mean, eps_per_dim, {-1.0, 1.0},
                        options.hdr4me, reports_a));
    // The second moment lives in [0, 1]; re-calibrate in that domain.
    HDLDP_ASSIGN_OR_RETURN(
        result.estimated_second_moment,
        RecalibrateHalf(squares_half, square_run.quarantined_chunks,
                        *mechanism, result.estimated_second_moment,
                        eps_per_dim, {0.0, 1.0}, options.hdr4me, reports_b));
  }

  // Combine and score.
  result.estimated_variance.resize(d);
  for (std::size_t j = 0; j < d; ++j) {
    result.estimated_variance[j] =
        std::max(0.0, result.estimated_second_moment[j] -
                          Sq(result.estimated_mean[j]));
  }
  const Survivors parts[] = {{&values_half, mean_run.quarantined_chunks},
                             {&raw_half_b, square_run.quarantined_chunks}};
  HDLDP_ASSIGN_OR_RETURN(result.true_variance, SurvivingVariance(parts, d));
  HDLDP_ASSIGN_OR_RETURN(
      result.mse, protocol::MeanSquaredError(result.estimated_variance,
                                             result.true_variance));
  return result;
}

Result<VarianceEstimationResult> RunVarianceEstimation(
    const data::Dataset& dataset, mech::MechanismPtr mechanism,
    const VarianceOptions& options) {
  const data::ResidentChunkSource source(&dataset);
  return RunVarianceEstimation(source, std::move(mechanism), options);
}

}  // namespace hdr4me
}  // namespace hdldp
