#include "data/generator_source.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "common/math.h"
#include "common/rng.h"

namespace hdldp {
namespace data {
namespace {

Status ValidateShape(std::size_t num_users, std::size_t num_dims) {
  if (num_users == 0 || num_dims == 0) {
    return Status::InvalidArgument(
        "generator requires num_users, num_dims > 0");
  }
  return Status::OK();
}

std::size_t NumHighDims(const GaussianSpec& spec) {
  return static_cast<std::size_t>(
      std::ceil(spec.high_fraction * static_cast<double>(spec.num_dims)));
}

}  // namespace

Result<GeneratorChunkSource> GeneratorChunkSource::Create(
    const GeneratorSpec& spec, std::uint64_t seed) {
  GeneratorChunkSource source;
  source.spec_ = spec;
  source.seed_ = seed;
  std::visit(
      [&source](const auto& s) {
        source.num_users_ = s.num_users;
        source.num_dims_ = s.num_dims;
      },
      spec);
  HDLDP_RETURN_NOT_OK(ValidateShape(source.num_users_, source.num_dims_));

  // Population parameters come from their own tagged stream so the row
  // streams of chunk 0..k never shift when a spec adds parameters.
  std::uint64_t param_state = seed ^ kGeneratorParamTag;
  Rng param_rng(SplitMix64(&param_state));

  if (const auto* uniform = std::get_if<UniformSpec>(&spec)) {
    if (!(uniform->lo < uniform->hi)) {
      return Status::InvalidArgument("uniform generator requires lo < hi");
    }
    source.post_ = Post::kNone;
  } else if (const auto* gaussian = std::get_if<GaussianSpec>(&spec)) {
    if (gaussian->stddev <= 0.0) {
      return Status::InvalidArgument("gaussian generator requires stddev > 0");
    }
    if (gaussian->high_fraction < 0.0 || gaussian->high_fraction > 1.0) {
      return Status::InvalidArgument(
          "gaussian generator requires high_fraction in [0, 1]");
    }
    source.post_ = Post::kClamp;
  } else if (const auto* poisson = std::get_if<PoissonSpec>(&spec)) {
    if (!(poisson->min_expectation > 0.0) ||
        !(poisson->min_expectation <= poisson->max_expectation)) {
      return Status::InvalidArgument(
          "poisson generator requires 0 < min_expectation <= max_expectation");
    }
    source.lambdas_.resize(poisson->num_dims);
    for (double& l : source.lambdas_) {
      l = param_rng.Uniform(poisson->min_expectation,
                            poisson->max_expectation);
    }
    source.post_ = Post::kMinMax;
  } else if (const auto* corr = std::get_if<CorrelatedSpec>(&spec)) {
    if (corr->num_factors == 0) {
      return Status::InvalidArgument(
          "correlated generator requires factors > 0");
    }
    if (!(corr->factor_weight > 0.0 && corr->factor_weight < 1.0)) {
      return Status::InvalidArgument(
          "correlated generator requires factor_weight in (0, 1)");
    }
    // Same loading construction as GenerateCorrelated, fed from the
    // parameter stream.
    source.loadings_.resize(corr->num_dims * corr->num_factors);
    for (std::size_t j = 0; j < corr->num_dims; ++j) {
      double norm_sq = 0.0;
      for (std::size_t f = 0; f < corr->num_factors; ++f) {
        const double raw = 0.5 + param_rng.UniformDouble();  // In [0.5, 1.5).
        source.loadings_[j * corr->num_factors + f] = raw;
        norm_sq += raw * raw;
      }
      const double inv_norm = 1.0 / std::sqrt(norm_sq);
      for (std::size_t f = 0; f < corr->num_factors; ++f) {
        source.loadings_[j * corr->num_factors + f] *= inv_norm;
      }
    }
    source.post_ = Post::kMinMax;
  } else if (const auto* discrete = std::get_if<DiscreteSpec>(&spec)) {
    if (discrete->values.empty() ||
        discrete->values.size() != discrete->probabilities.size()) {
      return Status::InvalidArgument(
          "discrete generator requires matching non-empty "
          "values/probabilities");
    }
    double total = 0.0;
    for (const double p : discrete->probabilities) {
      if (p < 0.0) {
        return Status::InvalidArgument(
            "discrete generator: negative probability");
      }
      total += p;
    }
    if (std::abs(total - 1.0) > 1e-9) {
      return Status::InvalidArgument(
          "discrete generator: probabilities must sum to 1");
    }
    source.cdf_.resize(discrete->probabilities.size());
    std::partial_sum(discrete->probabilities.begin(),
                     discrete->probabilities.end(), source.cdf_.begin());
    source.cdf_.back() = 1.0;
    source.post_ = Post::kNone;
  }

  if (source.post_ == Post::kMinMax) {
    // Streaming range prepass: min/max commute, so visiting chunks in
    // order yields exactly the ranges Dataset::NormalizeDimensions would
    // compute over the materialized matrix.
    const std::size_t d = source.num_dims_;
    source.range_lo_.assign(d, std::numeric_limits<double>::infinity());
    source.range_width_.assign(d, -std::numeric_limits<double>::infinity());
    std::vector<double> scratch;
    for (std::size_t c = 0; c < source.num_chunks(); ++c) {
      source.FillRawChunk(c, &scratch);
      const std::size_t users = source.ChunkUsers(c);
      for (std::size_t i = 0; i < users; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          const double v = scratch[i * d + j];
          source.range_lo_[j] = std::min(source.range_lo_[j], v);
          source.range_width_[j] = std::max(source.range_width_[j], v);
        }
      }
    }
    for (std::size_t j = 0; j < d; ++j) {
      source.range_width_[j] -= source.range_lo_[j];
    }
  }
  return source;
}

void GeneratorChunkSource::FillRawChunk(std::size_t chunk,
                                        std::vector<double>* out) const {
  const std::size_t users = ChunkUsers(chunk);
  const std::size_t d = num_dims_;
  out->resize(users * d);
  // The frozen row-stream key: every chunk draws from its own stream, so
  // chunk c is reproducible without generating chunks 0..c-1.
  Rng rng(ChunkSeed(seed_ ^ kGeneratorRowTag, chunk));
  double* p = out->data();
  if (const auto* uniform = std::get_if<UniformSpec>(&spec_)) {
    for (std::size_t k = 0; k < users * d; ++k) {
      p[k] = rng.Uniform(uniform->lo, uniform->hi);
    }
  } else if (const auto* gaussian = std::get_if<GaussianSpec>(&spec_)) {
    const std::size_t num_high = NumHighDims(*gaussian);
    for (std::size_t i = 0; i < users; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        const double mean =
            j < num_high ? gaussian->high_mean : gaussian->low_mean;
        p[i * d + j] = rng.Gaussian(mean, gaussian->stddev);
      }
    }
  } else if (std::get_if<PoissonSpec>(&spec_) != nullptr) {
    for (std::size_t i = 0; i < users; ++i) {
      for (std::size_t j = 0; j < d; ++j) {
        p[i * d + j] = static_cast<double>(rng.Poisson(lambdas_[j]));
      }
    }
  } else if (const auto* corr = std::get_if<CorrelatedSpec>(&spec_)) {
    const double w = corr->factor_weight;
    const double noise_w = std::sqrt(1.0 - w * w);
    std::vector<double> factors(corr->num_factors);
    for (std::size_t i = 0; i < users; ++i) {
      for (double& f : factors) f = rng.Gaussian();
      for (std::size_t j = 0; j < d; ++j) {
        double shared = 0.0;
        for (std::size_t f = 0; f < corr->num_factors; ++f) {
          shared += loadings_[j * corr->num_factors + f] * factors[f];
        }
        p[i * d + j] = w * shared + noise_w * rng.Gaussian();
      }
    }
  } else if (const auto* discrete = std::get_if<DiscreteSpec>(&spec_)) {
    for (std::size_t k = 0; k < users * d; ++k) {
      const double u = rng.UniformDouble();
      std::size_t v = 0;
      while (v + 1 < cdf_.size() && u >= cdf_[v]) ++v;
      p[k] = discrete->values[v];
    }
  }
}

Result<std::span<const double>> GeneratorChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  if (chunk >= num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  std::vector<double>& out = buffer->storage();
  FillRawChunk(chunk, &out);
  switch (post_) {
    case Post::kNone:
      break;
    case Post::kClamp:
      for (double& v : out) v = Clamp(v, -1.0, 1.0);
      break;
    case Post::kMinMax: {
      const std::size_t d = num_dims_;
      const std::size_t users = ChunkUsers(chunk);
      for (std::size_t i = 0; i < users; ++i) {
        for (std::size_t j = 0; j < d; ++j) {
          double& v = out[i * d + j];
          // Same expression as Dataset::NormalizeDimensions, value for
          // value — constant dimensions map to 0.
          v = range_width_[j] <= 0.0
                  ? 0.0
                  : 2.0 * (v - range_lo_[j]) / range_width_[j] - 1.0;
        }
      }
      break;
    }
  }
  return std::span<const double>(out.data(), out.size());
}

Result<Dataset> GenerateSequential(const GeneratorSpec& spec, Rng* rng) {
  struct Classic {
    Rng* rng;
    Result<Dataset> operator()(const UniformSpec& s) const {
      return GenerateUniform(s, rng);
    }
    Result<Dataset> operator()(const GaussianSpec& s) const {
      return GenerateGaussian(s, rng);
    }
    Result<Dataset> operator()(const PoissonSpec& s) const {
      return GeneratePoisson(s, rng);
    }
    Result<Dataset> operator()(const CorrelatedSpec& s) const {
      return GenerateCorrelated(s, rng);
    }
    Result<Dataset> operator()(const DiscreteSpec& s) const {
      return GenerateDiscrete(s, rng);
    }
  };
  return std::visit(Classic{rng}, spec);
}

Result<Dataset> GenerateChunkKeyed(const GeneratorSpec& spec,
                                   std::uint64_t seed) {
  HDLDP_ASSIGN_OR_RETURN(GeneratorChunkSource source,
                         GeneratorChunkSource::Create(spec, seed));
  HDLDP_ASSIGN_OR_RETURN(
      Dataset out, Dataset::Create(source.num_users(), source.num_dims()));
  // Materialize through the exact streaming path, so eager and streaming
  // chunk-keyed data are bit-identical by construction.
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(c, &buffer));
    HDLDP_RETURN_NOT_OK(out.FillRows(source.ChunkBegin(c), rows));
  }
  return out;
}

}  // namespace data
}  // namespace hdldp
