// Streaming synthetic data: chunk-keyed generation and the
// GeneratorChunkSource that synthesizes each chunk on demand.
//
// The classic generators (data/generators.h) draw one sequential random
// stream across the whole population, so producing chunk c requires
// producing chunks 0..c-1 first — fine resident, useless for streaming.
// Chunk-keyed generation re-keys the draws per chunk instead, and that
// re-keying is a recorded, frozen contract (an opt-in mode, not a silent
// change to the classic generators — their sequential streams are pinned
// by existing goldens):
//
//   * Population-level parameters (Poisson per-dimension expectations,
//     correlated factor loadings) are drawn once from
//     Rng(SplitMix64(seed ^ kGeneratorParamTag)), in the same order the
//     classic generators draw them.
//   * The rows of chunk c are drawn from a fresh
//     Rng(ChunkSeed(seed ^ kGeneratorRowTag, c)), user-major then
//     dimension-major, with exactly the per-value draw sequence of the
//     classic generator for that spec.
//   * Post-processing matches the Dataset methods bit-for-bit: Gaussian
//     clamps each value into [-1, 1]; Poisson/Correlated min-max
//     normalize per dimension with ranges computed over the whole
//     population (a streaming prepass — min/max are order-independent,
//     and the per-value map is the same expression
//     2*(v - lo)/width - 1 that Dataset::NormalizeDimensions applies).
//
// GenerateChunkKeyed (eager, returns a resident Dataset) and
// GeneratorChunkSource (streaming, synthesizes chunks on demand) share
// one chunk-fill core, so for the same (spec, seed) they are
// bit-identical — the golden tests pin both the contract's draw bits and
// resident-vs-streaming estimate equality.

#ifndef HDLDP_DATA_GENERATOR_SOURCE_H_
#define HDLDP_DATA_GENERATOR_SOURCE_H_

#include <cstdint>
#include <variant>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/dataset.h"
#include "data/generators.h"

namespace hdldp {
namespace data {

/// Domain-separation tags for the chunk-keyed generator contract
/// (frozen; changing either changes every chunk-keyed dataset).
inline constexpr std::uint64_t kGeneratorParamTag = 0x8f5c28f5c28f5c29ULL;
inline constexpr std::uint64_t kGeneratorRowTag = 0x6b43a9b5e4f71c02ULL;

/// Any synthetic dataset specification.
using GeneratorSpec = std::variant<UniformSpec, GaussianSpec, PoissonSpec,
                                   CorrelatedSpec, DiscreteSpec>;

/// \brief The classic sequential-stream generator of data/generators.h
/// for any spec: one `rng` stream across the whole population.
Result<Dataset> GenerateSequential(const GeneratorSpec& spec, Rng* rng);

/// \brief Eager chunk-keyed generation: a resident Dataset whose values
/// are bit-identical to what GeneratorChunkSource streams for the same
/// (spec, seed). This is the reference twin for golden tests and for
/// comparing in-memory runs against `generate`-then-`--input` runs.
Result<Dataset> GenerateChunkKeyed(const GeneratorSpec& spec,
                                   std::uint64_t seed);

/// \brief ChunkSource that synthesizes each chunk on demand from
/// (spec, seed, chunk) — n users cost O(chunk) memory, never O(n).
/// Create() validates the spec and runs the normalization prepass (for
/// min-max specs) so Chunk() is a pure deterministic fill; concurrent
/// pulls share only immutable state.
class GeneratorChunkSource final : public ChunkSource {
 public:
  static Result<GeneratorChunkSource> Create(const GeneratorSpec& spec,
                                             std::uint64_t seed);

  std::size_t num_users() const override { return num_users_; }
  std::size_t num_dims() const override { return num_dims_; }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  /// How raw draws are mapped into [-1, 1] after filling.
  enum class Post { kNone, kClamp, kMinMax };

  GeneratorChunkSource() = default;

  void FillRawChunk(std::size_t chunk, std::vector<double>* out) const;

  GeneratorSpec spec_;
  std::uint64_t seed_ = 0;
  std::size_t num_users_ = 0;
  std::size_t num_dims_ = 0;
  Post post_ = Post::kNone;
  // Population parameters drawn at Create (see the contract above).
  std::vector<double> lambdas_;   // Poisson: per-dimension expectations.
  std::vector<double> loadings_;  // Correlated: normalized factor loadings.
  std::vector<double> cdf_;       // Discrete: cumulative probabilities.
  // Min-max prepass results (Post::kMinMax only).
  std::vector<double> range_lo_;
  std::vector<double> range_width_;
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_GENERATOR_SOURCE_H_
