// data::ChunkSource — the streaming data-source abstraction that feeds
// the estimation engine chunk-by-chunk.
//
// The engine's unit of work (and of determinism) is a fixed block of
// kUsersPerChunk users; a ChunkSource delivers exactly those blocks by
// chunk index, so a population never has to exist as one resident
// n x d allocation. Three families of sources implement the interface:
//
//   * ResidentChunkSource  (this header)  — zero-copy spans into an
//     in-memory data::Dataset; the adapter that keeps every existing
//     Dataset-based entry point working unchanged.
//   * ShardFileSource      (data/shard.h) — mmap-windowed reader of the
//     on-disk shard format, for populations larger than RAM.
//   * GeneratorChunkSource (data/generator_source.h) — synthesizes each
//     chunk on demand from (spec, seed, chunk), so synthetic benches can
//     run n = 10^8 without a 400 GB resident set.
//
// Thread-safety contract: Chunk() must be safe to call concurrently from
// many worker threads, provided each caller passes its own ChunkBuffer.
// The returned span is valid until the next Chunk() call with the same
// buffer (or the buffer's destruction) — exactly the lifetime of one
// engine chunk body. Sources are logically const while being read.
//
// Determinism contract: chunk identity, not storage, is the unit of
// determinism. For the same logical values, estimates are bit-identical
// whether the rows arrive resident, from disk shards, or from a
// streaming generator — the engine derives all random streams from
// (seed, chunk) and never from how a chunk was delivered.

#ifndef HDLDP_DATA_CHUNK_SOURCE_H_
#define HDLDP_DATA_CHUNK_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "data/dataset.h"

namespace hdldp {
namespace data {

/// Users per chunk — the engine's scheduling AND determinism unit.
/// engine::kUsersPerChunk aliases this constant; the shard file format
/// records it in every header, so on-disk data can never silently
/// disagree with the engine geometry.
inline constexpr std::size_t kUsersPerChunk = 4096;

/// \brief Per-worker scratch a ChunkSource may fill or map into when it
/// cannot return a zero-copy view. One instance per concurrent reader;
/// reusing it across pulls is what keeps streaming reads allocation- and
/// mapping-bounded. Movable, not copyable (it may own an mmap window).
class ChunkBuffer {
 public:
  ChunkBuffer() = default;
  ~ChunkBuffer();
  ChunkBuffer(const ChunkBuffer&) = delete;
  ChunkBuffer& operator=(const ChunkBuffer&) = delete;
  ChunkBuffer(ChunkBuffer&& other) noexcept;
  ChunkBuffer& operator=(ChunkBuffer&& other) noexcept;

  /// Fill storage for copying/synthesizing sources.
  std::vector<double>& storage() { return storage_; }

  /// \brief Adopts a new mapped window (munmap'ing any previous one);
  /// pass nullptr/0 to just release. Used by mmap-backed sources so the
  /// live mapped footprint per reader is one chunk window, never a whole
  /// shard file.
  void AdoptWindow(void* addr, std::size_t len);

  /// \brief Scratch for a wrapped source's own pull, so adapter sources
  /// (slices, transforms) can pull from their base without clobbering
  /// the buffer they are filling. Created lazily.
  ChunkBuffer* nested();

 private:
  std::vector<double> storage_;
  void* window_addr_ = nullptr;
  std::size_t window_len_ = 0;
  std::unique_ptr<ChunkBuffer> nested_;
};

/// \brief Interface of a chunked row-block data source: n users x d
/// dimensions delivered as row-major blocks of kUsersPerChunk users.
class ChunkSource {
 public:
  virtual ~ChunkSource() = default;

  virtual std::size_t num_users() const = 0;
  virtual std::size_t num_dims() const = 0;

  /// Number of chunks: ceil(num_users / kUsersPerChunk).
  std::size_t num_chunks() const {
    return (num_users() + kUsersPerChunk - 1) / kUsersPerChunk;
  }
  /// First user of chunk c.
  std::size_t ChunkBegin(std::size_t chunk) const {
    return chunk * kUsersPerChunk;
  }
  /// Users in chunk c (kUsersPerChunk except possibly the last chunk).
  std::size_t ChunkUsers(std::size_t chunk) const {
    const std::size_t begin = ChunkBegin(chunk);
    const std::size_t n = num_users();
    return begin >= n ? 0 : std::min(kUsersPerChunk, n - begin);
  }

  /// Users outside the `quarantined` chunks: the population an estimate
  /// that skipped those chunks covers.
  std::size_t SurvivingUsers(std::span<const std::size_t> quarantined) const {
    std::size_t users = num_users();
    for (const std::size_t c : quarantined) users -= ChunkUsers(c);
    return users;
  }

  /// \brief Rows of chunk `chunk` — ChunkUsers(chunk) * num_dims()
  /// doubles, row-major. Thread-safe for concurrent pulls with distinct
  /// buffers; the span stays valid until the same buffer's next use.
  virtual Result<std::span<const double>> Chunk(std::size_t chunk,
                                                ChunkBuffer* buffer) const = 0;

  /// \brief Per-dimension mean (the paper's theta-bar) of every user.
  Result<std::vector<double>> TrueMean() const { return SurvivingMean({}); }

  /// \brief Per-dimension mean of the users outside the `quarantined`
  /// chunks (sorted ascending; never read): the ground truth of a run
  /// that skipped them. One streaming pass over the surviving chunks in
  /// order — per-column compensated sums see users in exactly the order
  /// Dataset::TrueMean visits them, so with nothing quarantined the
  /// result is bit-identical to the resident computation. Sources with a
  /// cheaper path (the resident adapter's memoized Dataset pass) or an
  /// unfaulted base (the fault injector) override.
  virtual Result<std::vector<double>> SurvivingMean(
      std::span<const std::size_t> quarantined) const;
};

/// \brief Zero-copy adapter over a resident Dataset (non-owning; the
/// dataset must outlive the source and stay unmutated while it is read).
class ResidentChunkSource final : public ChunkSource {
 public:
  explicit ResidentChunkSource(const Dataset* dataset) : dataset_(dataset) {}

  std::size_t num_users() const override { return dataset_->num_users(); }
  std::size_t num_dims() const override { return dataset_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;
  /// Without quarantined chunks, delegates to the dataset's memoized
  /// pass (same bits as streaming).
  Result<std::vector<double>> SurvivingMean(
      std::span<const std::size_t> quarantined) const override;

 private:
  const Dataset* dataset_;
};

/// \brief A contiguous user range [first_user, first_user + num_users) of
/// a base source, re-chunked from user 0 (non-owning). Slice chunks that
/// happen to align with base chunks forward the base span zero-copy;
/// unaligned ones gather from the (at most two) overlapping base chunks.
class SlicedChunkSource final : public ChunkSource {
 public:
  SlicedChunkSource(const ChunkSource* base, std::size_t first_user,
                    std::size_t num_users)
      : base_(base), first_user_(first_user), num_users_(num_users) {}

  std::size_t num_users() const override { return num_users_; }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  const ChunkSource* base_;
  std::size_t first_user_;
  std::size_t num_users_;
};

/// \brief Applies a pure per-value transform to a base source's rows
/// (non-owning). The transform must be deterministic — it becomes part
/// of the logical data, so the usual bit-identity contracts apply.
class TransformedChunkSource final : public ChunkSource {
 public:
  TransformedChunkSource(const ChunkSource* base,
                         std::function<double(double)> transform)
      : base_(base), transform_(std::move(transform)) {}

  std::size_t num_users() const override { return base_->num_users(); }
  std::size_t num_dims() const override { return base_->num_dims(); }
  Result<std::span<const double>> Chunk(std::size_t chunk,
                                        ChunkBuffer* buffer) const override;

 private:
  const ChunkSource* base_;
  std::function<double(double)> transform_;
};

/// \brief Copies rows [first_row, first_row + row_count) of `source` into
/// a flat row-major vector (row_count * num_dims doubles). For small
/// gathers — empirical-marginal sampling, debugging — not bulk reads.
Result<std::vector<double>> MaterializeRows(const ChunkSource& source,
                                            std::size_t first_row,
                                            std::size_t row_count);

/// \brief Pulls the chunks of `source` in order, serially, calling
/// visit(rows, users) for each until it returns false. Chunks listed in
/// `skipped` (sorted ascending: a run's quarantined chunks) are never
/// read, so reference passes over a quarantined run see exactly the
/// surviving users, in user order.
template <typename Visit>
Status ForEachSurvivingChunk(const ChunkSource& source,
                             std::span<const std::size_t> skipped,
                             Visit&& visit) {
  ChunkBuffer buffer;
  for (std::size_t c = 0; c < source.num_chunks(); ++c) {
    if (std::binary_search(skipped.begin(), skipped.end(), c)) continue;
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(c, &buffer));
    if (!visit(rows, source.ChunkUsers(c))) break;
  }
  return Status::OK();
}

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_CHUNK_SOURCE_H_
