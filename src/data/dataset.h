// In-memory numerical dataset: n users (rows) x d dimensions (columns).
//
// Matches the paper's data model (Section III-B): every user holds a
// d-dimensional numerical tuple and every dimension is normalized into
// [-1, 1] before perturbation. Row-major storage keeps the client-side
// perturbation loop (iterate users, touch m sampled dimensions) cache
// friendly.

#ifndef HDLDP_DATA_DATASET_H_
#define HDLDP_DATA_DATASET_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/result.h"
#include "common/rng.h"

namespace hdldp {
namespace data {

/// \brief Dense row-major matrix of user tuples.
class Dataset {
 public:
  /// Creates a zero-filled dataset with `num_users` rows and
  /// `num_dims` columns. Both must be positive.
  static Result<Dataset> Create(std::size_t num_users, std::size_t num_dims);

  std::size_t num_users() const { return num_users_; }
  std::size_t num_dims() const { return num_dims_; }

  /// Value of user i in dimension j (unchecked in release builds).
  double At(std::size_t i, std::size_t j) const {
    return values_[i * num_dims_ + j];
  }
  /// Sets the value of user i in dimension j.
  void Set(std::size_t i, std::size_t j, double v) {
    ++version_;
    values_[i * num_dims_ + j] = v;
  }

  /// User i's full tuple.
  std::span<const double> Row(std::size_t i) const {
    return {values_.data() + i * num_dims_, num_dims_};
  }
  /// \brief Contiguous block of `count` whole rows starting at user i
  /// (row-major, so the block is flat). Backs ResidentChunkSource's
  /// zero-copy chunks. Requires i + count <= num_users().
  std::span<const double> Rows(std::size_t i, std::size_t count) const {
    return {values_.data() + i * num_dims_, count * num_dims_};
  }
  /// \brief Bulk row store: copies `values` (a whole number of rows,
  /// row-major) over rows [first_row, first_row + values.size()/d). One
  /// version bump per call, so bulk writers (generators, chunk
  /// materialization) pay O(1) invalidation instead of O(values).
  Status FillRows(std::size_t first_row, std::span<const double> values);

  /// \brief Mutable view of user i's tuple. Invalidates the TrueMean
  /// memo at handout — but writes through the span are invisible to the
  /// version counter, so a TrueMean() memoized while a span is live can
  /// go stale. Debug builds poison this: TrueMean() asserts no span is
  /// outstanding; call CommitMutableRows() when writing is done. Prefer
  /// FillRows for bulk writes.
  std::span<double> MutableRow(std::size_t i) {
    ++version_;
#ifndef NDEBUG
    mutable_row_outstanding_ = true;
#endif
    return {values_.data() + i * num_dims_, num_dims_};
  }

  /// \brief Declares every span handed out by MutableRow dead: writes
  /// are finished and reads are safe again. Invalidates the memo (the
  /// writes it covers bypassed the version counter).
  void CommitMutableRows() {
    ++version_;
#ifndef NDEBUG
    mutable_row_outstanding_ = false;
#endif
  }

  // The TrueMean memo below makes copies/moves non-trivial (an atomic
  // member has no implicit copy): copies duplicate the matrix and adopt
  // the source's cache snapshot, mutation replaces only this object's
  // snapshot.
  // A copy never carries the poison flag: outstanding MutableRow spans
  // point into the source's buffer, not the copy's. Moves carry it — the
  // buffer (and any spans into it) moves along.
  Dataset(const Dataset& other)
      : num_users_(other.num_users_),
        num_dims_(other.num_dims_),
        values_(other.values_),
        version_(other.version_),
        mean_cache_(other.mean_cache_.load(std::memory_order_acquire)) {}
  Dataset& operator=(const Dataset& other) {
    if (this != &other) {
      num_users_ = other.num_users_;
      num_dims_ = other.num_dims_;
      values_ = other.values_;
      version_ = other.version_;
      mutable_row_outstanding_ = false;
      mean_cache_.store(other.mean_cache_.load(std::memory_order_acquire),
                        std::memory_order_release);
    }
    return *this;
  }
  Dataset(Dataset&& other) noexcept
      : num_users_(other.num_users_),
        num_dims_(other.num_dims_),
        values_(std::move(other.values_)),
        version_(other.version_),
        mutable_row_outstanding_(other.mutable_row_outstanding_),
        mean_cache_(other.mean_cache_.load(std::memory_order_acquire)) {}
  Dataset& operator=(Dataset&& other) noexcept {
    if (this != &other) {
      num_users_ = other.num_users_;
      num_dims_ = other.num_dims_;
      values_ = std::move(other.values_);
      version_ = other.version_;
      mutable_row_outstanding_ = other.mutable_row_outstanding_;
      mean_cache_.store(other.mean_cache_.load(std::memory_order_acquire),
                        std::memory_order_release);
    }
    return *this;
  }

  /// \brief Per-dimension true mean, the paper's theta-bar. Memoized:
  /// the first call after a mutation pays the pass over the matrix,
  /// later calls return the cached column means — experiment loops call
  /// this once per pipeline run on the same dataset, where the pass was
  /// a fixed ~40% of a sampled run's wall time. The cached values are
  /// the exact bits of the uncached computation (same compensated
  /// per-column sums in user order). Safe under concurrent const access
  /// (trial-parallel benches share one dataset): the memo is published
  /// through an atomic shared_ptr, and a lost race merely recomputes
  /// identical values. Mutators invalidate by bumping this object's
  /// version, never touching other copies.
  std::vector<double> TrueMean() const;

  /// \brief Per-dimension [min, max].
  void DimensionRange(std::size_t j, double* min_out, double* max_out) const;

  /// \brief Min-max normalizes every dimension onto [-1, 1] (paper
  /// Section VI: "each dimension is normalized into [-1, 1]").
  /// Constant dimensions map to 0.
  void NormalizeDimensions();

  /// \brief Clamps every value into [lo, hi].
  void ClampValues(double lo, double hi);

  /// \brief New dataset with `new_num_dims` columns sampled uniformly with
  /// replacement from this dataset's columns (the paper's Figure 5 recipe
  /// for dimensionalities larger than the source data).
  Result<Dataset> ResampleDimensions(std::size_t new_num_dims,
                                     Rng* rng) const;

  /// \brief New dataset keeping only the first `new_num_users` rows.
  Result<Dataset> TruncateUsers(std::size_t new_num_users) const;

 private:
  Dataset(std::size_t num_users, std::size_t num_dims);

  struct MeanCache {
    std::uint64_t version = 0;
    std::vector<double> mean;
  };

  std::size_t num_users_;
  std::size_t num_dims_;
  std::vector<double> values_;
  // Mutation counter backing the TrueMean memo: bumping it is all a hot
  // mutator (Set runs once per generated value) pays for invalidation.
  std::uint64_t version_ = 0;
  // Debug poison (see MutableRow): true while a handed-out mutable span
  // may still receive writes the version counter cannot see.
  bool mutable_row_outstanding_ = false;
  mutable std::atomic<std::shared_ptr<const MeanCache>> mean_cache_{};
};

}  // namespace data
}  // namespace hdldp

#endif  // HDLDP_DATA_DATASET_H_
