#include "data/chunk_source.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/math.h"

namespace hdldp {
namespace data {

ChunkBuffer::~ChunkBuffer() { AdoptWindow(nullptr, 0); }

ChunkBuffer::ChunkBuffer(ChunkBuffer&& other) noexcept
    : storage_(std::move(other.storage_)),
      window_addr_(other.window_addr_),
      window_len_(other.window_len_),
      nested_(std::move(other.nested_)) {
  other.window_addr_ = nullptr;
  other.window_len_ = 0;
}

ChunkBuffer& ChunkBuffer::operator=(ChunkBuffer&& other) noexcept {
  if (this != &other) {
    AdoptWindow(nullptr, 0);
    storage_ = std::move(other.storage_);
    window_addr_ = other.window_addr_;
    window_len_ = other.window_len_;
    nested_ = std::move(other.nested_);
    other.window_addr_ = nullptr;
    other.window_len_ = 0;
  }
  return *this;
}

void ChunkBuffer::AdoptWindow(void* addr, std::size_t len) {
  if (window_addr_ != nullptr) ::munmap(window_addr_, window_len_);
  window_addr_ = addr;
  window_len_ = len;
}

ChunkBuffer* ChunkBuffer::nested() {
  if (nested_ == nullptr) nested_ = std::make_unique<ChunkBuffer>();
  return nested_.get();
}

namespace {

Status CheckChunkIndex(const ChunkSource& source, std::size_t chunk) {
  if (chunk >= source.num_chunks()) {
    return Status::OutOfRange("chunk index out of range");
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<double>> ChunkSource::SurvivingMean(
    std::span<const std::size_t> quarantined) const {
  const std::size_t d = num_dims();
  if (num_users() == 0 || d == 0) {
    return Status::FailedPrecondition("TrueMean requires a non-empty source");
  }
  const std::size_t n = SurvivingUsers(quarantined);
  if (n == 0) {
    return Status::FailedPrecondition(
        "every chunk was quarantined; no surviving users to estimate");
  }
  // Chunks in order means every column's compensated sum sees users in
  // exactly the order Dataset::TrueMean visits them — same bits.
  std::vector<NeumaierSum> sums(d);
  HDLDP_RETURN_NOT_OK(ForEachSurvivingChunk(
      *this, quarantined,
      [&](std::span<const double> rows, std::size_t users) {
        for (std::size_t i = 0; i < users; ++i) {
          const double* row = rows.data() + i * d;
          for (std::size_t j = 0; j < d; ++j) sums[j].Add(row[j]);
        }
        return true;
      }));
  std::vector<double> mean(d);
  for (std::size_t j = 0; j < d; ++j) {
    mean[j] = sums[j].Total() / static_cast<double>(n);
  }
  return mean;
}

Result<std::vector<double>> ResidentChunkSource::SurvivingMean(
    std::span<const std::size_t> quarantined) const {
  if (quarantined.empty()) return dataset_->TrueMean();
  return ChunkSource::SurvivingMean(quarantined);
}

Result<std::span<const double>> ResidentChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* /*buffer*/) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  return dataset_->Rows(ChunkBegin(chunk), ChunkUsers(chunk));
}

Result<std::span<const double>> SlicedChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  const std::size_t d = num_dims();
  const std::size_t users = ChunkUsers(chunk);
  const std::size_t global_begin = first_user_ + ChunkBegin(chunk);
  const std::size_t base_chunk = global_begin / kUsersPerChunk;
  const std::size_t offset_in_base = global_begin % kUsersPerChunk;
  if (offset_in_base + users <= base_->ChunkUsers(base_chunk)) {
    // Whole slice chunk lives inside one base chunk: forward a subspan of
    // the base pull (zero-copy when the base is).
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> base_rows,
                           base_->Chunk(base_chunk, buffer->nested()));
    return base_rows.subspan(offset_in_base * d, users * d);
  }
  // Unaligned slice spanning two base chunks: gather into storage. The
  // second pull reuses the nested buffer, so copy before re-pulling.
  std::vector<double>& out = buffer->storage();
  out.resize(users * d);
  const std::size_t first_part = base_->ChunkUsers(base_chunk) - offset_in_base;
  HDLDP_ASSIGN_OR_RETURN(std::span<const double> base_rows,
                         base_->Chunk(base_chunk, buffer->nested()));
  std::memcpy(out.data(), base_rows.data() + offset_in_base * d,
              first_part * d * sizeof(double));
  HDLDP_ASSIGN_OR_RETURN(base_rows,
                         base_->Chunk(base_chunk + 1, buffer->nested()));
  std::memcpy(out.data() + first_part * d, base_rows.data(),
              (users - first_part) * d * sizeof(double));
  return std::span<const double>(out.data(), out.size());
}

Result<std::span<const double>> TransformedChunkSource::Chunk(
    std::size_t chunk, ChunkBuffer* buffer) const {
  HDLDP_RETURN_NOT_OK(CheckChunkIndex(*this, chunk));
  HDLDP_ASSIGN_OR_RETURN(const std::span<const double> base_rows,
                         base_->Chunk(chunk, buffer->nested()));
  std::vector<double>& out = buffer->storage();
  out.resize(base_rows.size());
  for (std::size_t k = 0; k < base_rows.size(); ++k) {
    out[k] = transform_(base_rows[k]);
  }
  return std::span<const double>(out.data(), out.size());
}

Result<std::vector<double>> MaterializeRows(const ChunkSource& source,
                                            std::size_t first_row,
                                            std::size_t row_count) {
  const std::size_t d = source.num_dims();
  if (first_row + row_count > source.num_users()) {
    return Status::OutOfRange("MaterializeRows range exceeds num_users");
  }
  std::vector<double> out(row_count * d);
  ChunkBuffer buffer;
  std::size_t row = first_row;
  while (row < first_row + row_count) {
    const std::size_t chunk = row / kUsersPerChunk;
    const std::size_t offset = row % kUsersPerChunk;
    const std::size_t take = std::min(source.ChunkUsers(chunk) - offset,
                                      first_row + row_count - row);
    HDLDP_ASSIGN_OR_RETURN(const std::span<const double> rows,
                           source.Chunk(chunk, &buffer));
    std::memcpy(out.data() + (row - first_row) * d, rows.data() + offset * d,
                take * d * sizeof(double));
    row += take;
  }
  return out;
}

}  // namespace data
}  // namespace hdldp
