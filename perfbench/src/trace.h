// Outside-in layer tracing for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around each call into
// a library layer's public functions (name, start, end, parent span,
// request id), kept in memory, summarized into per-layer self times and
// written out once at exit. A layer's self time is its span's duration
// minus the durations of its child spans. Single-threaded by design:
// the traced replicas run serially, so nesting is a plain stack.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness.h"

namespace perfbench {

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = UINT32_MAX;

  struct SpanRecord {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  /// Per-name totals over the spans of one request.
  struct LayerTime {
    double self_s = 0.0;
    double total_s = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Stable id of a span name (intern once, outside hot loops).
  std::uint32_t Intern(std::string_view name);

  /// Starts a new request: spans opened from now on carry its id.
  std::uint64_t BeginRequest() { return ++request_; }

  /// Opens a span under the innermost open span; returns its index.
  std::uint32_t Open(std::uint32_t name);
  /// Closes the innermost open span, which must be `span`.
  void Close(std::uint32_t span);

  /// Self and total time per span name over the spans of `request`.
  std::map<std::string, LayerTime> Layers(std::uint64_t request) const;

  /// Root-span duration of `request` minus the root's self time: the
  /// part of the request its layer spans account for.
  double CoveredSeconds(std::uint64_t request) const;
  /// Duration of the (first) root span of `request`.
  double RootSeconds(std::uint64_t request) const;

  /// Writes every span as one JSON line to `path`.
  hdldp::Status Write(const std::string& path) const;

 private:
  std::int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::vector<double> SelfSeconds() const;

  Clock::time_point epoch_;
  std::vector<std::string> names_;
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
  std::uint64_t request_ = 0;
};

/// RAII span; a no-op when `tracer` is null, so code shared between the
/// traced and untraced paths pays nothing for its spans untraced.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t name)
      : tracer_(tracer), index_(tracer ? tracer->Open(name) : 0) {}
  ~Span() {
    if (tracer_) tracer_->Close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
