// Pieces shared by the two batch workloads: the span names of the
// traced replicas, a fold wrapper that times every aggregator call, a
// serial replica of the engine's two-level chunk reduction, and the
// loop that reads layer times off the traced replica requests.

#ifndef PERFBENCH_BATCH_COMMON_H_
#define PERFBENCH_BATCH_COMMON_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "engine/reduce.h"
#include "harness.h"
#include "protocol/aggregator.h"
#include "trace.h"

namespace perfbench {

/// Interned span names of a batch request (all 0 when untraced).
struct BatchSpans {
  explicit BatchSpans(Tracer* tracer) {
    if (tracer == nullptr) return;
    request = tracer->Intern("request");
    setup = tracer->Intern("protocol.client_setup");
    chunk = tracer->Intern("engine.chunk");
    chunk_pull = tracer->Intern("data.chunk_pull");
    sampled_chunk = tracer->Intern("engine.sampled_chunk");
    dense_chunk = tracer->Intern("engine.dense_chunk");
    encode = tracer->Intern("freq.one_hot_fill");
    fold = tracer->Intern("protocol.fold");
    merge = tracer->Intern("protocol.merge");
    true_mean = tracer->Intern("data.true_mean");
    true_frequencies = tracer->Intern("freq.true_frequencies");
    materialize = tracer->Intern("data.materialize_rows");
    model = tracer->Intern("framework.model_deviation");
    recalibrate = tracer->Intern("hdr4me.recalibrate");
    finalize = tracer->Intern("protocol.finalize");
  }
  std::uint32_t request = 0, setup = 0, chunk = 0, chunk_pull = 0,
                sampled_chunk = 0, dense_chunk = 0, encode = 0, fold = 0,
                merge = 0, true_mean = 0, true_frequencies = 0,
                materialize = 0, model = 0, recalibrate = 0, finalize = 0;
};

/// \brief Aggregator stand-in for the engine's chunk drivers: forwards
/// every fold to a MeanAggregator inside a `protocol.fold` span and
/// counts the folded entries.
class TracedFold {
 public:
  TracedFold(hdldp::protocol::MeanAggregator* inner, Tracer* tracer,
             std::uint32_t span, std::uint64_t* entries)
      : inner_(inner), tracer_(tracer), span_(span), entries_(entries) {}

  hdldp::Status ConsumeScattered(std::span<const std::uint32_t> dims,
                                 std::span<const double> values) {
    const Span span(tracer_, span_);
    *entries_ += values.size();
    return inner_->ConsumeScattered(dims, values);
  }
  hdldp::Status ConsumeBatch(std::span<const std::uint32_t> dims,
                             std::span<const double> values) {
    const Span span(tracer_, span_);
    *entries_ += values.size();
    return inner_->ConsumeBatch(dims, values);
  }
  hdldp::Status ConsumeDense(std::span<const double> values) {
    const Span span(tracer_, span_);
    *entries_ += values.size();
    return inner_->ConsumeDense(values);
  }

 private:
  hdldp::protocol::MeanAggregator* inner_;
  Tracer* tracer_;
  std::uint32_t span_;
  std::uint64_t* entries_;
};

/// \brief Serial replica of engine::ReduceChunks: the same group
/// geometry and merge order, so the result is bit-identical to the
/// library's at any thread count. `make_acc` is `() -> Result<Acc>`,
/// `body` is `(chunk, Acc*) -> Status`; each chunk runs inside an
/// `engine.chunk` span and every merge inside a `protocol.merge` span.
template <typename MakeAcc, typename Body>
hdldp::Result<hdldp::protocol::MeanAggregator> ReplicaReduce(
    std::size_t num_chunks, MakeAcc&& make_acc, Body&& body, Tracer* tracer,
    const BatchSpans& spans) {
  using hdldp::protocol::MeanAggregator;
  HDLDP_ASSIGN_OR_RETURN(MeanAggregator global, make_acc());
  const hdldp::engine::ReductionGeometry geometry =
      hdldp::engine::GroupGeometry(num_chunks);
  std::vector<MeanAggregator> locals;
  locals.reserve(geometry.num_groups);
  for (std::size_t g = 0; g < geometry.num_groups; ++g) {
    HDLDP_ASSIGN_OR_RETURN(MeanAggregator local, make_acc());
    locals.push_back(std::move(local));
  }
  for (std::size_t g = 0; g < geometry.num_groups; ++g) {
    HDLDP_ASSIGN_OR_RETURN(MeanAggregator scratch, make_acc());
    const std::size_t begin = g * geometry.group_size;
    const std::size_t end = std::min(num_chunks, begin + geometry.group_size);
    for (std::size_t c = begin; c < end; ++c) {
      {
        const Span span(tracer, spans.chunk);
        scratch.Reset();
        HDLDP_RETURN_NOT_OK(body(c, &scratch));
      }
      const Span span(tracer, spans.merge);
      HDLDP_RETURN_NOT_OK(locals[g].Merge(scratch));
    }
  }
  const Span span(tracer, spans.merge);
  for (const MeanAggregator& local : locals) {
    HDLDP_RETURN_NOT_OK(global.Merge(local));
  }
  return global;
}

/// Median untraced library latency at 1 thread and at N threads.
struct ThreadLatency {
  double one_thread_s = 0.0;
  double n_threads_s = 0.0;
};

/// \brief After `warmup` requests at `threads` workers, times three
/// 1-thread and three `threads`-worker requests. `run(threads,
/// &seconds) -> Status` runs (and checks) one untraced library request.
template <typename Run>
hdldp::Result<ThreadLatency> MeasureThreadLatency(std::size_t warmup,
                                                  std::size_t threads,
                                                  Run&& run, Report* report) {
  double seconds = 0.0;
  for (std::size_t i = 0; i < warmup; ++i) {
    HDLDP_RETURN_NOT_OK(run(threads, &seconds));
  }
  std::vector<double> one_thread_s, n_threads_s;
  for (std::size_t i = 0; i < 3; ++i) {
    HDLDP_RETURN_NOT_OK(run(1, &seconds));
    one_thread_s.push_back(seconds);
  }
  for (std::size_t i = 0; i < 3; ++i) {
    HDLDP_RETURN_NOT_OK(run(threads, &seconds));
    n_threads_s.push_back(seconds);
  }
  report->Samples("one_thread_s", one_thread_s, 0);
  report->Samples("n_threads_s", n_threads_s, 0);
  return ThreadLatency{Median(one_thread_s), Median(n_threads_s)};
}

/// \brief Fails the run unless `coverage` -- the traced replica's summed
/// layer time over the untraced 1-thread library latency -- lies in
/// [low, high]. The layer rows time the benchmark's serial copy of the
/// pipeline, which is bit-checked against the library; this check is
/// what catches the copy timing a layout the library no longer runs
/// (a pass folded away, work moved between layers) while the bits stay
/// the same.
inline void CheckCoverage(Report* report, const char* workload,
                          double coverage, double low, double high) {
  report->Check(coverage >= low && coverage <= high,
                std::string(workload) +
                    ": traced replica time matches the library latency "
                    "(trace.coverage in band)");
}

/// Per-request layer times read off the traced replica requests.
struct ReplicaLayers {
  std::vector<double> chunk_pull_s, chunk_s, fold_s, merge_s, truth_s,
      recalibrate_s, covered_s;
  /// Per kept iteration: covered_s over the 1-thread library latency
  /// measured right before it, so a drift in host speed over the run
  /// cancels out of the ratio.
  std::vector<double> coverage;
  std::uint64_t folded_per_request = 0;
  std::map<std::string, std::vector<double>> self_ms;
};

/// \brief Runs iterations for `seconds` (one warm-up, at least three
/// kept), each an untraced 1-thread library request followed by a traced
/// replica request, and collects each kept replica's layer times.
/// `library(&seconds) -> Status` runs and checks the library request;
/// `request(folded) -> Status` runs one replica request inside a new
/// tracer request and checks it; `chunk_span` and `truth_span` name the
/// workload's chunk-driver and ground-truth spans.
template <typename Library, typename Request>
hdldp::Status TraceReplica(double seconds, Tracer* tracer,
                           const char* chunk_span, const char* truth_span,
                           Library&& library, Request&& request,
                           Report* report, ReplicaLayers* out) {
  HDLDP_RETURN_NOT_OK(RepeatFor(
      seconds, 1, 3, [&](bool is_warmup) -> hdldp::Status {
        double library_s = 0.0;
        HDLDP_RETURN_NOT_OK(library(&library_s));
        const std::uint64_t id = tracer->BeginRequest();
        std::uint64_t folded = 0;
        HDLDP_RETURN_NOT_OK(request(&folded));
        if (is_warmup) return hdldp::Status::OK();
        out->folded_per_request = folded;
        const auto layers = tracer->Layers(id);
        const auto total = [&](const char* name) {
          const auto it = layers.find(name);
          return it == layers.end() ? 0.0 : it->second.total_s;
        };
        for (const auto& [name, layer] : layers) {
          out->self_ms[name].push_back(1e3 * layer.self_s);
        }
        out->chunk_pull_s.push_back(total("data.chunk_pull"));
        out->chunk_s.push_back(total(chunk_span));
        out->fold_s.push_back(total("protocol.fold"));
        out->merge_s.push_back(total("protocol.merge"));
        out->truth_s.push_back(total(truth_span));
        out->recalibrate_s.push_back(total("framework.model_deviation") +
                                     total("hdr4me.recalibrate"));
        out->covered_s.push_back(tracer->CoveredSeconds(id));
        out->coverage.push_back(out->covered_s.back() / library_s);
        return hdldp::Status::OK();
      }));
  for (const auto& [name, values] : out->self_ms) {
    report->Samples("self_ms." + name, values, 0);
  }
  report->Samples("trace.covered_s", out->covered_s, 0);
  report->Samples("trace.coverage", out->coverage, 0);
  return hdldp::Status::OK();
}

}  // namespace perfbench

#endif  // PERFBENCH_BATCH_COMMON_H_
