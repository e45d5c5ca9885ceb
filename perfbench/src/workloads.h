// The benchmark's workloads and the metrics they report.
//
// Each workload fills a MetricValues map; main.cc emits the end-to-end
// table (tracing off) or the per-layer table (traced run) from it. A
// per-layer metric whose layer is not on a workload's path is emitted
// as 0 — e.g. the shard and CRC layers on the resident frequency
// workload, which is their "bypasses it" twin.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "harness.h"

namespace perfbench {

/// Set-ups per run; `setup_s` is their median.
inline constexpr std::size_t kSetups = 5;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Gated metrics of the untraced run (BENCHMARK.json `end_to_end`).
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"reports_per_s", "reports/s"},
    {"latency_p50_ms", "ms"},
    {"peak_rss_mb", "MiB"},
};

/// Layer metrics of the traced run (BENCHMARK.json `per_layer`).
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"data.chunk_pull_gbps", "GB/s"},
    {"common.crc32c_gbps", "GB/s"},
    {"data.shard_write_s", "s"},
    {"data.true_mean_ms", "ms"},
    {"freq.true_frequencies_ms", "ms"},
    {"common.sample_dims_per_s", "dims/s"},
    {"engine.sampled_chunk_per_s", "users/s"},
    {"engine.dense_chunk_per_s", "users/s"},
    {"mech.perturb_lanes_per_s", "values/s"},
    {"protocol.fold_per_s", "entries/s"},
    {"protocol.merge_ms", "ms"},
    {"hdr4me.recalibrate_ms", "ms"},
    {"engine.thread_scaling", "x"},
    {"protocol.decode_envelope_per_s", "envelopes/s"},
    {"service.decode_payload_per_s", "payloads/s"},
    {"service.submit_busy_frac", "fraction"},
    {"service.worker_scaling", "x"},
    {"service.publish_p90_ms", "ms"},
    {"service.snapshot_ms", "ms"},
    {"service.snapshot_bytes", "bytes"},
    {"service.accepted", "count"},
    {"service.deduped", "count"},
    {"service.generate_per_s", "reports/s"},
    {"trace.coverage", "ratio"},
    {"bench.read_gbps", "GB/s"},
};

using MetricValues = std::map<std::string, double>;

class Tracer;

/// Everything a workload needs from the harness.
struct RunContext {
  const Options* options = nullptr;
  const ScratchDir* scratch = nullptr;
  Report* report = nullptr;
  MetricValues* metrics = nullptr;
  /// Non-null only in the traced run.
  Tracer* tracer = nullptr;
};

/// W1: Gaussian d=128, m=8 piecewise mean over CRC-checked shard files.
hdldp::Status RunMeanShardSampled(const RunContext& ctx);
/// W2: 16 x 8 Zipf frequency estimate, every question reported, resident.
hdldp::Status RunFreqDenseResident(const RunContext& ctx);
/// W3: pre-encoded mean envelopes through the online service.
hdldp::Status RunServiceIngest(const RunContext& ctx);

/// True iff `a` and `b` hold the same doubles bit for bit.
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
