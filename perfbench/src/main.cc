// hdldp_perfbench: one run of one benchmark workload.
//
//   hdldp_perfbench --workload <mean-shard-sampled|freq-dense-resident|
//                               service-ingest>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--scratch-root <dir>] [--trace-dir <dir>]
//                   [--force-check-failure]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run (see workloads.h for both tables).
// Exit codes: 0 all checks passed, 1 a correctness check failed (the
// result line is still printed, with "correct": false), 2 usage or
// harness error (no result line).

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::MetricValues;

using WorkloadFn = hdldp::Status (*)(const perfbench::RunContext&);

WorkloadFn FindWorkload(const std::string& name) {
  if (name == "mean-shard-sampled") return perfbench::RunMeanShardSampled;
  if (name == "freq-dense-resident") return perfbench::RunFreqDenseResident;
  if (name == "service-ingest") return perfbench::RunServiceIngest;
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  hdldp::Result<perfbench::Options> parsed =
      perfbench::ParseOptions(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "hdldp_perfbench: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const perfbench::Options options = std::move(parsed).value();
  const WorkloadFn workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "hdldp_perfbench: unknown workload %s\n",
                 options.workload.c_str());
    return 2;
  }
  // First, while the process is still single-threaded: the bandwidth
  // probe forks a child.
  const double read_gbps = perfbench::ProbeReadBandwidthGBps();

  hdldp::Result<perfbench::ScratchDir> scratch =
      perfbench::ScratchDir::Create(options.scratch_root);
  if (!scratch.ok()) {
    std::fprintf(stderr, "hdldp_perfbench: %s\n",
                 scratch.status().ToString().c_str());
    return 2;
  }
  perfbench::Report report;
  perfbench::RecordMachine(options, scratch.value(), read_gbps, &report);
  MetricValues metrics;
  std::optional<perfbench::Tracer> tracer;
  if (options.trace) tracer.emplace();

  perfbench::RunContext ctx;
  ctx.options = &options;
  ctx.scratch = &scratch.value();
  ctx.report = &report;
  ctx.metrics = &metrics;
  ctx.tracer = tracer.has_value() ? &*tracer : nullptr;
  const hdldp::Status status = workload(ctx);
  report.Check(status.ok(), "workload ran to completion" +
                                (status.ok() ? std::string()
                                             : ": " + status.ToString()));
  if (options.force_check_failure) {
    report.Check(false, "forced check failure (--force-check-failure)");
  }

  if (options.trace) {
    metrics["bench.read_gbps"] = read_gbps;
    for (const perfbench::MetricSpec& spec : perfbench::kPerLayerMetrics) {
      const auto it = metrics.find(spec.name);
      report.Metric(spec.name, it == metrics.end() ? 0.0 : it->second,
                    spec.unit);
    }
    if (!options.trace_dir.empty()) {
      std::error_code ec;
      std::filesystem::create_directories(options.trace_dir, ec);
      // One file per workload and seed: a rerun overwrites its trace.
      const std::string path = options.trace_dir + "/" + options.workload +
                               "-seed" + std::to_string(options.seed) +
                               ".spans.jsonl";
      const hdldp::Status wrote = tracer->Write(path);
      report.Meta("trace_file", wrote.ok() ? path : wrote.ToString());
    }
  } else {
    for (const perfbench::MetricSpec& spec : perfbench::kEndToEndMetrics) {
      const auto it = metrics.find(spec.name);
      report.Check(it != metrics.end() && it->second > 0.0,
                   std::string("end-to-end metric ") + spec.name +
                       " was measured");
      report.Metric(spec.name, it == metrics.end() ? 0.0 : it->second,
                    spec.unit);
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
