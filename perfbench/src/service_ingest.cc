// W3 `service-ingest`: the online aggregation service ingesting 2M mean
// reports (d = 16, m = 4, 64 tenants, 250 event-time ticks, width-2
// windows, 5 % retransmits and 5 % reorders, no drops). Every envelope
// is generated and encoded into one contiguous arena during set-up, so
// the timed loop only calls Submit, AdvanceWatermark, SaveSnapshot and
// Drain: one producer feeding two workers under block overload. Loads
// envelope and payload decode, dedup, fold, seal/publish and snapshot
// writes; no engine or data layer runs.

#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "protocol/wire.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using hdldp::Result;
using hdldp::Status;
using hdldp::StatusCode;
namespace protocol = hdldp::protocol;
namespace service = hdldp::service;

struct ServiceShape {
  std::uint64_t reports = 2'000'000;
  std::size_t dims = 16;
  std::size_t report_dims = 4;
  std::uint64_t tenants = 64;
  // 250 ticks: the watermark advances ~250 times per pass and every
  // second advance seals a pane and publishes a window (>= 100 per pass).
  std::uint64_t ticks = 250;
  std::uint64_t snapshot_every_ticks = 20;
  std::size_t workers = 2;
};

// All envelopes of one stream, back to back, with the watermark schedule
// the driver follows.
struct Arena {
  std::vector<std::uint8_t> bytes;
  std::vector<std::uint64_t> offsets;  // envelopes + 1 entries
  // Watermark to advance to right after submitting envelope k (0 = none):
  // the smallest tick any later envelope carries, so no report is ever
  // late whatever the reorders.
  std::vector<std::uint64_t> advance_to;
  std::uint64_t duplicates = 0;

  std::size_t size() const { return offsets.size() - 1; }
  std::span<const std::uint8_t> Envelope(std::size_t k) const {
    return std::span<const std::uint8_t>(bytes).subspan(
        offsets[k], offsets[k + 1] - offsets[k]);
  }
};

service::ReportStreamOptions StreamOptions(const ServiceShape& shape,
                                           std::uint64_t seed) {
  service::ReportStreamOptions options;
  options.mechanism = "piecewise";
  options.num_reports = shape.reports;
  options.num_dims = shape.dims;
  options.report_dims = shape.report_dims;
  options.epsilon = 1.0;
  options.num_tenants = shape.tenants;
  options.seed = seed;
  options.reports_per_tick = shape.reports / shape.ticks;
  options.faults.duplicate_rate = 0.05;
  options.faults.reorder_rate = 0.05;
  options.fault_seed = seed ^ 0xFA17ull;
  return options;
}

// Set-up: generate and encode the stream into `arena`, and derive the
// service configuration matching it.
Status BuildArena(const ServiceShape& shape, std::uint64_t seed, Arena* arena,
                  service::ServiceOptions* service_options,
                  double* generate_s) {
  HDLDP_ASSIGN_OR_RETURN(service::ReportStream stream,
                         service::ReportStream::Create(
                             StreamOptions(shape, seed)));
  arena->bytes.clear();
  arena->offsets.assign(1, 0);
  std::vector<std::uint8_t> envelope;
  const Clock::time_point start = Clock::now();
  for (;;) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(stream.Next(&envelope, &done));
    if (done) break;
    arena->bytes.insert(arena->bytes.end(), envelope.begin(), envelope.end());
    arena->offsets.push_back(arena->bytes.size());
  }
  *generate_s = SecondsSince(start);
  arena->duplicates = stream.duplicated();

  const std::size_t n = arena->size();
  std::vector<std::uint64_t> ticks(n);
  for (std::size_t k = 0; k < n; ++k) {
    HDLDP_ASSIGN_OR_RETURN(const protocol::ReportEnvelope envelope,
                           protocol::DecodeEnvelope(arena->Envelope(k)));
    ticks[k] = envelope.tick;
  }
  arena->advance_to.assign(n, 0);
  std::uint64_t later_min = UINT64_MAX;
  std::uint64_t advanced = 0;
  std::vector<std::uint64_t> suffix_min(n);
  for (std::size_t k = n; k-- > 0;) {
    suffix_min[k] = later_min;
    later_min = std::min(later_min, ticks[k]);
  }
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (suffix_min[k] > advanced) {
      advanced = suffix_min[k];
      arena->advance_to[k] = advanced;
    }
  }

  service::ServiceOptions& options = *service_options;
  options = service::ServiceOptions{};
  options.num_dims = stream.service_dims();
  options.domain_map = stream.domain_map();
  options.expected_entries = stream.expected_entries();
  options.output_lo = stream.output_lo();
  options.output_hi = stream.output_hi();
  options.codec = stream.CodecOptions();
  options.window.width = 2;
  options.window.lateness = 1;
  options.overload = service::OverloadPolicy::kBlock;
  options.digest_tag = "perfbench-service-ingest";
  return Status::OK();
}

struct PassResult {
  double seconds = 0.0;
  double submit_s = 0.0;  // Producer time inside Submit (when timed).
  // AdvanceWatermark calls that published a window: the service's
  // requests, timed from the call to the published window.
  std::vector<double> publish_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> snapshot_bytes;
  service::ServiceStats stats;
  bool reconciled = false;
  std::uint64_t digest = 0;
};

struct ServiceSpans {
  explicit ServiceSpans(Tracer* tracer) {
    if (tracer == nullptr) return;
    pass = tracer->Intern("service.pass");
    advance = tracer->Intern("service.advance_watermark");
    snapshot = tracer->Intern("service.save_snapshot");
    drain = tracer->Intern("service.drain");
  }
  std::uint32_t pass = 0, advance = 0, snapshot = 0, drain = 0;
};

// FNV-1a over every published window's index, count and estimate bits.
std::uint64_t WindowDigest(const std::vector<service::PublishedWindow>& ws) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h = (h ^ p[i]) * 0x100000001b3ull;
    }
  };
  for (const service::PublishedWindow& w : ws) {
    mix(&w.index, sizeof(w.index));
    mix(&w.report_count, sizeof(w.report_count));
    mix(w.estimate.data(), w.estimate.size() * sizeof(double));
  }
  return h;
}

std::uint64_t FileBytes(const std::string& path) {
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

// One pass of the whole arena through a fresh service instance.
Status RunPass(const Arena& arena, service::ServiceOptions options,
               const ServiceShape& shape, std::size_t workers,
               const std::string& checkpoint, bool time_submits,
               Tracer* tracer, const ServiceSpans& spans,
               PassResult* out) {
  options.num_workers = workers;
  options.checkpoint_path = checkpoint;
  RemoveAll(checkpoint);
  HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<service::AggregationService> svc,
                         service::AggregationService::Create(options));
  std::uint64_t published = 0;
  const Clock::time_point start = Clock::now();
  {
    const Span root(tracer, spans.pass);
    for (std::size_t k = 0; k < arena.size(); ++k) {
      Status status;
      if (time_submits) {
        const Clock::time_point t = Clock::now();
        status = svc->Submit(arena.Envelope(k));
        out->submit_s += SecondsSince(t);
      } else {
        status = svc->Submit(arena.Envelope(k));
      }
      if (!status.ok() && status.code() != StatusCode::kUnavailable) {
        return status;  // Shed reports surface in Stats() instead.
      }
      const std::uint64_t watermark = arena.advance_to[k];
      if (watermark == 0) continue;
      {
        const Span span(tracer, spans.advance);
        const Clock::time_point t = Clock::now();
        HDLDP_RETURN_NOT_OK(svc->AdvanceWatermark(watermark));
        const double ms = 1e3 * SecondsSince(t);
        const std::uint64_t windows = svc->Stats().published_windows;
        if (windows > published) out->publish_ms.push_back(ms);
        published = windows;
      }
      if (watermark % shape.snapshot_every_ticks == 0) {
        const Span span(tracer, spans.snapshot);
        const std::uint64_t before = FileBytes(checkpoint);
        const Clock::time_point t = Clock::now();
        HDLDP_RETURN_NOT_OK(svc->SaveSnapshot(k + 1));
        out->snapshot_ms.push_back(1e3 * SecondsSince(t));
        out->snapshot_bytes.push_back(
            static_cast<double>(FileBytes(checkpoint) - before));
      }
    }
    const Span span(tracer, spans.drain);
    HDLDP_RETURN_NOT_OK(svc->Drain());
  }
  out->seconds = SecondsSince(start);
  out->reconciled = svc->VerifyReconciliation().ok();
  out->stats = svc->Stats();
  out->digest = WindowDigest(svc->PublishedWindows());
  HDLDP_RETURN_NOT_OK(svc->Finish());
  svc.reset();
  RemoveAll(checkpoint);
  return Status::OK();
}

// Counts the pass's reports as operations and checks its ledger.
void CheckPass(const PassResult& pass, const Arena& arena,
               const ServiceShape& shape, std::uint64_t reference_digest,
               const std::string& label, Report* report) {
  const service::ServiceStats& s = pass.stats;
  report->Operations(s.submitted, s.submitted - s.accepted - s.deduped);
  report->Check(pass.reconciled, label + ": VerifyReconciliation passes");
  report->Check(s.submitted == arena.size(),
                label + ": every envelope was submitted");
  report->Check(s.accepted == shape.reports,
                label + ": accepted = logical reports");
  report->Check(s.deduped == arena.duplicates,
                label + ": deduped = retransmitted copies");
  report->Check(s.shed_queue_full + s.shed_late + s.shed_quarantined +
                        s.rejected_malformed + s.rejected_invalid +
                        s.rejected_budget ==
                    0,
                label + ": nothing shed or rejected");
  report->Check(!s.degraded, label + ": no snapshot write failed");
  report->Check(pass.digest == reference_digest,
                label + ": published windows equal the 1-worker digest");
}

double AcceptedPerSecond(const PassResult& pass) {
  return static_cast<double>(pass.stats.accepted) / pass.seconds;
}

}  // namespace

Status RunServiceIngest(const RunContext& ctx) {
  const Options& options = *ctx.options;
  Report* report = ctx.report;
  MetricValues& metrics = *ctx.metrics;
  const ServiceShape shape;
  report->Meta("shape", "mean reports=" + std::to_string(shape.reports) +
                            " d=16 m=4 tenants=64 ticks=250 width=2 "
                            "dup=5% reorder=5% workers=2 block");

  // Set-up, repeated: generate + encode the arena, open the service.
  std::vector<double> setup_s;
  std::vector<double> generate_s;
  Arena arena;
  service::ServiceOptions service_options;
  for (std::size_t rep = 0; rep < kSetups; ++rep) {
    const Clock::time_point start = Clock::now();
    double generate = 0.0;
    HDLDP_RETURN_NOT_OK(BuildArena(shape, options.seed, &arena,
                                   &service_options, &generate));
    service::ServiceOptions open = service_options;
    open.num_workers = shape.workers;
    HDLDP_ASSIGN_OR_RETURN(std::unique_ptr<service::AggregationService> svc,
                           service::AggregationService::Create(open));
    svc.reset();
    setup_s.push_back(SecondsSince(start));
    generate_s.push_back(generate);
  }
  report->Samples("setup_s", setup_s, 0);
  report->Samples("generate_s", generate_s, 0);
  report->Meta("service.envelopes", static_cast<double>(arena.size()));
  report->Meta("service.arena_bytes", static_cast<double>(arena.bytes.size()));
  metrics["setup_s"] = Median(setup_s);
  metrics["service.generate_per_s"] =
      static_cast<double>(arena.size()) / Median(generate_s);

  const std::string checkpoint = ctx.scratch->Join("service.snapshot");
  const ServiceSpans no_spans(nullptr);

  // The 1-worker reference pass every other pass must reproduce.
  PassResult reference;
  HDLDP_RETURN_NOT_OK(RunPass(arena, service_options, shape, 1, checkpoint,
                              false, nullptr, no_spans, &reference));
  CheckPass(reference, arena, shape, reference.digest, "service 1 worker",
            report);

  if (ctx.tracer == nullptr) {
    // The 1-worker reference pass above is the warm-up: every 2-worker
    // pass is kept.
    std::vector<double> pass_rate;
    std::vector<std::vector<double>> pass_publish_ms;
    std::vector<double> steal;
    std::size_t pass_index = 0;
    HDLDP_RETURN_NOT_OK(RepeatFor(
        options.seconds, 0, 3, [&](bool) -> Status {
          const CpuTicks before = ReadCpuTicks();
          PassResult pass;
          HDLDP_RETURN_NOT_OK(RunPass(arena, service_options, shape,
                                      shape.workers, checkpoint, false,
                                      nullptr, no_spans, &pass));
          steal.push_back(StealFraction(before, ReadCpuTicks()));
          CheckPass(pass, arena, shape, reference.digest,
                    "service 2 workers", report);
          pass_rate.push_back(AcceptedPerSecond(pass));
          report->Samples("publish_ms.pass" + std::to_string(pass_index++),
                          pass.publish_ms, 0);
          pass_publish_ms.push_back(std::move(pass.publish_ms));
          return Status::OK();
        }));
    report->Samples("reports_per_s", pass_rate, 0);
    report->Samples("steal_frac", steal, 0);
    std::vector<double> publish_ms;
    for (const std::size_t i : QuietIterations(steal, 0)) {
      publish_ms.insert(publish_ms.end(), pass_publish_ms[i].begin(),
                        pass_publish_ms[i].end());
    }
    metrics["reports_per_s"] = QuietMedian(pass_rate, steal, 0);
    metrics["latency_p50_ms"] = Median(publish_ms);
    metrics["peak_rss_mb"] = PeakRssMiB();
    return Status::OK();
  }

  // Traced run. Decode layers, probed serially over the whole arena.
  std::vector<double> envelope_per_s, payload_per_s;
  for (int rep = 0; rep < 3; ++rep) {
    double envelope_s = 0.0, payload_s = 0.0;
    for (std::size_t k = 0; k < arena.size(); ++k) {
      Clock::time_point t = Clock::now();
      HDLDP_ASSIGN_OR_RETURN(const protocol::ReportEnvelope envelope,
                             protocol::DecodeEnvelope(arena.Envelope(k)));
      envelope_s += SecondsSince(t);
      t = Clock::now();
      HDLDP_ASSIGN_OR_RETURN(const protocol::UserReport payload,
                             protocol::DecodeReport(envelope.payload));
      payload_s += SecondsSince(t);
    }
    envelope_per_s.push_back(static_cast<double>(arena.size()) / envelope_s);
    payload_per_s.push_back(static_cast<double>(arena.size()) / payload_s);
  }
  report->Samples("decode_envelope_per_s", envelope_per_s, 0);
  report->Samples("decode_payload_per_s", payload_per_s, 0);

  // Worker scaling from untraced passes at 1 and 2 workers (after the
  // reference pass, which is the warm-up).
  std::vector<double> one_worker, two_workers;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{1},
                                    shape.workers, shape.workers}) {
    PassResult pass;
    HDLDP_RETURN_NOT_OK(RunPass(arena, service_options, shape, workers,
                                checkpoint, false, nullptr, no_spans, &pass));
    CheckPass(pass, arena, shape, reference.digest,
              "service " + std::to_string(workers) + " workers", report);
    (workers == 1 ? one_worker : two_workers)
        .push_back(AcceptedPerSecond(pass));
  }
  report->Samples("one_worker_reports_per_s", one_worker, 0);
  report->Samples("two_worker_reports_per_s", two_workers, 0);

  // Traced passes: Submit timed per call, spans around the driver calls.
  Tracer* tracer = ctx.tracer;
  const ServiceSpans spans(tracer);
  std::vector<double> busy, publish_ms, snapshot_ms, snapshot_bytes, coverage;
  std::map<std::string, std::vector<double>> self_ms;
  service::ServiceStats stats;
  HDLDP_RETURN_NOT_OK(RepeatFor(
      options.seconds, 0, 2, [&](bool) -> Status {
        const std::uint64_t request = tracer->BeginRequest();
        PassResult pass;
        HDLDP_RETURN_NOT_OK(RunPass(arena, service_options, shape,
                                    shape.workers, checkpoint, true, tracer,
                                    spans, &pass));
        CheckPass(pass, arena, shape, reference.digest,
                  "service 2 workers traced", report);
        busy.push_back(pass.submit_s / pass.seconds);
        publish_ms.insert(publish_ms.end(), pass.publish_ms.begin(),
                          pass.publish_ms.end());
        snapshot_ms.insert(snapshot_ms.end(), pass.snapshot_ms.begin(),
                           pass.snapshot_ms.end());
        snapshot_bytes.insert(snapshot_bytes.end(),
                              pass.snapshot_bytes.begin(),
                              pass.snapshot_bytes.end());
        // Driver-call spans plus the producer's Submit time, over the
        // pass's wall time.
        coverage.push_back((tracer->CoveredSeconds(request) + pass.submit_s) /
                           tracer->RootSeconds(request));
        for (const auto& [name, layer] : tracer->Layers(request)) {
          self_ms[name].push_back(1e3 * layer.self_s);
        }
        stats = pass.stats;
        return Status::OK();
      }));
  report->Samples("service.submit_busy_frac", busy, 0);
  report->Samples("service.publish_ms", publish_ms, 0);
  report->Samples("service.snapshot_ms", snapshot_ms, 0);
  report->Samples("trace.coverage", coverage, 0);
  for (const auto& [name, values] : self_ms) {
    report->Samples("self_ms." + name, values, 0);
  }

  metrics["protocol.decode_envelope_per_s"] = Median(envelope_per_s);
  metrics["service.decode_payload_per_s"] = Median(payload_per_s);
  metrics["service.submit_busy_frac"] = Median(busy);
  metrics["service.worker_scaling"] = Median(two_workers) / Median(one_worker);
  metrics["service.publish_p90_ms"] = Quantile(publish_ms, 0.9);
  metrics["service.snapshot_ms"] = Median(snapshot_ms);
  metrics["service.snapshot_bytes"] = Median(snapshot_bytes);
  metrics["service.accepted"] = static_cast<double>(stats.accepted);
  metrics["service.deduped"] = static_cast<double>(stats.deduped);
  metrics["trace.coverage"] = Median(coverage);
  return Status::OK();
}

}  // namespace perfbench
