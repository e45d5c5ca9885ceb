// hdldp_cli: command-line front end for the hdldp library.
//
// Subcommands:
//
//   hdldp_cli mean    --mechanism=piecewise --dataset=gaussian
//                     --users=20000 --dims=128 --epsilon=0.5
//                     [--report-dims=0] [--seed=1] [--threads=1]
//                     [--seed-scheme=v3] [--recalibrate=both|l1|l2|none]
//                     [--gate] [--input=<shard-dir>] [--chunk-keyed]
//                     [--encoding=dense|sampled|hadamard1]
//       Runs the full mean-estimation protocol and prints naive and
//       HDR4ME-enhanced MSE. --encoding=hadamard1 runs the 1-bit
//       compact-report path (protocol/hadamard.h); oue/olh are
//       frequency encodings and are rejected here.
//
//   hdldp_cli freq    --mechanism=piecewise --users=20000 --questions=16
//                     --categories=8 [--zipf=1.0] [--epsilon=1]
//                     [--sampled=4] [--seed=1] [--threads=1]
//                     [--seed-scheme=v3] [--input=<shard-dir>]
//                     [--encoding=dense|sampled|oue|olh]
//       Runs the Section V-C frequency-estimation protocol.
//       --encoding=oue|olh runs the frequency-oracle path (one
//       categorical report per sampled dimension at eps/m);
//       hadamard1 is a mean encoding and is rejected here.
//
//   hdldp_cli generate --out=<shard-dir> --dataset=uniform
//                      --users=1000000 --dims=16 [--seed=1]
//                      [--chunks-per-file=1024]
//       Streams a chunk-keyed synthetic population into an on-disk
//       shard directory (data/shard.h) without ever materializing it;
//       --dataset=categorical (with --questions/--categories/--zipf)
//       writes category indices for the freq pipeline instead.
//
// Data-source flags shared by mean/freq/variance:
//   --input=<shard-dir>  estimate over an on-disk shard directory
//       (population size and dimensionality come from the shards; the
//       in-memory generator flags --dataset/--users/--dims are
//       rejected). Estimates are bit-identical to the same values
//       resident in memory.
//   --chunk-keyed        generate the in-memory population with the
//       chunk-keyed contract (data/generator_source.h) instead of the
//       classic sequential stream, so the run matches
//       `generate --seed=<same seed>` + `--input` bit for bit.
//
// Fault-tolerance flags shared by mean/freq/variance:
//   --checkpoint=<file>        persist per-group progress; re-running the
//       same command after a crash resumes from the file with
//       bit-identical final estimates (freq requires an engine seed
//       scheme, v2/v3). Variance checkpoints its two halves at
//       <file>.values and <file>.squares.
//   --max-attempts=N           total attempts per chunk on transient
//       (Unavailable) faults; 1 = no retry.
//   --backoff-ms=B             exponential backoff base: B << (k-1) ms
//       before retry k.
//   --max-total-backoff-ms=D   wall-clock retry budget per chunk: once D
//       ms have elapsed since the chunk's first failure, no further
//       retries (0 = unlimited).
//   --allow-missing-chunks     quarantine chunks that still fail after
//       retries instead of failing the run (the estimate then covers the
//       surviving users, and the run reports the quarantined chunks).
//   --fault-seed=S --fault-transient-rate=P --fault-persistent-rate=P
//   --fault-bitflip-rate=P --fault-failing-attempts=K
//       wrap the source in a deterministic fault injector
//       (data/fault_injection.h): same seed, same faults, at any thread
//       count. For testing the machinery above, including from CI.
//
// Write-path fault injection (generate: shard writes; serve/replay:
// snapshot writes) — deterministic, keyed by (seed, write-op index):
//   --write-fault-seed=S --write-fault-short-rate=P
//   --write-fault-nospace-rate=P --write-fault-fsync-rate=P
//       injected ENOSPC / short write exits 5 (resource exhausted),
//       injected fsync failure exits 4 (data loss); either way the
//       previous on-disk state survives intact.
//
// Byzantine-tenant quarantine (serve/replay):
//   --max-invalid-per-tenant=K     after K consecutive rejected reports
//       a tenant is quarantined: later reports are counted-shed at O(1)
//       and its streak is part of the snapshot digest state.
//
// Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 data
// loss / I/O failure, 5 resource exhausted (see ExitCodeFor below).
//
// --seed-scheme selects the RNG stream contract (common/rng_lanes.h):
// "v3" (default) is the lane-parallel fast path with cross-user sampled
// batching, "v2" replays the per-user sampled lane spans and "v1" the
// legacy scalar streams, so recorded runs of either era are reproducible
// without recompiling; unknown names are a one-line error, never a
// silent default. --threads bounds worker concurrency (0 = one per
// hardware thread); estimates never depend on it.
//
//   hdldp_cli analyze --epsilon=0.001 --reports=10000 [--xi=0.001,0.01,...]
//       Pure analytical benchmark of all registered mechanisms at a
//       per-dimension budget (no experiment; the paper's framework).
//
//   hdldp_cli variance --mechanism=piecewise --dataset=gaussian
//                      --users=20000 --dims=64 --epsilon=1
//                      [--recalibrate] [--seed=1] [--threads=1]
//                      [--seed-scheme=v3]
//       Runs the split-population variance-estimation extension.
//
//   hdldp_cli serve   --workload=mean|freq --mechanism=duchi
//                     --reports=10000 --dims=8 --epsilon=1
//                     [--report-dims=0] [--questions/--categories (freq)]
//                     [--seed=1] [--tenants=4] [--tenant-budget=0]
//                     [--reports-per-tick=0] [--window-width=1]
//                     [--window-slide=0] [--window-lateness=0]
//                     [--threads=0] [--queue-capacity=1024]
//                     [--overload=shed|block] [--checkpoint=<file>]
//                     [--snapshot-every=0] [--kill-after=0]
//                     [--fault-drop-rate=P] [--fault-duplicate-rate=P]
//                     [--fault-reorder-rate=P] [--fault-reorder-delay=3]
//                     [--fault-seed=S] [--print-estimate]
//                     [--encoding=dense|sampled|oue|olh|hadamard1]
//       Drives a deterministic report stream through the online
//       aggregation service (src/service/): asynchronous multi-worker
//       ingestion, per-(tenant, sequence) dedup, per-tenant budget
//       enforcement, rolling tumbling/sliding window estimates, counted
//       load shedding, and crash-safe snapshots (--checkpoint +
//       --snapshot-every; re-running after a kill resumes from the file
//       and republishes bit-identical estimates). --kill-after=N
//       simulates the crash: the process exits abruptly (code 7) after
//       N stream envelopes.
//
//   hdldp_cli replay  <same flags minus --threads/--queue-capacity/
//                      --overload>
//       The deterministic single-threaded twin of serve: one worker,
//       lossless backpressure — the golden path whose published bits
//       serve must reproduce at any worker count. serve/replay ingest
//       per-report scalar streams: --seed-scheme=v1 is the only
//       accepted scheme; v2/v3 are a typed validation error.
//
// All flags are --key=value; unknown keys are errors.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generator_source.h"
#include "data/generators.h"
#include "data/shard.h"
#include "framework/benchmark.h"
#include "framework/berry_esseen.h"
#include "framework/deviation_model.h"
#include "framework/value_distribution.h"
#include "freq/encoding.h"
#include "freq/pipeline.h"
#include "hdr4me/recalibrate.h"
#include "hdr4me/variance.h"
#include "mech/registry.h"
#include "protocol/metrics.h"
#include "protocol/pipeline.h"
#include "service/aggregation_service.h"
#include "service/report_stream.h"

namespace {

using hdldp::Result;
using hdldp::Status;

class Flags {
 public:
  static Result<Flags> Parse(int argc, char** argv, int first) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        return Status::InvalidArgument("expected --key=value, got " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq == std::string::npos) {
        flags.values_[arg] = "true";
      } else {
        flags.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      }
    }
    return flags;
  }

  std::string GetString(const std::string& key, std::string fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double GetDouble(const std::string& key, double fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::atof(it->second.c_str());
  }

  std::size_t GetSize(const std::string& key, std::size_t fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end()
               ? fallback
               : static_cast<std::size_t>(std::atoll(it->second.c_str()));
  }

  bool GetBool(const std::string& key) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it != values_.end() && it->second == "true";
  }

  /// Whether the flag was provided at all (does not consume it).
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> fallback) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::vector<double> out;
    std::string token;
    for (const char c : it->second + ",") {
      if (c == ',') {
        if (!token.empty()) out.push_back(std::atof(token.c_str()));
        token.clear();
      } else {
        token += c;
      }
    }
    return out;
  }

  /// Errors if any provided flag was never consumed (catches typos).
  Status CheckAllConsumed() const {
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> consumed_;
};

// In-process fault injection (--fault-*) over a resolved source.
struct FaultFlags {
  /// Set when any --fault-* rate is nonzero; the source is then wrapped
  /// in a FaultInjectingChunkSource over FaultSchedule::Random.
  bool inject = false;
  std::uint64_t fault_seed = 0;
  hdldp::data::FaultSchedule::RandomOptions random;

  /// `base`, or `base` behind a fault injector held in *holder.
  const hdldp::data::ChunkSource* Wrap(
      const hdldp::data::ChunkSource* base,
      std::optional<hdldp::data::FaultInjectingChunkSource>* holder) const {
    if (!inject) return base;
    holder->emplace(base, hdldp::data::FaultSchedule::Random(
                              fault_seed, base->num_chunks(), random));
    return &**holder;
  }
};

Result<hdldp::SeedScheme> ParseSeedScheme(const std::string& value) {
  if (value == "v3" || value == "3") return hdldp::SeedScheme::kV3Batched;
  if (value == "v2" || value == "2") return hdldp::SeedScheme::kV2Lanes;
  if (value == "v1" || value == "1") return hdldp::SeedScheme::kV1Scalar;
  return Status::InvalidArgument("unknown --seed-scheme '" + value +
                                 "' (want v1|v2|v3)");
}

// The run flags shared by mean/freq/variance, parsed once into the
// options base every batch pipeline derives from: --epsilon, --seed,
// --threads, --seed-scheme, the retry policy, --allow-missing-chunks and
// --checkpoint. Returns the --fault-* injection settings.
Result<FaultFlags> ParseRunFlags(Flags* flags,
                                 hdldp::protocol::PipelineOptions* opts) {
  opts->total_epsilon = flags->GetDouble("epsilon", 1.0);
  opts->seed = flags->GetSize("seed", 1);
  opts->num_threads = flags->GetSize("threads", 1);
  HDLDP_ASSIGN_OR_RETURN(
      opts->seed_scheme,
      ParseSeedScheme(flags->GetString("seed-scheme", "v3")));
  const std::size_t max_attempts = flags->GetSize("max-attempts", 1);
  if (max_attempts == 0) {
    return Status::InvalidArgument("--max-attempts must be >= 1");
  }
  opts->retry.max_attempts = static_cast<int>(max_attempts);
  opts->retry.initial_backoff_ms = flags->GetSize("backoff-ms", 0);
  opts->retry.max_total_backoff_ms =
      flags->GetSize("max-total-backoff-ms", 0);
  opts->allow_missing_chunks = flags->GetBool("allow-missing-chunks");
  opts->checkpoint_path = flags->GetString("checkpoint", "");
  FaultFlags ft;
  ft.fault_seed = flags->GetSize("fault-seed", 0);
  ft.random.transient_rate = flags->GetDouble("fault-transient-rate", 0.0);
  ft.random.persistent_rate = flags->GetDouble("fault-persistent-rate", 0.0);
  ft.random.bit_flip_rate = flags->GetDouble("fault-bitflip-rate", 0.0);
  const std::size_t failing =
      flags->GetSize("fault-failing-attempts", 1);
  if (failing == 0) {
    return Status::InvalidArgument("--fault-failing-attempts must be >= 1");
  }
  ft.random.failing_attempts = static_cast<int>(failing);
  for (const double rate : {ft.random.transient_rate,
                            ft.random.persistent_rate,
                            ft.random.bit_flip_rate}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument("--fault-*-rate must lie in [0, 1]");
    }
  }
  ft.inject = ft.random.transient_rate > 0.0 ||
              ft.random.persistent_rate > 0.0 ||
              ft.random.bit_flip_rate > 0.0;
  return ft;
}

// Write-path fault-injection flags (generate: shard part files;
// serve/replay: snapshot records). Same deterministic seed-keyed
// contract as the read-side --fault-* family.
Result<hdldp::WriteFaultSchedule> ParseWriteFaultFlags(Flags* flags) {
  const std::uint64_t seed = flags->GetSize("write-fault-seed", 0);
  hdldp::WriteFaultSchedule::RandomOptions random;
  random.short_write_rate = flags->GetDouble("write-fault-short-rate", 0.0);
  random.no_space_rate = flags->GetDouble("write-fault-nospace-rate", 0.0);
  random.fsync_failure_rate =
      flags->GetDouble("write-fault-fsync-rate", 0.0);
  for (const double rate : {random.short_write_rate, random.no_space_rate,
                            random.fsync_failure_rate}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument(
          "--write-fault-*-rate must lie in [0, 1]");
    }
  }
  return hdldp::WriteFaultSchedule(seed, random);
}

// Reports the fault-tolerance outcome of a run in a stable, greppable
// form (CI asserts on these lines).
void PrintFaultOutcome(bool resumed, const std::vector<std::size_t>& chunks,
                       std::size_t surviving_users) {
  if (resumed) std::printf("resumed from checkpoint\n");
  if (!chunks.empty()) {
    std::printf("quarantined %zu chunks; surviving users %zu\n",
                chunks.size(), surviving_users);
  }
}

Result<hdldp::data::Dataset> MakeDataset(const std::string& name,
                                         std::size_t users, std::size_t dims,
                                         hdldp::Rng* rng) {
  if (name == "uniform") {
    return hdldp::data::GenerateUniform(
        {.num_users = users, .num_dims = dims}, rng);
  }
  if (name == "gaussian") {
    hdldp::data::GaussianSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GenerateGaussian(spec, rng);
  }
  if (name == "poisson") {
    hdldp::data::PoissonSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GeneratePoisson(spec, rng);
  }
  if (name == "correlated") {
    hdldp::data::CorrelatedSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GenerateCorrelated(spec, rng);
  }
  return Status::InvalidArgument(
      "unknown dataset '" + name +
      "' (want uniform|gaussian|poisson|correlated)");
}

Result<hdldp::data::GeneratorSpec> MakeGeneratorSpec(const std::string& name,
                                                     std::size_t users,
                                                     std::size_t dims) {
  if (name == "uniform") {
    return hdldp::data::GeneratorSpec(
        hdldp::data::UniformSpec{.num_users = users, .num_dims = dims});
  }
  if (name == "gaussian") {
    hdldp::data::GaussianSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GeneratorSpec(spec);
  }
  if (name == "poisson") {
    hdldp::data::PoissonSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GeneratorSpec(spec);
  }
  if (name == "correlated") {
    hdldp::data::CorrelatedSpec spec;
    spec.num_users = users;
    spec.num_dims = dims;
    return hdldp::data::GeneratorSpec(spec);
  }
  return Status::InvalidArgument(
      "unknown dataset '" + name +
      "' (want uniform|gaussian|poisson|correlated)");
}

// Owns whichever data source a numeric subcommand resolved — a resident
// generated dataset, an opened shard directory, or a streaming
// chunk-keyed generator — and exposes it through `source`. The members
// hold self-referential pointers once resolved, so a holder must stay
// where ResolveSource filled it (it is neither copied nor moved).
struct SourceHolder {
  std::optional<hdldp::data::Dataset> dataset;
  std::optional<hdldp::data::ResidentChunkSource> resident;
  std::optional<hdldp::data::ShardFileSource> shard;
  std::optional<hdldp::data::GeneratorChunkSource> generated;
  const hdldp::data::ChunkSource* source = nullptr;
};

// Shared --input/--chunk-keyed resolution for mean and variance.
// `data_seed` is the subcommand's tagged data seed (e.g. seed ^ 0xDA7A);
// `generate` applies the same tag, so a chunk-keyed in-memory run and a
// `generate` + `--input` run of the same --seed see identical values.
Status ResolveSource(const std::string& input, bool chunk_keyed,
                     const std::string& dataset_name, std::size_t users,
                     std::size_t dims, std::uint64_t data_seed,
                     SourceHolder* out) {
  if (!input.empty()) {
    HDLDP_ASSIGN_OR_RETURN(out->shard,
                           hdldp::data::ShardFileSource::Open(input));
    out->source = &*out->shard;
    return Status::OK();
  }
  if (chunk_keyed) {
    HDLDP_ASSIGN_OR_RETURN(const auto spec,
                           MakeGeneratorSpec(dataset_name, users, dims));
    HDLDP_ASSIGN_OR_RETURN(
        out->generated,
        hdldp::data::GeneratorChunkSource::Create(spec, data_seed));
    out->source = &*out->generated;
    return Status::OK();
  }
  hdldp::Rng data_rng(data_seed);
  HDLDP_ASSIGN_OR_RETURN(out->dataset,
                         MakeDataset(dataset_name, users, dims, &data_rng));
  out->resident.emplace(&*out->dataset);
  out->source = &*out->resident;
  return Status::OK();
}

// --input reads the population geometry from the shard headers; the
// in-memory generator flags contradict it.
Status RejectGeneratorFlagsWithInput(const Flags& flags) {
  for (const char* key : {"dataset", "users", "dims", "chunk-keyed"}) {
    if (flags.Has(key)) {
      return Status::InvalidArgument(
          "--input reads the population from the shard directory; drop --" +
          std::string(key));
    }
  }
  return Status::OK();
}

Status RunMean(Flags flags) {
  const std::string mech_name = flags.GetString("mechanism", "piecewise");
  const std::string input = flags.GetString("input", "");
  const bool chunk_keyed = flags.GetBool("chunk-keyed");
  const std::string dataset_name = flags.GetString("dataset", "uniform");
  const std::size_t users_flag = flags.GetSize("users", 20000);
  const std::size_t dims_flag = flags.GetSize("dims", 128);
  hdldp::protocol::PipelineOptions opts;
  HDLDP_ASSIGN_OR_RETURN(const FaultFlags ft, ParseRunFlags(&flags, &opts));
  opts.report_dims = flags.GetSize("report-dims", 0);
  HDLDP_ASSIGN_OR_RETURN(opts.encoding,
                         hdldp::protocol::ParseReportEncoding(
                             flags.GetString("encoding", "dense")));
  const std::string recalibrate = flags.GetString("recalibrate", "both");
  const bool gate = flags.GetBool("gate");
  const bool print_estimate = flags.GetBool("print-estimate");
  if (!input.empty()) HDLDP_RETURN_NOT_OK(RejectGeneratorFlagsWithInput(flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(input, chunk_keyed, dataset_name,
                                    users_flag, dims_flag,
                                    opts.seed ^ 0xDA7Aull, &data));
  std::optional<hdldp::data::FaultInjectingChunkSource> faulty;
  const hdldp::data::ChunkSource* source = ft.Wrap(data.source, &faulty);
  const std::size_t users = source->num_users();
  const std::size_t dims = source->num_dims();
  const std::size_t report_dims = opts.report_dims;
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));
  HDLDP_ASSIGN_OR_RETURN(
      const auto run,
      hdldp::protocol::RunMeanEstimation(*source, mechanism, opts));

  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g m=%zu "
              "encoding=%s\n",
              mech_name.c_str(),
              input.empty() ? dataset_name.c_str() : input.c_str(), users,
              dims, opts.total_epsilon, report_dims == 0 ? dims : report_dims,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome(run.resumed_from_checkpoint, run.quarantined_chunks,
                    run.surviving_users);
  std::printf("%-24s %12.6g\n", "naive MSE", run.mse);
  if (print_estimate) {
    // Full-precision estimate, one dimension per line: CI resume tests
    // diff this output to assert bit-identical results.
    for (std::size_t j = 0; j < dims; ++j) {
      std::printf("estimate[%zu]=%.17g\n", j, run.estimated_mean[j]);
    }
  }

  if (recalibrate == "none") return Status::OK();
  if (opts.encoding == hdldp::protocol::ReportEncoding::kHadamard1) {
    // The deviation model below describes the numeric mechanism's
    // perturbation; the 1-bit path has no mechanism, so HDR4ME
    // re-calibration is not offered (naive MSE above is the result).
    std::printf("recalibration skipped: hadamard1 has no value mechanism\n");
    return Status::OK();
  }
  // Per-dimension deviation models from per-dimension empirical marginals.
  std::vector<hdldp::framework::GaussianDeviation> deviations;
  const std::size_t rows = std::min<std::size_t>(users, 2000);
  HDLDP_ASSIGN_OR_RETURN(const std::vector<double> marginals,
                         hdldp::data::MaterializeRows(*data.source, 0, rows));
  std::vector<double> column(rows);
  const double reports = static_cast<double>(users) *
                         static_cast<double>(report_dims == 0 ? dims
                                                              : report_dims) /
                         static_cast<double>(dims);
  for (std::size_t j = 0; j < dims; ++j) {
    for (std::size_t i = 0; i < rows; ++i) column[i] = marginals[i * dims + j];
    HDLDP_ASSIGN_OR_RETURN(
        const auto values,
        hdldp::framework::ValueDistribution::FromSamples(column, 16));
    HDLDP_ASSIGN_OR_RETURN(
        const auto model,
        hdldp::framework::ModelDeviation(*mechanism, run.per_dim_epsilon,
                                         values, reports));
    deviations.push_back(model.deviation);
  }
  HDLDP_ASSIGN_OR_RETURN(const double predicted,
                         hdldp::framework::PredictedMse(deviations));
  std::printf("%-24s %12.6g\n", "framework-predicted MSE", predicted);

  for (const auto& [label, reg] :
       std::vector<std::pair<std::string, hdldp::hdr4me::Regularizer>>{
           {"l1", hdldp::hdr4me::Regularizer::kL1},
           {"l2", hdldp::hdr4me::Regularizer::kL2}}) {
    if (recalibrate != "both" && recalibrate != label) continue;
    hdldp::hdr4me::Hdr4meOptions h;
    h.regularizer = reg;
    h.lambda.gate_on_threshold = gate;
    HDLDP_ASSIGN_OR_RETURN(
        const auto result,
        hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, h));
    HDLDP_ASSIGN_OR_RETURN(const double mse,
                           hdldp::protocol::MeanSquaredError(
                               result.enhanced_mean, run.true_mean));
    std::printf("HDR4ME-%s%s MSE%*s %12.6g  (%zu dims zeroed)\n",
                label.c_str(), gate ? " (gated)" : "",
                gate ? 5 : 13, "", mse, result.zeroed_dims);
  }
  HDLDP_ASSIGN_OR_RETURN(const double p_l1,
                         hdldp::hdr4me::ImprovementProbabilityL1(deviations));
  std::printf("%-24s %12.6g\n", "Theorem 3 lower bound", p_l1);
  return Status::OK();
}

Status RunFreq(Flags flags) {
  const std::string mech_name = flags.GetString("mechanism", "piecewise");
  const std::string input = flags.GetString("input", "");
  const std::size_t users_flag = flags.GetSize("users", 20000);
  const std::size_t questions = flags.GetSize("questions", 16);
  const std::size_t categories = flags.GetSize("categories", 8);
  const double zipf = flags.GetDouble("zipf", 1.0);
  hdldp::freq::FrequencyOptions opts;
  HDLDP_ASSIGN_OR_RETURN(const FaultFlags ft, ParseRunFlags(&flags, &opts));
  opts.report_dims = flags.GetSize("sampled", 0);
  HDLDP_ASSIGN_OR_RETURN(opts.encoding,
                         hdldp::protocol::ParseReportEncoding(
                             flags.GetString("encoding", "dense")));
  if (!input.empty() && (flags.Has("users") || flags.Has("zipf"))) {
    return Status::InvalidArgument(
        "--input reads the population from the shard directory; drop "
        "--users/--zipf (keep --questions/--categories: the shard stores "
        "indices, the schema stores cardinalities)");
  }
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  HDLDP_ASSIGN_OR_RETURN(auto schema,
                         hdldp::freq::CategoricalSchema::Create(
                             std::vector<std::size_t>(questions, categories)));
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));

  // Both branches resolve a base ChunkSource, optionally wrap it in the
  // deterministic fault injector, and run the source overload.
  std::optional<hdldp::data::ShardFileSource> shard;
  std::optional<hdldp::freq::CategoricalDataset> dataset;
  std::optional<hdldp::freq::CategoricalChunkSource> resident;
  const hdldp::data::ChunkSource* source = nullptr;
  if (!input.empty()) {
    HDLDP_ASSIGN_OR_RETURN(shard, hdldp::data::ShardFileSource::Open(input));
    source = &*shard;
  } else {
    hdldp::Rng rng(opts.seed ^ 0xF8E0ull);
    HDLDP_ASSIGN_OR_RETURN(
        dataset,
        hdldp::freq::GenerateCategorical(users_flag, schema, zipf, &rng));
    resident.emplace(&*dataset);
    source = &*resident;
  }
  std::optional<hdldp::data::FaultInjectingChunkSource> faulty;
  source = ft.Wrap(source, &faulty);
  const std::size_t users = source->num_users();
  HDLDP_ASSIGN_OR_RETURN(const auto result,
                         hdldp::freq::RunFrequencyEstimation(
                             *source, schema, mechanism, opts));
  std::printf("mechanism=%s users=%zu questions=%zu categories=%zu eps=%g "
              "eps/entry=%g encoding=%s\n",
              mech_name.c_str(), users, questions, categories,
              opts.total_epsilon, result.per_entry_epsilon,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome(result.resumed_from_checkpoint, result.quarantined_chunks,
                    result.surviving_users);
  std::printf("%-24s %12.6g\n", "naive MSE", result.mse_raw);
  std::printf("%-24s %12.6g\n", "HDR4ME MSE", result.mse_recalibrated);
  return Status::OK();
}

Status RunAnalyze(Flags flags) {
  const double eps = flags.GetDouble("epsilon", 0.001);
  const double reports = flags.GetDouble("reports", 10000.0);
  const std::vector<double> xis =
      flags.GetDoubleList("xi", {0.001, 0.01, 0.05, 0.1});
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  std::vector<double> values;
  std::vector<double> probs;
  for (int k = 1; k <= 10; ++k) {
    values.push_back(0.1 * k);
    probs.push_back(0.1);
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto dist,
      hdldp::framework::ValueDistribution::Create(values, probs));
  std::vector<hdldp::framework::BenchmarkSpec> specs;
  for (const auto name : hdldp::mech::RegisteredMechanismNames()) {
    hdldp::framework::BenchmarkSpec spec;
    HDLDP_ASSIGN_OR_RETURN(spec.mechanism, hdldp::mech::MakeMechanism(name));
    spec.values = dist;
    spec.data_domain = spec.mechanism->InputDomain();
    specs.push_back(std::move(spec));
  }
  HDLDP_ASSIGN_OR_RETURN(
      const auto table,
      hdldp::framework::BenchmarkMechanisms(specs, eps, reports, xis));
  std::printf("%-12s %10s %10s", "mechanism", "delta", "sigma");
  for (const double xi : xis) std::printf(" P(<=%-7g)", xi);
  std::printf("\n");
  for (const auto& row : table) {
    std::printf("%-12s %10.3g %10.3g", row.name.c_str(),
                row.model.deviation.mean, row.model.deviation.stddev);
    for (const double p : row.probabilities) std::printf(" %11.3g", p);
    std::printf("\n");
  }
  return Status::OK();
}

Status RunVariance(Flags flags) {
  const std::string mech_name = flags.GetString("mechanism", "piecewise");
  const std::string input = flags.GetString("input", "");
  const bool chunk_keyed = flags.GetBool("chunk-keyed");
  const std::string dataset_name = flags.GetString("dataset", "gaussian");
  const std::size_t users_flag = flags.GetSize("users", 20000);
  const std::size_t dims_flag = flags.GetSize("dims", 64);
  hdldp::hdr4me::VarianceOptions opts;
  HDLDP_ASSIGN_OR_RETURN(const FaultFlags ft, ParseRunFlags(&flags, &opts));
  opts.recalibrate = flags.GetBool("recalibrate");
  if (!input.empty()) HDLDP_RETURN_NOT_OK(RejectGeneratorFlagsWithInput(flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(input, chunk_keyed, dataset_name,
                                    users_flag, dims_flag,
                                    opts.seed ^ 0x5ECull, &data));
  std::optional<hdldp::data::FaultInjectingChunkSource> faulty;
  const hdldp::data::ChunkSource* source = ft.Wrap(data.source, &faulty);
  const std::size_t users = source->num_users();
  const std::size_t dims = source->num_dims();
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));
  HDLDP_ASSIGN_OR_RETURN(
      const auto result,
      hdldp::hdr4me::RunVarianceEstimation(*source, mechanism, opts));
  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g "
              "recalibrate=%d\n",
              mech_name.c_str(),
              input.empty() ? dataset_name.c_str() : input.c_str(), users,
              dims, opts.total_epsilon, opts.recalibrate ? 1 : 0);
  std::vector<std::size_t> quarantined = result.quarantined_values_chunks;
  quarantined.insert(quarantined.end(),
                     result.quarantined_squares_chunks.begin(),
                     result.quarantined_squares_chunks.end());
  PrintFaultOutcome(result.resumed_from_checkpoint, quarantined,
                    result.surviving_users);
  std::printf("%-24s %12.6g\n", "variance MSE", result.mse);
  std::printf("first dims (true vs estimated variance):\n");
  for (std::size_t j = 0; j < std::min<std::size_t>(4, dims); ++j) {
    std::printf("  dim %zu: %10.5f vs %10.5f\n", j, result.true_variance[j],
                result.estimated_variance[j]);
  }
  return Status::OK();
}

Status RunGenerate(Flags flags) {
  const std::string out = flags.GetString("out", "");
  const std::string dataset_name = flags.GetString("dataset", "uniform");
  const std::size_t users = flags.GetSize("users", 20000);
  const std::size_t dims = flags.GetSize("dims", 16);
  const std::uint64_t seed = flags.GetSize("seed", 1);
  const std::size_t chunks_per_file = flags.GetSize("chunks-per-file", 1024);
  const std::size_t questions = flags.GetSize("questions", 16);
  const std::size_t categories = flags.GetSize("categories", 8);
  const double zipf = flags.GetDouble("zipf", 1.0);
  HDLDP_ASSIGN_OR_RETURN(const auto write_faults,
                         ParseWriteFaultFlags(&flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());
  if (out.empty()) {
    return Status::InvalidArgument("generate requires --out=<shard-dir>");
  }
  if (chunks_per_file == 0) {
    return Status::InvalidArgument("--chunks-per-file must be >= 1");
  }
  hdldp::data::ShardWriterOptions shard_opts;
  shard_opts.chunks_per_file = chunks_per_file;
  shard_opts.write_faults = write_faults;

  if (dataset_name == "categorical") {
    // Category indices for the freq pipeline, drawn from the same
    // Rng(seed ^ 0xF8E0) stream the freq subcommand uses in memory — so
    // `freq --input=<out> --seed=S` reproduces `freq --seed=S` bit for
    // bit.
    HDLDP_ASSIGN_OR_RETURN(
        auto schema, hdldp::freq::CategoricalSchema::Create(
                         std::vector<std::size_t>(questions, categories)));
    hdldp::Rng rng(seed ^ 0xF8E0ull);
    HDLDP_ASSIGN_OR_RETURN(
        const auto dataset,
        hdldp::freq::GenerateCategorical(users, schema, zipf, &rng));
    const hdldp::freq::CategoricalChunkSource source(&dataset);
    HDLDP_ASSIGN_OR_RETURN(const std::size_t rows,
                           hdldp::data::WriteShards(source, out, shard_opts));
    std::printf("wrote %zu users x %zu categorical dims to %s\n", rows,
                questions, out.c_str());
    return Status::OK();
  }

  // Numeric populations stream straight from the chunk-keyed generator —
  // no resident n x d allocation. The 0xDA7A tag matches the mean
  // subcommand's data seed, so `mean --chunk-keyed --seed=S` and
  // `generate --seed=S` + `mean --input --seed=S` see identical values.
  HDLDP_ASSIGN_OR_RETURN(const auto spec,
                         MakeGeneratorSpec(dataset_name, users, dims));
  HDLDP_ASSIGN_OR_RETURN(
      const auto source,
      hdldp::data::GeneratorChunkSource::Create(spec, seed ^ 0xDA7Aull));
  HDLDP_ASSIGN_OR_RETURN(const std::size_t rows,
                         hdldp::data::WriteShards(source, out, shard_opts));
  std::printf("wrote %zu users x %zu dims to %s\n", rows, dims, out.c_str());
  return Status::OK();
}

// serve/replay: drive a deterministic report stream through the online
// aggregation service. `replay` pins the deterministic golden path (one
// worker, lossless backpressure); `serve` exercises the concurrent one.
Status RunServe(Flags flags, bool replay) {
  const std::string workload_name = flags.GetString("workload", "mean");
  const std::string mech_name = flags.GetString("mechanism", "duchi");
  const std::uint64_t reports = flags.GetSize("reports", 10000);
  const double epsilon = flags.GetDouble("epsilon", 1.0);
  const std::size_t report_dims = flags.GetSize("report-dims", 0);
  const std::uint64_t seed = flags.GetSize("seed", 1);
  const std::uint64_t tenants = flags.GetSize("tenants", 4);
  const double tenant_budget = flags.GetDouble("tenant-budget", 0.0);
  const std::uint64_t reports_per_tick = flags.GetSize("reports-per-tick", 0);
  const std::string checkpoint = flags.GetString("checkpoint", "");
  const std::size_t snapshot_every = flags.GetSize("snapshot-every", 0);
  const std::size_t kill_after = flags.GetSize("kill-after", 0);
  const bool print_estimate = flags.GetBool("print-estimate");
  HDLDP_ASSIGN_OR_RETURN(
      const hdldp::protocol::ReportEncoding encoding,
      hdldp::protocol::ParseReportEncoding(
          flags.GetString("encoding", "dense")));

  // The stream generator emits per-report scalar Rng streams — the v1
  // contract. v2/v3 name the engine's lane/batched contracts, which have
  // no per-report envelope form; refusing them loudly mirrors the freq
  // v1 --checkpoint rejection.
  HDLDP_ASSIGN_OR_RETURN(
      const hdldp::SeedScheme seed_scheme,
      ParseSeedScheme(flags.GetString("seed-scheme", "v1")));
  if (seed_scheme != hdldp::SeedScheme::kV1Scalar) {
    return Status::InvalidArgument(
        "serve/replay ingest per-report scalar streams: --seed-scheme=v1 "
        "is the only supported scheme (v2/v3 are engine lane contracts "
        "with no per-report envelope form)");
  }

  hdldp::service::ReportStreamOptions stream_options;
  if (workload_name == "mean") {
    stream_options.workload = hdldp::service::StreamWorkload::kMean;
    stream_options.num_dims = flags.GetSize("dims", 8);
  } else if (workload_name == "freq") {
    stream_options.workload = hdldp::service::StreamWorkload::kFreq;
    stream_options.num_dims = flags.GetSize("questions", 4);
    stream_options.num_categories = flags.GetSize("categories", 4);
  } else {
    return Status::InvalidArgument("unknown --workload '" + workload_name +
                                   "' (want mean|freq)");
  }
  stream_options.encoding = encoding;
  stream_options.mechanism = mech_name;
  stream_options.num_reports = reports;
  stream_options.epsilon = epsilon;
  stream_options.report_dims = report_dims;
  stream_options.seed = seed;
  stream_options.num_tenants = tenants;
  stream_options.reports_per_tick = reports_per_tick;
  stream_options.faults.drop_rate = flags.GetDouble("fault-drop-rate", 0.0);
  stream_options.faults.duplicate_rate =
      flags.GetDouble("fault-duplicate-rate", 0.0);
  stream_options.faults.reorder_rate =
      flags.GetDouble("fault-reorder-rate", 0.0);
  stream_options.faults.reorder_delay =
      flags.GetSize("fault-reorder-delay", 3);
  stream_options.fault_seed = flags.GetSize("fault-seed", 0);
  for (const double rate : {stream_options.faults.drop_rate,
                            stream_options.faults.duplicate_rate,
                            stream_options.faults.reorder_rate}) {
    if (!(rate >= 0.0 && rate <= 1.0)) {
      return Status::InvalidArgument("--fault-*-rate must lie in [0, 1]");
    }
  }

  hdldp::service::ServiceOptions service_options;
  if (replay) {
    service_options.num_workers = 1;
    service_options.overload = hdldp::service::OverloadPolicy::kBlock;
  } else {
    service_options.num_workers = flags.GetSize("threads", 0);
    service_options.queue_capacity = flags.GetSize("queue-capacity", 1024);
    const std::string overload = flags.GetString("overload", "shed");
    if (overload == "shed") {
      service_options.overload = hdldp::service::OverloadPolicy::kShed;
    } else if (overload == "block") {
      service_options.overload = hdldp::service::OverloadPolicy::kBlock;
    } else {
      return Status::InvalidArgument("unknown --overload '" + overload +
                                     "' (want shed|block)");
    }
  }
  service_options.window.width = flags.GetSize("window-width", 1);
  service_options.window.slide = flags.GetSize("window-slide", 0);
  service_options.window.lateness = flags.GetSize("window-lateness", 0);
  service_options.tenant_epsilon = tenant_budget;
  service_options.checkpoint_path = checkpoint;
  service_options.max_invalid_per_tenant =
      flags.GetSize("max-invalid-per-tenant", 0);
  HDLDP_ASSIGN_OR_RETURN(service_options.snapshot_write_faults,
                         ParseWriteFaultFlags(&flags));
  HDLDP_RETURN_NOT_OK(flags.CheckAllConsumed());

  HDLDP_ASSIGN_OR_RETURN(
      hdldp::service::ReportStream stream,
      hdldp::service::ReportStream::Create(stream_options));
  service_options.num_dims = stream.service_dims();
  service_options.domain_map = stream.domain_map();
  service_options.expected_entries = stream.expected_entries();
  service_options.output_lo = stream.output_lo();
  service_options.output_hi = stream.output_hi();
  service_options.per_report_epsilon =
      tenant_budget > 0.0 ? stream.per_report_epsilon() : 0.0;
  service_options.codec = stream.CodecOptions();
  // Everything that defines the stream (and hence the estimates) is in
  // the digest tag; worker count / queue capacity / overload policy are
  // deliberately absent — estimates are invariant to them, so a serve
  // checkpoint restores under replay and vice versa.
  {
    char tag[256];
    std::snprintf(tag, sizeof(tag),
                  "stream %s enc=%s %s n=%llu eps=%.17g m=%zu seed=%llu "
                  "t=%llu rpt=%llu drop=%.17g dup=%.17g reord=%.17g "
                  "delay=%zu fseed=%llu",
                  workload_name.c_str(),
                  hdldp::protocol::ReportEncodingName(encoding),
                  mech_name.c_str(),
                  static_cast<unsigned long long>(reports), epsilon,
                  report_dims, static_cast<unsigned long long>(seed),
                  static_cast<unsigned long long>(tenants),
                  static_cast<unsigned long long>(reports_per_tick),
                  stream_options.faults.drop_rate,
                  stream_options.faults.duplicate_rate,
                  stream_options.faults.reorder_rate,
                  stream_options.faults.reorder_delay,
                  static_cast<unsigned long long>(stream_options.fault_seed));
    service_options.digest_tag = tag;
  }

  HDLDP_ASSIGN_OR_RETURN(
      const auto service,
      hdldp::service::AggregationService::Create(std::move(service_options)));
  std::printf("service workload=%s mechanism=%s reports=%llu tenants=%llu "
              "workers=%zu window=%llu/%llu+%llu\n",
              workload_name.c_str(), mech_name.c_str(),
              static_cast<unsigned long long>(reports),
              static_cast<unsigned long long>(tenants),
              service->num_workers(),
              static_cast<unsigned long long>(
                  flags.GetSize("window-width", 1)),
              static_cast<unsigned long long>(
                  flags.GetSize("window-slide", 0)),
              static_cast<unsigned long long>(
                  flags.GetSize("window-lateness", 0)));
  if (service->resumed()) {
    std::printf("resumed from checkpoint\n");
    HDLDP_RETURN_NOT_OK(stream.SkipTo(service->resume_cursor()));
  }

  std::vector<std::uint8_t> envelope;
  std::uint64_t watermark = 0;
  for (;;) {
    bool done = false;
    HDLDP_RETURN_NOT_OK(stream.Next(&envelope, &done));
    if (done) break;
    const Status submitted = service->Submit(envelope);
    if (!submitted.ok() &&
        submitted.code() != hdldp::StatusCode::kUnavailable &&
        submitted.code() != hdldp::StatusCode::kDataLoss) {
      // Unavailable = counted shedding under overload; DataLoss =
      // counted envelope corruption. Anything else is a driver bug.
      return submitted;
    }
    if (reports_per_tick > 0) {
      const std::uint64_t tick = stream.position() / reports_per_tick;
      if (tick > watermark) {
        watermark = tick;
        HDLDP_RETURN_NOT_OK(service->AdvanceWatermark(watermark));
      }
    }
    if (snapshot_every > 0 && !checkpoint.empty() &&
        stream.position() % snapshot_every == 0) {
      HDLDP_RETURN_NOT_OK(service->SaveSnapshot(stream.position()));
    }
    if (kill_after > 0 && stream.position() >= kill_after) {
      // Simulated crash: no Drain, no Finish, no destructors — the
      // checkpoint on disk is all the next run gets.
      std::printf("simulated crash at report %llu\n",
                  static_cast<unsigned long long>(stream.position()));
      std::fflush(stdout);
      std::_Exit(7);
    }
  }
  HDLDP_RETURN_NOT_OK(service->Drain());
  HDLDP_RETURN_NOT_OK(service->VerifyReconciliation());

  const hdldp::service::ServiceStats s = service->Stats();
  std::printf(
      "stats submitted=%llu accepted=%llu accepted_payload_bytes=%llu "
      "deduped=%llu shed_queue_full=%llu "
      "shed_late=%llu shed_quarantined=%llu rejected_malformed=%llu "
      "rejected_invalid=%llu rejected_budget=%llu quarantined_tenants=%llu "
      "failed_snapshots=%llu degraded=%d published_windows=%llu "
      "published_reports=%llu\n",
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.accepted),
      static_cast<unsigned long long>(s.accepted_payload_bytes),
      static_cast<unsigned long long>(s.deduped),
      static_cast<unsigned long long>(s.shed_queue_full),
      static_cast<unsigned long long>(s.shed_late),
      static_cast<unsigned long long>(s.shed_quarantined),
      static_cast<unsigned long long>(s.rejected_malformed),
      static_cast<unsigned long long>(s.rejected_invalid),
      static_cast<unsigned long long>(s.rejected_budget),
      static_cast<unsigned long long>(s.quarantined_tenants),
      static_cast<unsigned long long>(s.failed_snapshots),
      s.degraded ? 1 : 0,
      static_cast<unsigned long long>(s.published_windows),
      static_cast<unsigned long long>(s.published_reports));
  std::printf("stream dropped=%llu duplicated=%llu reordered=%llu\n",
              static_cast<unsigned long long>(stream.dropped()),
              static_cast<unsigned long long>(stream.duplicated()),
              static_cast<unsigned long long>(stream.reordered()));
  for (const hdldp::service::PublishedWindow& window :
       service->PublishedWindows()) {
    std::printf("window[%llu] reports=%llu\n",
                static_cast<unsigned long long>(window.index),
                static_cast<unsigned long long>(window.report_count));
    if (print_estimate) {
      // Full precision, one line per dimension: resume/equivalence tests
      // diff this output to assert bit-identical published estimates.
      for (std::size_t j = 0; j < window.estimate.size(); ++j) {
        std::printf("window[%llu].estimate[%zu]=%.17g\n",
                    static_cast<unsigned long long>(window.index), j,
                    window.estimate[j]);
      }
    }
  }
  return service->Finish();
}

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: hdldp_cli <mean|freq|analyze|variance|generate|"
               "serve|replay> [--key=value ...]\n"
               "see the header of tools/hdldp_cli.cc for the flag list\n"
               "exit codes: 0 success, 2 usage, 3 invalid configuration, "
               "4 data loss / I/O failure, 5 resource exhausted\n");
}

// Exit-code contract (pinned by the smoke tests; scripts and CI branch
// on these):
//   0 — success
//   2 — usage error: unparseable command line, unknown subcommand
//   3 — validation error: a well-formed command line naming an invalid
//       configuration (unknown mechanism/dataset/flag value, missing
//       input, out-of-range parameter)
//   4 — I/O or corruption error: the configuration was valid but the
//       data could not be (fully) read — checksum mismatch, torn write,
//       exhausted retries
//   5 — resource exhausted: the run could not complete because a
//       resource ran out mid-write (ENOSPC/EDQUOT/EFBIG, real or
//       injected); previous on-disk state is intact and retrying after
//       freeing space is safe
//   1 — anything else (internal invariant failures)
int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case hdldp::StatusCode::kOk:
      return 0;
    case hdldp::StatusCode::kInvalidArgument:
    case hdldp::StatusCode::kFailedPrecondition:
    case hdldp::StatusCode::kNotFound:
    case hdldp::StatusCode::kOutOfRange:
    case hdldp::StatusCode::kNotImplemented:
      return 3;
    case hdldp::StatusCode::kDataLoss:
    case hdldp::StatusCode::kUnavailable:
      return 4;
    case hdldp::StatusCode::kResourceExhausted:
      return 5;
    default:
      return 1;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Asking for usage (no arguments, --help/-h/help) is not an error.
  if (argc < 2) {
    PrintUsage(stdout);
    return 0;
  }
  const std::string command = argv[1];
  if (command == "--help" || command == "-h" || command == "help") {
    PrintUsage(stdout);
    return 0;
  }
  auto flags_or = Flags::Parse(argc, argv, 2);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "error: %s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  Status status;
  if (command == "mean") {
    status = RunMean(std::move(flags_or).value());
  } else if (command == "freq") {
    status = RunFreq(std::move(flags_or).value());
  } else if (command == "analyze") {
    status = RunAnalyze(std::move(flags_or).value());
  } else if (command == "variance") {
    status = RunVariance(std::move(flags_or).value());
  } else if (command == "generate") {
    status = RunGenerate(std::move(flags_or).value());
  } else if (command == "serve") {
    status = RunServe(std::move(flags_or).value(), /*replay=*/false);
  } else if (command == "replay") {
    status = RunServe(std::move(flags_or).value(), /*replay=*/true);
  } else {
    PrintUsage(stderr);
    return 2;
  }
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return ExitCodeFor(status);
  }
  return 0;
}
