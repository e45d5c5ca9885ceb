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
// All flags are --key=value; unknown keys are errors. Values are parsed
// strictly: numbers are whole tokens (sizes non-negative integers,
// everything else finite doubles; lists comma-separated), booleans are
// the bare --flag or =true|false, and named choices must be one of the
// listed names. Any other value is a validation error (exit 3) naming the
// flag.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "data/chunk_source.h"
#include "data/fault_injection.h"
#include "data/generator_source.h"
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

// A table of named choices: the values a flag (or a verb) may name.
template <typename T>
using Choices = std::pair<const char*, T>;

template <typename T, std::size_t N>
std::string Names(const Choices<T> (&table)[N]) {
  std::string names;
  for (const auto& [name, value] : table) {
    if (!names.empty()) names += '|';
    names += name;
  }
  return names;
}

// `text` as a T when the whole token is one: integers are non-negative,
// doubles finite.
template <typename T>
std::optional<T> ParseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

// The command line as --key=value pairs. Each getter marks its flag
// consumed and returns its value, or the fallback when the flag is absent
// or malformed. The first malformed value is kept for Check(), which
// every verb calls before it does any work.
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
    const std::string* text = Find(key);
    return text == nullptr ? fallback : *text;
  }

  double GetDouble(const std::string& key, double fallback) {
    return GetNumber(key, fallback, "a finite number");
  }

  /// A probability: a double in [0, 1], 0 when absent.
  double GetRate(const std::string& key) {
    const double rate = GetDouble(key, 0.0);
    if (!(rate >= 0.0 && rate <= 1.0)) Reject(key, "must lie in [0, 1]");
    return rate;
  }

  std::uint64_t GetSize(const std::string& key, std::uint64_t fallback,
                        std::uint64_t min = 0,
                        std::uint64_t max = UINT64_MAX) {
    const std::uint64_t size =
        GetNumber(key, fallback, "a non-negative integer");
    if (size < min) Reject(key, "must be >= " + std::to_string(min));
    if (size > max) Reject(key, "must be <= " + std::to_string(max));
    return size;
  }

  /// The bare --key, or --key=true|false; false when absent.
  bool GetBool(const std::string& key) {
    const std::string value = GetString(key, "false");
    if (value != "true" && value != "false") {
      Reject(key, "want true|false, got '" + value + "'");
    }
    return value == "true";
  }

  std::vector<double> GetDoubleList(const std::string& key,
                                    std::vector<double> fallback) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    std::vector<double> out;
    std::istringstream items(*text);
    for (std::string item; std::getline(items, item, ',');) {
      const std::optional<double> value = ParseNumber<double>(item);
      if (!value.has_value()) {
        Reject(key, "want comma-separated finite numbers, got '" + *text +
                        "'");
        return fallback;
      }
      out.push_back(*value);
    }
    return out;
  }

  /// The table entry the flag names (`fallback` when absent).
  template <typename T, std::size_t N>
  const Choices<T>& GetChoice(const std::string& key, const char* fallback,
                              const Choices<T> (&table)[N]) {
    const std::string value = GetString(key, fallback);
    for (const Choices<T>& entry : table) {
      if (value == entry.first) return entry;
    }
    Reject(key, "unknown value '" + value + "' (want " + Names(table) + ")");
    return table[0];
  }

  /// Whether the flag was provided at all (does not consume it).
  bool Has(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

  /// Records a validation error against --key (the first one wins).
  void Reject(const std::string& key, const std::string& why) {
    if (error_.ok()) error_ = Status::InvalidArgument("--" + key + ": " + why);
  }

  /// The first rejected value, else an error if any provided flag was
  /// never consumed (catches typos).
  Status Check() const {
    HDLDP_RETURN_NOT_OK(error_);
    for (const auto& [key, value] : values_) {
      if (consumed_.find(key) == consumed_.end()) {
        return Status::InvalidArgument("unknown flag --" + key);
      }
    }
    return Status::OK();
  }

 private:
  const std::string* Find(const std::string& key) {
    consumed_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? nullptr : &it->second;
  }

  template <typename T>
  T GetNumber(const std::string& key, T fallback, const char* want) {
    const std::string* text = Find(key);
    if (text == nullptr) return fallback;
    const std::optional<T> value = ParseNumber<T>(*text);
    if (value.has_value()) return *value;
    Reject(key, std::string("want ") + want + ", got '" + *text + "'");
    return fallback;
  }

  std::map<std::string, std::string> values_;
  std::set<std::string> consumed_;
  Status error_;
};

const Choices<hdldp::SeedScheme> kSeedSchemes[] = {
    {"v3", hdldp::SeedScheme::kV3Batched}, {"3", hdldp::SeedScheme::kV3Batched},
    {"v2", hdldp::SeedScheme::kV2Lanes},   {"2", hdldp::SeedScheme::kV2Lanes},
    {"v1", hdldp::SeedScheme::kV1Scalar},  {"1", hdldp::SeedScheme::kV1Scalar},
};

// The numeric --dataset populations: each spec at its defaults apart
// from the geometry. One table feeds both the classic sequential
// generators (resident) and the chunk-keyed ones (--chunk-keyed and
// `generate`).
using SpecFor = hdldp::data::GeneratorSpec (*)(std::size_t users,
                                               std::size_t dims);

template <typename Spec>
hdldp::data::GeneratorSpec Geometry(std::size_t users, std::size_t dims) {
  Spec spec;
  spec.num_users = users;
  spec.num_dims = dims;
  return spec;
}

const Choices<SpecFor> kDatasets[] = {
    {"uniform", Geometry<hdldp::data::UniformSpec>},
    {"gaussian", Geometry<hdldp::data::GaussianSpec>},
    {"poisson", Geometry<hdldp::data::PoissonSpec>},
    {"correlated", Geometry<hdldp::data::CorrelatedSpec>},
};

// Where a run's users come from: --input=<shard-dir>, else an in-memory
// population — categorical when `schema` is set (freq), otherwise the
// numeric `dataset` — read through the deterministic --fault-* injector
// when any of its rates is nonzero.
struct Population {
  std::string input;
  const hdldp::freq::CategoricalSchema* schema = nullptr;
  const Choices<SpecFor>* dataset = &kDatasets[0];
  bool chunk_keyed = false;
  std::size_t users = 0;
  std::size_t dims = 0;
  double zipf = 1.0;
  std::uint64_t fault_seed = 0;
  hdldp::data::FaultSchedule::RandomOptions faults;

  /// What the run header prints as the dataset.
  const char* Label() const {
    return input.empty() ? dataset->first : input.c_str();
  }
};

// The run flags shared by mean/freq/variance, parsed once into the
// options base every batch pipeline derives from: --epsilon, --seed,
// --threads, --seed-scheme, the retry policy, --allow-missing-chunks and
// --checkpoint; the --fault-* injection settings go to `population`.
void ParseRunFlags(Flags* flags, hdldp::protocol::PipelineOptions* opts,
                   Population* population) {
  opts->total_epsilon = flags->GetDouble("epsilon", 1.0);
  opts->seed = flags->GetSize("seed", 1);
  opts->num_threads = flags->GetSize("threads", 1);
  opts->seed_scheme =
      flags->GetChoice("seed-scheme", "v3", kSeedSchemes).second;
  opts->retry.max_attempts =
      static_cast<int>(flags->GetSize("max-attempts", 1, 1));
  opts->retry.initial_backoff_ms = flags->GetSize("backoff-ms", 0);
  opts->retry.max_total_backoff_ms =
      flags->GetSize("max-total-backoff-ms", 0);
  opts->allow_missing_chunks = flags->GetBool("allow-missing-chunks");
  opts->checkpoint_path = flags->GetString("checkpoint", "");
  population->fault_seed = flags->GetSize("fault-seed", 0);
  hdldp::data::FaultSchedule::RandomOptions& faults = population->faults;
  faults.transient_rate = flags->GetRate("fault-transient-rate");
  faults.persistent_rate = flags->GetRate("fault-persistent-rate");
  faults.bit_flip_rate = flags->GetRate("fault-bitflip-rate");
  faults.failing_attempts =
      static_cast<int>(flags->GetSize("fault-failing-attempts", 1, 1));
}

// Write-path fault-injection flags (generate: shard part files;
// serve/replay: snapshot records). Same deterministic seed-keyed
// contract as the read-side --fault-* family.
hdldp::WriteFaultSchedule ParseWriteFaultFlags(Flags* flags) {
  const std::uint64_t seed = flags->GetSize("write-fault-seed", 0);
  hdldp::WriteFaultSchedule::RandomOptions random;
  random.short_write_rate = flags->GetRate("write-fault-short-rate");
  random.no_space_rate = flags->GetRate("write-fault-nospace-rate");
  random.fsync_failure_rate = flags->GetRate("write-fault-fsync-rate");
  return hdldp::WriteFaultSchedule(seed, random);
}

// Reports the fault-tolerance outcome of a run in a stable, greppable
// form (CI asserts on these lines).
void PrintFaultOutcome(bool resumed, std::size_t quarantined_chunks,
                       std::size_t surviving_users) {
  if (resumed) std::printf("resumed from checkpoint\n");
  if (quarantined_chunks > 0) {
    std::printf("quarantined %zu chunks; surviving users %zu\n",
                quarantined_chunks, surviving_users);
  }
}

// --input reads the population, geometry included, from the shard
// headers; the in-memory population flags `keys` contradict it.
void RejectWithInput(Flags* flags, const Population& population,
                     std::initializer_list<const char*> keys) {
  if (population.input.empty()) return;
  for (const char* key : keys) {
    if (flags->Has(key)) {
      flags->Reject(key, "--input reads the population from the shard "
                         "directory; drop this flag");
    }
  }
}

// The numeric population flags of mean and variance.
Population NumericPopulation(Flags* flags, const char* dataset,
                             std::size_t dims) {
  Population population;
  population.input = flags->GetString("input", "");
  population.dataset = &flags->GetChoice("dataset", dataset, kDatasets);
  population.chunk_keyed = flags->GetBool("chunk-keyed");
  population.users = flags->GetSize("users", 20000);
  population.dims = flags->GetSize("dims", dims);
  RejectWithInput(flags, population, {"dataset", "users", "dims",
                                      "chunk-keyed"});
  return population;
}

// Owns the population a run reads — an opened shard directory, a
// chunk-keyed generator, or a resident numeric or categorical dataset —
// and the --fault-* injector in front of it; `source` is what the run
// reads. The members hold self-referential pointers once resolved, so a
// holder must stay where ResolveSource filled it (it is neither copied
// nor moved).
struct SourceHolder {
  std::optional<hdldp::data::ShardFileSource> shard;
  std::optional<hdldp::data::GeneratorChunkSource> generated;
  std::optional<hdldp::data::Dataset> dataset;
  std::optional<hdldp::data::ResidentChunkSource> resident;
  std::optional<hdldp::freq::CategoricalDataset> categorical;
  std::optional<hdldp::freq::CategoricalChunkSource> categorical_rows;
  std::optional<hdldp::data::FaultInjectingChunkSource> faulty;
  const hdldp::data::ChunkSource* source = nullptr;
};

// The one population resolver of mean, variance, freq and generate.
// Numeric populations draw from `seed ^ numeric_tag`, the verb's data
// seed; `generate` applies mean's tag, so a chunk-keyed in-memory mean
// and a `generate` + `--input` mean of the same --seed see identical
// values.
Status ResolveSource(const Population& population, std::uint64_t seed,
                     std::uint64_t numeric_tag, SourceHolder* out) {
  const hdldp::data::ChunkSource* base = nullptr;
  const hdldp::data::GeneratorSpec spec =
      population.dataset->second(population.users, population.dims);
  if (!population.input.empty()) {
    HDLDP_ASSIGN_OR_RETURN(
        out->shard, hdldp::data::ShardFileSource::Open(population.input));
    base = &*out->shard;
  } else if (population.schema != nullptr) {
    // Category indices from the Rng(seed ^ 0xF8E0) stream, shared by
    // freq and `generate --dataset=categorical`, so `freq --input=<out>
    // --seed=S` reproduces `freq --seed=S` bit for bit.
    hdldp::Rng rng(seed ^ 0xF8E0ull);
    HDLDP_ASSIGN_OR_RETURN(
        out->categorical,
        hdldp::freq::GenerateCategorical(population.users, *population.schema,
                                         population.zipf, &rng));
    base = &out->categorical_rows.emplace(&*out->categorical);
  } else if (population.chunk_keyed) {
    HDLDP_ASSIGN_OR_RETURN(
        out->generated,
        hdldp::data::GeneratorChunkSource::Create(spec, seed ^ numeric_tag));
    base = &*out->generated;
  } else {
    hdldp::Rng rng(seed ^ numeric_tag);
    HDLDP_ASSIGN_OR_RETURN(out->dataset,
                           hdldp::data::GenerateSequential(spec, &rng));
    base = &out->resident.emplace(&*out->dataset);
  }
  out->source = base;
  const hdldp::data::FaultSchedule::RandomOptions& faults = population.faults;
  if (faults.transient_rate > 0.0 || faults.persistent_rate > 0.0 ||
      faults.bit_flip_rate > 0.0) {
    out->source = &out->faulty.emplace(
        base, hdldp::data::FaultSchedule::Random(
                  population.fault_seed, base->num_chunks(), faults));
  }
  return Status::OK();
}

Status RunMean(Flags flags) {
  const std::string mech_name = flags.GetString("mechanism", "piecewise");
  Population population = NumericPopulation(&flags, "uniform", 128);
  hdldp::protocol::PipelineOptions opts;
  ParseRunFlags(&flags, &opts, &population);
  opts.report_dims = flags.GetSize("report-dims", 0);
  HDLDP_ASSIGN_OR_RETURN(opts.encoding,
                         hdldp::protocol::ParseReportEncoding(
                             flags.GetString("encoding", "dense")));
  // Bit r selects regularizer r of the HDR4ME loop below.
  const Choices<int> kRecalibrate[] = {
      {"both", 3}, {"l1", 1}, {"l2", 2}, {"none", 0}};
  const int recalibrate =
      flags.GetChoice("recalibrate", "both", kRecalibrate).second;
  const bool gate = flags.GetBool("gate");
  const bool print_estimate = flags.GetBool("print-estimate");
  HDLDP_RETURN_NOT_OK(flags.Check());

  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(population, opts.seed, 0xDA7Aull, &data));
  const std::size_t users = data.source->num_users();
  const std::size_t dims = data.source->num_dims();
  const std::size_t m = opts.report_dims == 0 ? dims : opts.report_dims;
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));
  HDLDP_ASSIGN_OR_RETURN(
      const auto run,
      hdldp::protocol::RunMeanEstimation(*data.source, mechanism, opts));

  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g m=%zu "
              "encoding=%s\n",
              mech_name.c_str(), population.Label(), users, dims,
              opts.total_epsilon, m,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome(run.resumed_from_checkpoint,
                    run.quarantined_chunks.size(), run.surviving_users);
  std::printf("%-24s %12.6g\n", "naive MSE", run.mse);
  if (print_estimate) {
    // Full-precision estimate, one dimension per line: CI resume tests
    // diff this output to assert bit-identical results.
    for (std::size_t j = 0; j < dims; ++j) {
      std::printf("estimate[%zu]=%.17g\n", j, run.estimated_mean[j]);
    }
  }

  if (recalibrate == 0) return Status::OK();
  if (opts.encoding == hdldp::protocol::ReportEncoding::kHadamard1) {
    // The deviation model below describes the numeric mechanism's
    // perturbation; the 1-bit path has no mechanism, so HDR4ME
    // re-calibration is not offered (naive MSE above is the result).
    std::printf("recalibration skipped: hadamard1 has no value mechanism\n");
    return Status::OK();
  }
  const double reports = static_cast<double>(users) *
                         static_cast<double>(m) / static_cast<double>(dims);
  HDLDP_ASSIGN_OR_RETURN(
      const std::vector<hdldp::framework::GaussianDeviation> deviations,
      hdldp::hdr4me::MarginalDeviations(*data.source, run.quarantined_chunks,
                                        *mechanism, run.per_dim_epsilon,
                                        reports));
  HDLDP_ASSIGN_OR_RETURN(const double predicted,
                         hdldp::framework::PredictedMse(deviations));
  std::printf("%-24s %12.6g\n", "framework-predicted MSE", predicted);

  const Choices<hdldp::hdr4me::Regularizer> kRegularizers[] = {
      {"l1", hdldp::hdr4me::Regularizer::kL1},
      {"l2", hdldp::hdr4me::Regularizer::kL2}};
  for (int r = 0; r < 2; ++r) {
    if ((recalibrate & (1 << r)) == 0) continue;
    hdldp::hdr4me::Hdr4meOptions h;
    h.regularizer = kRegularizers[r].second;
    h.lambda.gate_on_threshold = gate;
    HDLDP_ASSIGN_OR_RETURN(
        const auto result,
        hdldp::hdr4me::Recalibrate(run.estimated_mean, deviations, h));
    HDLDP_ASSIGN_OR_RETURN(const double mse,
                           hdldp::protocol::MeanSquaredError(
                               result.enhanced_mean, run.true_mean));
    std::printf("HDR4ME-%s%s MSE%*s %12.6g  (%zu dims zeroed)\n",
                kRegularizers[r].first, gate ? " (gated)" : "",
                gate ? 5 : 13, "", mse, result.zeroed_dims);
  }
  HDLDP_ASSIGN_OR_RETURN(const double p_l1,
                         hdldp::hdr4me::ImprovementProbabilityL1(deviations));
  std::printf("%-24s %12.6g\n", "Theorem 3 lower bound", p_l1);
  return Status::OK();
}

Status RunFreq(Flags flags) {
  const std::string mech_name = flags.GetString("mechanism", "piecewise");
  Population population;
  population.input = flags.GetString("input", "");
  population.users = flags.GetSize("users", 20000);
  population.zipf = flags.GetDouble("zipf", 1.0);
  // The shard stores indices, the schema the cardinalities: --input
  // keeps --questions/--categories.
  RejectWithInput(&flags, population, {"users", "zipf"});
  const std::size_t questions = flags.GetSize("questions", 16);
  const std::size_t categories = flags.GetSize("categories", 8);
  hdldp::freq::FrequencyOptions opts;
  ParseRunFlags(&flags, &opts, &population);
  opts.report_dims = flags.GetSize("sampled", 0);
  HDLDP_ASSIGN_OR_RETURN(opts.encoding,
                         hdldp::protocol::ParseReportEncoding(
                             flags.GetString("encoding", "dense")));
  HDLDP_RETURN_NOT_OK(flags.Check());

  HDLDP_ASSIGN_OR_RETURN(const auto schema,
                         hdldp::freq::CategoricalSchema::Create(
                             std::vector<std::size_t>(questions, categories)));
  population.schema = &schema;
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));
  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(population, opts.seed, 0, &data));
  HDLDP_ASSIGN_OR_RETURN(const auto result,
                         hdldp::freq::RunFrequencyEstimation(
                             *data.source, schema, mechanism, opts));
  std::printf("mechanism=%s users=%zu questions=%zu categories=%zu eps=%g "
              "eps/entry=%g encoding=%s\n",
              mech_name.c_str(), data.source->num_users(), questions,
              categories, opts.total_epsilon, result.per_entry_epsilon,
              hdldp::protocol::ReportEncodingName(opts.encoding));
  PrintFaultOutcome(result.resumed_from_checkpoint,
                    result.quarantined_chunks.size(), result.surviving_users);
  std::printf("%-24s %12.6g\n", "naive MSE", result.mse_raw);
  std::printf("%-24s %12.6g\n", "HDR4ME MSE", result.mse_recalibrated);
  return Status::OK();
}

Status RunAnalyze(Flags flags) {
  const double eps = flags.GetDouble("epsilon", 0.001);
  const double reports = flags.GetDouble("reports", 10000.0);
  const std::vector<double> xis =
      flags.GetDoubleList("xi", {0.001, 0.01, 0.05, 0.1});
  HDLDP_RETURN_NOT_OK(flags.Check());

  std::vector<double> values;
  for (int k = 1; k <= 10; ++k) values.push_back(0.1 * k);
  HDLDP_ASSIGN_OR_RETURN(const auto dist,
                         hdldp::framework::ValueDistribution::Create(
                             values, std::vector<double>(10, 0.1)));
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
  Population population = NumericPopulation(&flags, "gaussian", 64);
  hdldp::hdr4me::VarianceOptions opts;
  ParseRunFlags(&flags, &opts, &population);
  opts.recalibrate = flags.GetBool("recalibrate");
  HDLDP_RETURN_NOT_OK(flags.Check());

  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(population, opts.seed, 0x5ECull, &data));
  const std::size_t dims = data.source->num_dims();
  HDLDP_ASSIGN_OR_RETURN(auto mechanism,
                         hdldp::mech::MakeMechanism(mech_name));
  HDLDP_ASSIGN_OR_RETURN(
      const auto result,
      hdldp::hdr4me::RunVarianceEstimation(*data.source, mechanism, opts));
  std::printf("mechanism=%s dataset=%s users=%zu dims=%zu eps=%g "
              "recalibrate=%d\n",
              mech_name.c_str(), population.Label(),
              data.source->num_users(), dims, opts.total_epsilon,
              opts.recalibrate ? 1 : 0);
  PrintFaultOutcome(result.resumed_from_checkpoint,
                    result.quarantined_values_chunks.size() +
                        result.quarantined_squares_chunks.size(),
                    result.surviving_users);
  std::printf("%-24s %12.6g\n", "variance MSE", result.mse);
  std::printf("first dims (true vs estimated variance):\n");
  for (std::size_t j = 0; j < std::min<std::size_t>(4, dims); ++j) {
    std::printf("  dim %zu: %10.5f vs %10.5f\n", j, result.true_variance[j],
                result.estimated_variance[j]);
  }
  return Status::OK();
}

// Streams a population into a shard directory without materializing it
// (numeric datasets come from the chunk-keyed generator under mean's data
// seed; categorical ones are freq's population).
Status RunGenerate(Flags flags) {
  const std::string out = flags.GetString("out", "");
  const bool categorical =
      flags.GetString("dataset", "uniform") == "categorical";
  Population population;
  population.chunk_keyed = true;
  if (!categorical) {
    population.dataset = &flags.GetChoice("dataset", "uniform", kDatasets);
  }
  population.users = flags.GetSize("users", 20000);
  population.dims = flags.GetSize("dims", 16);
  population.zipf = flags.GetDouble("zipf", 1.0);
  const std::uint64_t seed = flags.GetSize("seed", 1);
  const std::size_t questions = flags.GetSize("questions", 16);
  const std::size_t categories = flags.GetSize("categories", 8);
  hdldp::data::ShardWriterOptions shard_opts;
  shard_opts.chunks_per_file = flags.GetSize("chunks-per-file", 1024, 1);
  shard_opts.write_faults = ParseWriteFaultFlags(&flags);
  HDLDP_RETURN_NOT_OK(flags.Check());
  if (out.empty()) {
    return Status::InvalidArgument("generate requires --out=<shard-dir>");
  }

  std::optional<hdldp::freq::CategoricalSchema> schema;
  if (categorical) {
    HDLDP_ASSIGN_OR_RETURN(
        schema, hdldp::freq::CategoricalSchema::Create(
                    std::vector<std::size_t>(questions, categories)));
    population.schema = &*schema;
  }
  SourceHolder data;
  HDLDP_RETURN_NOT_OK(ResolveSource(population, seed, 0xDA7Aull, &data));
  HDLDP_ASSIGN_OR_RETURN(const std::size_t rows,
                         hdldp::data::WriteShards(*data.source, out,
                                                  shard_opts));
  std::printf("wrote %zu users x %zu %sdims to %s\n", rows,
              categorical ? questions : population.dims,
              categorical ? "categorical " : "", out.c_str());
  return Status::OK();
}

// serve/replay: drive a deterministic report stream through the online
// aggregation service. `replay` pins the deterministic golden path (one
// worker, lossless backpressure); `serve` exercises the concurrent one.
Status RunServe(Flags flags, bool replay) {
  const Choices<hdldp::service::StreamWorkload> kWorkloads[] = {
      {"mean", hdldp::service::StreamWorkload::kMean},
      {"freq", hdldp::service::StreamWorkload::kFreq}};
  const Choices<hdldp::service::StreamWorkload>& workload =
      flags.GetChoice("workload", "mean", kWorkloads);
  hdldp::service::ReportStreamOptions stream_options;
  stream_options.workload = workload.second;
  stream_options.mechanism = flags.GetString("mechanism", "duchi");
  stream_options.num_reports = flags.GetSize("reports", 10000);
  stream_options.epsilon = flags.GetDouble("epsilon", 1.0);
  stream_options.report_dims = flags.GetSize("report-dims", 0);
  stream_options.seed = flags.GetSize("seed", 1);
  stream_options.num_tenants = flags.GetSize("tenants", 4);
  stream_options.reports_per_tick = flags.GetSize("reports-per-tick", 0);
  if (workload.second == hdldp::service::StreamWorkload::kMean) {
    stream_options.num_dims = flags.GetSize("dims", 8);
  } else {
    stream_options.num_dims = flags.GetSize("questions", 4);
    stream_options.num_categories = flags.GetSize("categories", 4);
  }
  stream_options.faults.drop_rate = flags.GetRate("fault-drop-rate");
  stream_options.faults.duplicate_rate = flags.GetRate("fault-duplicate-rate");
  stream_options.faults.reorder_rate = flags.GetRate("fault-reorder-rate");
  stream_options.faults.reorder_delay =
      flags.GetSize("fault-reorder-delay", 3);
  stream_options.fault_seed = flags.GetSize("fault-seed", 0);
  HDLDP_ASSIGN_OR_RETURN(stream_options.encoding,
                         hdldp::protocol::ParseReportEncoding(
                             flags.GetString("encoding", "dense")));
  const double tenant_budget = flags.GetDouble("tenant-budget", 0.0);
  const std::string checkpoint = flags.GetString("checkpoint", "");
  const std::size_t snapshot_every = flags.GetSize("snapshot-every", 0);
  const std::size_t kill_after = flags.GetSize("kill-after", 0);
  const bool print_estimate = flags.GetBool("print-estimate");

  // The stream generator emits per-report scalar Rng streams — the v1
  // contract. v2/v3 name the engine's lane/batched contracts, which have
  // no per-report envelope form; refusing them loudly mirrors the freq
  // v1 --checkpoint rejection.
  if (flags.GetChoice("seed-scheme", "v1", kSeedSchemes).second !=
      hdldp::SeedScheme::kV1Scalar) {
    flags.Reject("seed-scheme",
                 "serve/replay ingest per-report scalar streams: v1 is the "
                 "only supported scheme (v2/v3 are engine lane contracts "
                 "with no per-report envelope form)");
  }

  hdldp::service::ServiceOptions service_options;
  if (replay) {
    service_options.num_workers = 1;
    service_options.overload = hdldp::service::OverloadPolicy::kBlock;
  } else {
    const Choices<hdldp::service::OverloadPolicy> kOverloads[] = {
        {"shed", hdldp::service::OverloadPolicy::kShed},
        {"block", hdldp::service::OverloadPolicy::kBlock}};
    service_options.num_workers =
        flags.GetSize("threads", 0, 0, hdldp::service::kNumShardGroups);
    service_options.queue_capacity = flags.GetSize("queue-capacity", 1024);
    service_options.overload =
        flags.GetChoice("overload", "shed", kOverloads).second;
  }
  service_options.window.width = flags.GetSize("window-width", 1);
  service_options.window.slide = flags.GetSize("window-slide", 0);
  service_options.window.lateness = flags.GetSize("window-lateness", 0);
  service_options.tenant_epsilon = tenant_budget;
  service_options.checkpoint_path = checkpoint;
  service_options.max_invalid_per_tenant =
      flags.GetSize("max-invalid-per-tenant", 0);
  service_options.snapshot_write_faults = ParseWriteFaultFlags(&flags);
  HDLDP_RETURN_NOT_OK(flags.Check());

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
                  workload.first,
                  hdldp::protocol::ReportEncodingName(stream_options.encoding),
                  stream_options.mechanism.c_str(),
                  static_cast<unsigned long long>(stream_options.num_reports),
                  stream_options.epsilon, stream_options.report_dims,
                  static_cast<unsigned long long>(stream_options.seed),
                  static_cast<unsigned long long>(stream_options.num_tenants),
                  static_cast<unsigned long long>(
                      stream_options.reports_per_tick),
                  stream_options.faults.drop_rate,
                  stream_options.faults.duplicate_rate,
                  stream_options.faults.reorder_rate,
                  stream_options.faults.reorder_delay,
                  static_cast<unsigned long long>(stream_options.fault_seed));
    service_options.digest_tag = tag;
  }

  const hdldp::service::WindowConfig window = service_options.window;
  HDLDP_ASSIGN_OR_RETURN(
      const auto service,
      hdldp::service::AggregationService::Create(std::move(service_options)));
  std::printf("service workload=%s mechanism=%s reports=%llu tenants=%llu "
              "workers=%zu window=%llu/%llu+%llu\n",
              workload.first, stream_options.mechanism.c_str(),
              static_cast<unsigned long long>(stream_options.num_reports),
              static_cast<unsigned long long>(stream_options.num_tenants),
              service->num_workers(),
              static_cast<unsigned long long>(window.width),
              static_cast<unsigned long long>(window.slide),
              static_cast<unsigned long long>(window.lateness));
  if (service->resumed()) {
    std::printf("resumed from checkpoint\n");
    HDLDP_RETURN_NOT_OK(stream.SkipTo(service->resume_cursor()));
  }

  const std::uint64_t reports_per_tick = stream_options.reports_per_tick;
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
  const std::pair<const char*, std::uint64_t> stats[] = {
      {"submitted", s.submitted}, {"accepted", s.accepted},
      {"accepted_payload_bytes", s.accepted_payload_bytes},
      {"deduped", s.deduped}, {"shed_queue_full", s.shed_queue_full},
      {"shed_late", s.shed_late}, {"shed_quarantined", s.shed_quarantined},
      {"rejected_malformed", s.rejected_malformed},
      {"rejected_invalid", s.rejected_invalid},
      {"rejected_budget", s.rejected_budget},
      {"quarantined_tenants", s.quarantined_tenants},
      {"failed_snapshots", s.failed_snapshots},
      {"degraded", s.degraded ? 1u : 0u},
      {"published_windows", s.published_windows},
      {"published_reports", s.published_reports}};
  std::printf("stats");
  for (const auto& [name, value] : stats) {
    std::printf(" %s=%llu", name, static_cast<unsigned long long>(value));
  }
  std::printf("\n");
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

// The verbs, in the order the usage line lists them.
const Choices<Status (*)(Flags)> kVerbs[] = {
    {"mean", RunMean},
    {"freq", RunFreq},
    {"analyze", RunAnalyze},
    {"variance", RunVariance},
    {"generate", RunGenerate},
    {"serve", [](Flags flags) { return RunServe(std::move(flags), false); }},
    {"replay", [](Flags flags) { return RunServe(std::move(flags), true); }},
};

void PrintUsage(std::FILE* stream) {
  std::fprintf(stream,
               "usage: hdldp_cli <%s> [--key=value ...]\n"
               "see the header of tools/hdldp_cli.cc for the flag list\n"
               "exit codes: 0 success, 2 usage, 3 invalid configuration, "
               "4 data loss / I/O failure, 5 resource exhausted\n",
               Names(kVerbs).c_str());
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
  for (const auto& [name, run] : kVerbs) {
    if (command != name) continue;
    const Status status = run(std::move(flags_or).value());
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return ExitCodeFor(status);
    }
    return 0;
  }
  PrintUsage(stderr);
  return 2;
}
