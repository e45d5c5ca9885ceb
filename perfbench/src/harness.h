// Shared plumbing of the end-to-end benchmark: command-line options,
// timing and sample statistics, the result report printed on stdout,
// the per-run scratch directory, and machine metadata.
//
// Output contract (perfbench/run.py validates it against BENCHMARK.json):
// every line before the last is a human-readable or JSON detail line;
// the last line is one JSON object with exactly the keys `correct`,
// `attempted`, `failed` and `metrics`.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty input.
double Median(std::vector<double> values);

/// Linear-interpolated quantile q in [0, 1] of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// \brief Cumulative CPU time of the whole machine, in clock ticks
/// (/proc/stat): `steal` is time the hypervisor ran something else while
/// a virtual CPU wanted to run; `total` sums every state.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
CpuTicks ReadCpuTicks();

/// Share of CPU time stolen by the host between `before` and `after`.
double StealFraction(const CpuTicks& before, const CpuTicks& after);

/// \brief Indices of the quieter half of the kept iterations: skips the
/// `warmup` leading entries of `steal` (each iteration's StealFraction)
/// and returns the ceil(half) of the rest with the least host steal, in
/// iteration order. An iteration the hypervisor preempted measured the
/// host as much as the program; this is how one host burst is kept out
/// of a median while every sample stays recorded next to it.
std::vector<std::size_t> QuietIterations(const std::vector<double>& steal,
                                         std::size_t warmup);

/// Median of `values` over QuietIterations(steal, warmup).
double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, std::size_t warmup);

/// \brief Runs `body(warmup)` `warmup` times with warmup = true, then
/// with warmup = false until `seconds` have passed since the first call
/// and at least `min_kept` kept calls ran. `body` returns a Status and
/// records its own samples; the first error stops the loop.
template <typename Body>
hdldp::Status RepeatFor(double seconds, std::size_t warmup,
                        std::size_t min_kept, Body&& body) {
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < warmup; ++i) {
    HDLDP_RETURN_NOT_OK(body(true));
  }
  for (std::size_t kept = 0; kept < min_kept || SecondsSince(start) < seconds;
       ++kept) {
    HDLDP_RETURN_NOT_OK(body(false));
  }
  return hdldp::Status::OK();
}

/// Parsed command line of one benchmark run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Length of the timed phase.
  double seconds = 10.0;
  /// false: end-to-end metrics (tracing off); true: per-layer metrics
  /// from the traced run.
  bool trace = false;
  /// Fails one correctness check on purpose (self-test of the gate).
  bool force_check_failure = false;
  /// Directory under which the run's scratch directory (shards,
  /// service checkpoints) is created.
  std::string scratch_root = ".bench_build/scratch";
  /// Where the traced run writes its span file ("" = don't write).
  std::string trace_dir;
  /// Worker threads of the batch workloads: min(4, hardware threads).
  std::size_t threads = 1;
};

/// Parses `--workload <w> --seed <n> --seconds <s> --trace <0|1>` plus
/// the benchmark's own optional flags.
hdldp::Result<Options> ParseOptions(int argc, char** argv);

/// \brief Everything one run reports: the operation ledger, the gated
/// metrics, every timed sample behind them, and machine metadata.
class Report {
 public:
  /// Counts one correctness check as an attempted operation; a failed
  /// check also counts as failed and clears `correct`.
  void Check(bool ok, const std::string& what);
  /// Adds `attempted` operations of which `failed` failed (a failed
  /// operation does not by itself clear `correct`).
  void Operations(std::uint64_t attempted, std::uint64_t failed);
  /// A gated metric of the final line.
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Every sample behind a metric, in the order measured (warm-up
  /// iterations included, flagged by `warmup` leading entries).
  void Samples(const std::string& name, std::vector<double> values,
               std::size_t warmup);
  void Meta(const std::string& key, const std::string& value);
  void Meta(const std::string& key, double value);

  bool correct() const { return failures_.empty(); }

  /// Prints the detail line (metadata + samples + failed checks) and
  /// then the final result line.
  void Print() const;

 private:
  struct SampleSet {
    std::string name;
    std::vector<double> values;
    std::size_t warmup = 0;
  };
  struct MetricValue {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<MetricValue> metrics_;
  std::vector<SampleSet> samples_;
  std::vector<std::pair<std::string, std::string>> meta_;  // JSON values
};

/// \brief The run's private scratch directory, removed with everything
/// in it when the object dies.
class ScratchDir {
 public:
  /// Creates `<root>/perfbench-<pid>` (emptied first).
  static hdldp::Result<ScratchDir> Create(const std::string& root);
  ScratchDir(ScratchDir&& other) noexcept;
  ScratchDir& operator=(ScratchDir&&) = delete;
  ScratchDir(const ScratchDir&) = delete;
  ~ScratchDir();

  const std::string& path() const { return path_; }
  /// "tmpfs" or "disk": the file system the directory actually lives on.
  const std::string& fs_kind() const { return fs_kind_; }
  /// `path()/name`.
  std::string Join(const std::string& name) const;

 private:
  ScratchDir(std::string path, std::string fs_kind)
      : path_(std::move(path)), fs_kind_(std::move(fs_kind)) {}
  std::string path_;
  std::string fs_kind_;
};

/// Removes a file or directory tree, ignoring errors.
void RemoveAll(const std::string& path);

/// Peak resident set size of this process (VmHWM) in MiB.
double PeakRssMiB();

/// Sustainable single-thread read bandwidth in GB/s over an array of at
/// least four times the last-level cache, measured in a forked child so
/// the probe's memory never shows in this process's peak RSS. Call
/// before any thread is started.
double ProbeReadBandwidthGBps();

/// Records CPU model, hardware threads, SIMD build, scratch file system
/// and the bandwidth probe in `report`'s metadata.
void RecordMachine(const Options& options, const ScratchDir& scratch,
                   double read_gbps, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
