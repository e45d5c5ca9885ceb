#include "harness.h"

#include <sys/statfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

constexpr long kTmpfsMagic = 0x01021994;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

// Full-precision JSON number; non-finite values have no JSON spelling
// and are printed as null (Report::Metric turns them into a failed
// check first).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// `values` without its first `warmup` entries (the warm-up samples).
std::vector<double> Kept(const std::vector<double>& values,
                         std::size_t warmup) {
  return std::vector<double>(
      values.begin() +
          static_cast<std::ptrdiff_t>(std::min(warmup, values.size())),
      values.end());
}

bool IsTmpfs(const std::string& path) {
  struct statfs fs;
  return statfs(path.c_str(), &fs) == 0 &&
         static_cast<long>(fs.f_type) == kTmpfsMagic;
}

std::size_t LastLevelCacheBytes() {
  std::size_t best = 0;
  for (int index = 0; index < 8; ++index) {
    std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index" +
                     std::to_string(index) + "/size");
    std::string text;
    if (!(in >> text) || text.empty()) continue;
    std::size_t value = std::strtoull(text.c_str(), nullptr, 10);
    const char unit = text.back();
    if (unit == 'K') value <<= 10;
    if (unit == 'M') value <<= 20;
    best = std::max(best, value);
  }
  return best;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

// Child side of the bandwidth probe: the median of three read passes
// (after one warm-up pass) over a first-touched array, summed so the
// loads cannot be elided.
double MeasureReadBandwidth(std::size_t bytes) {
  const std::size_t words = bytes / sizeof(std::uint64_t);
  std::vector<std::uint64_t> data(words);
  for (std::size_t i = 0; i < words; ++i) data[i] = i;
  std::vector<double> passes;
  std::uint64_t sink = 0;
  for (int pass = 0; pass < 4; ++pass) {
    const Clock::time_point start = Clock::now();
    std::uint64_t a = 0, b = 0, c = 0, d = 0;
    for (std::size_t i = 0; i + 4 <= words; i += 4) {
      a += data[i];
      b += data[i + 1];
      c += data[i + 2];
      d += data[i + 3];
    }
    sink += a ^ b ^ c ^ d;
    passes.push_back(static_cast<double>(words * sizeof(std::uint64_t)) /
                     SecondsSince(start) / 1e9);
  }
  if (sink == 42) std::fprintf(stderr, " ");  // Keeps `sink` live.
  passes.erase(passes.begin());  // First pass: warm-up.
  return Median(passes);
}

}  // namespace

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

CpuTicks ReadCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  CpuTicks ticks;
  if (!(in >> label) || label != "cpu") return ticks;
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already included in user/nice.
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(in >> value)) break;
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double StealFraction(const CpuTicks& before, const CpuTicks& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

std::vector<std::size_t> QuietIterations(const std::vector<double>& steal,
                                         std::size_t warmup) {
  std::vector<std::size_t> order;
  for (std::size_t i = warmup; i < steal.size(); ++i) order.push_back(i);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return steal[a] < steal[b];
                   });
  order.resize((order.size() + 1) / 2);
  std::sort(order.begin(), order.end());
  return order;
}

double QuietMedian(const std::vector<double>& values,
                   const std::vector<double>& steal, std::size_t warmup) {
  std::vector<double> quiet;
  for (const std::size_t i : QuietIterations(steal, warmup)) {
    quiet.push_back(values[i]);
  }
  return Median(quiet);
}

hdldp::Result<Options> ParseOptions(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--force-check-failure") {
      options.force_check_failure = true;
      continue;
    }
    if (i + 1 >= argc) {
      return hdldp::Status::InvalidArgument("unknown flag or missing value: " +
                                            arg);
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        return hdldp::Status::InvalidArgument("--trace takes 0 or 1");
      }
      options.trace = value == "1";
    } else if (arg == "--scratch-root") {
      options.scratch_root = value;
    } else if (arg == "--trace-dir") {
      options.trace_dir = value;
    } else {
      return hdldp::Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (!have_workload) {
    return hdldp::Status::InvalidArgument("--workload is required");
  }
  if (!(options.seconds > 0.0)) {
    return hdldp::Status::InvalidArgument("--seconds must be > 0");
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  options.threads = std::min<std::size_t>(4, hw);
  return options;
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    failures_.push_back(what);
  }
}

void Report::Operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Check(std::isfinite(value), "metric " + name + " is finite");
  metrics_.push_back({name, value, unit});
}

void Report::Samples(const std::string& name, std::vector<double> values,
                     std::size_t warmup) {
  samples_.push_back({name, std::move(values), warmup});
}

void Report::Meta(const std::string& key, const std::string& value) {
  meta_.emplace_back(key, JsonString(value));
}

void Report::Meta(const std::string& key, double value) {
  meta_.emplace_back(key, JsonNumber(value));
}

void Report::Print() const {
  std::ostringstream detail;
  detail << "{\"meta\": {";
  for (std::size_t i = 0; i < meta_.size(); ++i) {
    detail << (i ? ", " : "") << JsonString(meta_[i].first) << ": "
           << meta_[i].second;
  }
  detail << "}, \"samples\": {";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const SampleSet& s = samples_[i];
    detail << (i ? ", " : "") << JsonString(s.name)
           << ": {\"warmup\": " << s.warmup
           << ", \"median\": " << JsonNumber(Median(Kept(s.values, s.warmup)))
           << ", \"values\": [";
    for (std::size_t k = 0; k < s.values.size(); ++k) {
      detail << (k ? ", " : "") << JsonNumber(s.values[k]);
    }
    detail << "]}";
  }
  detail << "}, \"failed_checks\": [";
  for (std::size_t i = 0; i < failures_.size(); ++i) {
    detail << (i ? ", " : "") << JsonString(failures_[i]);
  }
  detail << "]}";
  std::printf("%s\n", detail.str().c_str());

  std::ostringstream last;
  last << "{\"correct\": " << (correct() ? "true" : "false")
       << ", \"attempted\": " << std::max<std::uint64_t>(1, attempted_)
       << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    last << (i ? ", " : "") << JsonString(metrics_[i].name)
         << ": {\"value\": " << JsonNumber(metrics_[i].value)
         << ", \"unit\": " << JsonString(metrics_[i].unit) << "}";
  }
  last << "}}";
  std::printf("%s\n", last.str().c_str());
  std::fflush(stdout);
}

hdldp::Result<ScratchDir> ScratchDir::Create(const std::string& root) {
  std::error_code ec;
  std::filesystem::create_directories(root, ec);
  const std::string path =
      root + "/perfbench-" + std::to_string(getpid());
  RemoveAll(path);
  if (!std::filesystem::create_directory(path, ec)) {
    return hdldp::Status::Internal("cannot create scratch directory " +
                                   path + ": " + ec.message());
  }
  return ScratchDir(path, IsTmpfs(path) ? "tmpfs" : "disk");
}

ScratchDir::ScratchDir(ScratchDir&& other) noexcept
    : path_(std::move(other.path_)), fs_kind_(std::move(other.fs_kind_)) {
  other.path_.clear();
}

ScratchDir::~ScratchDir() {
  if (!path_.empty()) RemoveAll(path_);
}

std::string ScratchDir::Join(const std::string& name) const {
  return path_ + "/" + name;
}

void RemoveAll(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double ProbeReadBandwidthGBps() {
  const std::size_t llc = LastLevelCacheBytes();
  const std::size_t bytes =
      std::max<std::size_t>(4 * llc, std::size_t{256} << 20);
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t child = fork();
  if (child < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (child == 0) {
    close(fds[0]);
    const double gbps = MeasureReadBandwidth(bytes);
    const ssize_t wrote = write(fds[1], &gbps, sizeof(gbps));
    _exit(wrote == static_cast<ssize_t>(sizeof(gbps)) ? 0 : 1);
  }
  close(fds[1]);
  double gbps = 0.0;
  const ssize_t got = read(fds[0], &gbps, sizeof(gbps));
  close(fds[0]);
  int status = 0;
  waitpid(child, &status, 0);
  if (got != static_cast<ssize_t>(sizeof(gbps)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0.0;
  }
  return gbps;
}

void RecordMachine(const Options& options, const ScratchDir& scratch,
                   double read_gbps, Report* report) {
  report->Meta("workload", options.workload);
  report->Meta("seed", static_cast<double>(options.seed));
  report->Meta("trace", options.trace ? 1.0 : 0.0);
  report->Meta("cpu_model", CpuModel());
  report->Meta("nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  report->Meta("threads", static_cast<double>(options.threads));
#if defined(__AVX2__) && !defined(HDLDP_DISABLE_SIMD)
  report->Meta("simd", "avx2");
#else
  report->Meta("simd", "scalar");
#endif
  report->Meta("scratch_fs", scratch.fs_kind());
  report->Meta("llc_bytes", static_cast<double>(LastLevelCacheBytes()));
  report->Meta("bench.read_gbps", read_gbps);
}

}  // namespace perfbench
