#include "trace.h"

#include <cstdio>

namespace perfbench {

std::uint32_t Tracer::Intern(std::string_view name) {
  for (std::uint32_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return i;
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::uint32_t Tracer::Open(std::uint32_t name) {
  SpanRecord span;
  span.name = name;
  span.parent = stack_.empty() ? kNoParent : stack_.back();
  span.request = request_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto index = static_cast<std::uint32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::Close(std::uint32_t span) {
  spans_[span].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::vector<double> Tracer::SelfSeconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = 1e-9 * static_cast<double>(spans_[i].end_ns -
                                         spans_[i].start_ns);
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent != kNoParent) {
      self[span.parent] -=
          1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return self;
}

std::map<std::string, Tracer::LayerTime> Tracer::Layers(
    std::uint64_t request) const {
  const std::vector<double> self = SelfSeconds();
  std::map<std::string, LayerTime> layers;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (span.request != request) continue;
    LayerTime& layer = layers[names_[span.name]];
    layer.self_s += self[i];
    layer.total_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  }
  return layers;
}

double Tracer::RootSeconds(std::uint64_t request) const {
  for (const SpanRecord& span : spans_) {
    if (span.request == request && span.parent == kNoParent) {
      return 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  return 0.0;
}

double Tracer::CoveredSeconds(std::uint64_t request) const {
  const std::vector<double> self = SelfSeconds();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].request == request && spans_[i].parent == kNoParent) {
      return 1e-9 * static_cast<double>(spans_[i].end_ns -
                                        spans_[i].start_ns) -
             self[i];
    }
  }
  return 0.0;
}

hdldp::Status Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return hdldp::Status::Internal("cannot write trace file " + path);
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(out,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                 "\"request\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 i, names_[span.name].c_str(),
                 span.parent == kNoParent
                     ? -1LL
                     : static_cast<long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(out) == 0
             ? hdldp::Status::OK()
             : hdldp::Status::Internal("cannot close trace file " + path);
}

}  // namespace perfbench
