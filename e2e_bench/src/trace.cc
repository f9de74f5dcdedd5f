#include "trace.h"

#include <cstdio>
#include <utility>

namespace scaddar::e2e {

Tracer::Tracer(std::string workload)
    : workload_(std::move(workload)),
      epoch_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

int32_t Tracer::Begin(const char* name, int64_t round) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.episode = episode_;
  span.phase = phase_;
  span.round = round;
  const auto index = static_cast<int32_t>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void Tracer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

bool Tracer::WriteChromeTrace(const std::string& path, int32_t episode) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out,
               "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
               "\"args\":{\"name\":\"%s\"}}",
               workload_.c_str());
  static constexpr const char* kPhases[] = {"setup", "ramp", "run"};
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.episode != episode) {
      continue;
    }
    std::fprintf(out,
                 ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"workload\":\"%s\",\"episode\":%d,"
                 "\"round\":%lld,\"a\":%lld,\"b\":%lld}}",
                 span.name, kPhases[static_cast<int>(span.phase)],
                 static_cast<double>(span.start_ns) * 1e-3,
                 span.duration_us(), i, span.parent, workload_.c_str(),
                 span.episode, static_cast<long long>(span.round),
                 static_cast<long long>(span.a),
                 static_cast<long long>(span.b));
  }
  std::fprintf(out, "\n]}\n");
  const bool write_ok = std::ferror(out) == 0;
  return std::fclose(out) == 0 && write_ok;
}

}  // namespace scaddar::e2e
