#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/json.h"

namespace perfbench {
namespace {

double DurationNs(const Span& span) {
  return static_cast<double>(span.end_ns - span.begin_ns);
}

}  // namespace

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kDoc:
      return "doc";
    case SpanName::kFeed:
      return "xml.feed";
    case SpanName::kFinish:
      return "xml.finish";
    case SpanName::kReplay:
      return "core.replay";
    case SpanName::kResult:
      return "core.result";
    case SpanName::kTokenize:
      return "xml.tokenize";
    case SpanName::kCapture:
      return "xml.capture";
  }
  return "unknown";
}

SpanTotals SumSpans(const std::vector<Span>& spans) {
  std::vector<double> child_ns(spans.size(), 0.0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += DurationNs(span);
    }
  }
  SpanTotals totals;
  for (size_t i = 0; i < spans.size(); ++i) {
    size_t name = static_cast<size_t>(spans[i].name);
    totals.total_ns[name] += DurationNs(spans[i]);
    totals.self_ns[name] += DurationNs(spans[i]) - child_ns[i];
  }
  return totals;
}

std::string SpanStatsJson(const std::vector<Span>& spans) {
  struct Moments {
    uint64_t count = 0;
    double sum = 0, sum_sq = 0, min = 0, max = 0;
  };
  std::array<Moments, kSpanNames> moments{};
  for (const Span& span : spans) {
    Moments& m = moments[static_cast<size_t>(span.name)];
    double us = DurationNs(span) / 1e3;
    m.min = m.count == 0 ? us : std::min(m.min, us);
    m.max = m.count == 0 ? us : std::max(m.max, us);
    ++m.count;
    m.sum += us;
    m.sum_sq += us * us;
  }
  std::string out = "{";
  bool first = true;
  for (size_t i = 0; i < kSpanNames; ++i) {
    const Moments& m = moments[i];
    if (m.count == 0) continue;
    double n = static_cast<double>(m.count);
    double mean = m.sum / n;
    double variance = std::max(0.0, m.sum_sq / n - mean * mean);
    if (!first) out += ",";
    first = false;
    out += "\"";
    out += SpanNameString(static_cast<SpanName>(i));
    out += "\":{\"count\":" + std::to_string(m.count) +
           ",\"mean_us\":" + xaos::obs::JsonNumber(mean) +
           ",\"min_us\":" + xaos::obs::JsonNumber(m.min) +
           ",\"max_us\":" + xaos::obs::JsonNumber(m.max) +
           ",\"stddev_us\":" + xaos::obs::JsonNumber(std::sqrt(variance)) + "}";
  }
  return out + "}";
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    *error = "cannot open trace file: " + path;
    return false;
  }
  const uint64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  std::string out =
      "{\"displayTimeUnit\":\"ms\",\"metadata\":" + metadata_json +
      ",\"traceEvents\":["
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"pipeline\"}},"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"stage isolation\"}}";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    bool isolation =
        span.name == SpanName::kTokenize || span.name == SpanName::kCapture;
    out += ",{\"ph\":\"X\",\"cat\":\"perfbench\",\"name\":\"";
    out += SpanNameString(span.name);
    out += "\",\"pid\":1,\"tid\":";
    out += isolation ? "2" : "1";
    out += ",\"ts\":" +
           xaos::obs::JsonNumber(
               static_cast<double>(span.begin_ns - origin) / 1e3) +
           ",\"dur\":" + xaos::obs::JsonNumber(DurationNs(span) / 1e3) +
           ",\"args\":{\"id\":" + std::to_string(i) +
           ",\"doc\":" + std::to_string(span.doc) +
           ",\"parent\":" + std::to_string(span.parent) + "}}";
    if (out.size() > (1u << 20)) {
      std::fwrite(out.data(), 1, out.size(), file);
      out.clear();
    }
  }
  out += "]}\n";
  std::fwrite(out.data(), 1, out.size(), file);
  bool write_failed = std::ferror(file) != 0;
  if (std::fclose(file) != 0 || write_failed) {
    *error = "short write to trace file: " + path;
    return false;
  }
  return true;
}

}  // namespace perfbench
