// In-memory span recording for the benchmark's traced run.
//
// Spans are recorded by the benchmark around its calls into each layer's
// public functions (nothing inside the library is instrumented), kept in
// memory for the whole run, and summarized or written out once it ends.
// The hierarchy is doc -> xml.feed / xml.finish -> core.replay, plus
// doc -> core.result; the stage-isolation passes record xml.tokenize and
// xml.capture spans of their own. Every span carries its document sequence
// number and the index of its parent span.

#ifndef XAOS_PERFBENCH_SPANS_H_
#define XAOS_PERFBENCH_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

enum class SpanName : uint8_t {
  kDoc,
  kFeed,
  kFinish,
  kReplay,
  kResult,
  kTokenize,
  kCapture,
};
inline constexpr size_t kSpanNames = 7;
const char* SpanNameString(SpanName name);

struct Span {
  SpanName name = SpanName::kDoc;
  uint32_t doc = 0;
  int32_t parent = -1;  // index into the recorder's spans; -1 = top level
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() { spans_.reserve(1 << 20); }

  int32_t Begin(SpanName name, uint32_t doc, int32_t parent) {
    Span span;
    span.name = name;
    span.doc = doc;
    span.parent = parent;
    spans_.push_back(span);
    spans_.back().begin_ns = NowNs();
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) {
    spans_[static_cast<size_t>(index)].end_ns = NowNs();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

// Per span name: total duration and self time (duration minus the time
// its direct children cover), in nanoseconds.
struct SpanTotals {
  std::array<double, kSpanNames> total_ns{};
  std::array<double, kSpanNames> self_ns{};
};
SpanTotals SumSpans(const std::vector<Span>& spans);

// count, mean, min, max and standard deviation of the durations of each
// span name that occurred, as one JSON object keyed by span name (times in
// microseconds).
std::string SpanStatsJson(const std::vector<Span>& spans);

// Writes the spans as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing); `metadata_json` is a JSON object stored under
// "metadata". False (with *error set) if the file cannot be written.
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      const std::string& metadata_json, std::string* error);

}  // namespace perfbench

#endif  // XAOS_PERFBENCH_SPANS_H_
