// Earliest answering payoff: time-to-first-match and peak
// matching-structure bytes with earliest emission off (collect at end of
// document) vs on (emit at the earliest provable event, reclaim eagerly),
// across growing document sizes and two shapes:
//
//   * wide:  a flat catalog of closed <item><name/><price/></item> rows
//     matched by //item/name — the streaming-friendly case where the
//     buffered peak should collapse from O(document) to O(open depth);
//   * wide2: the large wide catalog under the two-output //$item/$name —
//     every row yields two items; reclamation stays off for multi-output
//     queries, so only time-to-first-match moves, while result assembly
//     handles twice the items;
//   * deep:  a spine of <x> levels carrying closed self-recursive
//     <a><a/></a> teeth matched by //a//a — recursion plus noise depth.
//
// Every on-row is item-checked against its off-row (earliest emission must
// be byte-invisible in the final result); any divergence exits 1.
//
// JSON metrics feed tools/check_bench_regression.py: ttfm_p99_ns rides the
// existing `_p99_ns` latency rule and matching_peak_bytes the
// `_peak_bytes` memory rule, so losing either the early emission point or
// the eager reclaim fails CI.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "xaos.h"

namespace {

using namespace xaos;

std::string WideDocument(int items) {
  std::string xml = "<catalog>";
  for (int i = 0; i < items; ++i) {
    xml += "<item><name/><price/></item>";
  }
  xml += "</catalog>";
  return xml;
}

std::string DeepDocument(int depth, int teeth_per_level) {
  std::string xml;
  for (int d = 0; d < depth; ++d) {
    xml += "<x>";
    for (int i = 0; i < teeth_per_level; ++i) xml += "<a><a/></a>";
  }
  for (int d = 0; d < depth; ++d) xml += "</x>";
  return xml;
}

struct RunResult {
  bench::Series time;
  double ttfm_p99_ns = 0;
  core::EngineStats stats;
  std::vector<core::ElementId> item_ids;
};

double PercentileNs(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (rank >= samples.size()) rank = samples.size() - 1;
  return samples[rank];
}

// Parses `doc` into one engine `repetitions` times (per-document reset
// makes it reusable) and reports wall time, time-to-first-match p99 and
// the final repetition's per-document stats. With earliest emission on,
// TTFM is the first early_item_sink callback; off, the first item only
// exists once the document ends, so TTFM equals the full parse.
RunResult RunConfig(const query::XTree* tree, const std::string& doc,
                    bool earliest, int repetitions) {
  uint64_t parse_start_ns = 0;
  uint64_t first_item_ns = 0;
  core::EngineOptions options;
  options.enable_earliest_emission = earliest;
  options.early_item_sink = [&](const core::OutputItem&) {
    if (first_item_ns == 0) first_item_ns = obs::NowNs();
  };
  core::XaosEngine engine(tree, options);

  if (!xml::ParseString(doc, &engine).ok()) std::abort();  // warmup

  std::vector<double> times;
  std::vector<double> ttfm;
  for (int rep = 0; rep < repetitions; ++rep) {
    first_item_ns = 0;
    parse_start_ns = obs::NowNs();
    if (!xml::ParseString(doc, &engine).ok()) std::abort();
    uint64_t end_ns = obs::NowNs();
    times.push_back(static_cast<double>(end_ns - parse_start_ns) * 1e-9);
    uint64_t first = first_item_ns != 0 ? first_item_ns : end_ns;
    ttfm.push_back(static_cast<double>(first - parse_start_ns));
  }

  RunResult result;
  result.time = bench::Summarize(times);
  result.ttfm_p99_ns = PercentileNs(ttfm, 0.99);
  result.stats = engine.stats();
  result.item_ids = engine.result().ItemIds();
  return result;
}

struct Shape {
  const char* name;
  std::string expression;
  std::string doc;
  int size;  // row-label size knob (items or teeth)
};

}  // namespace

int main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int repetitions = flags.GetInt("repetitions", 5);
  int small_items = flags.GetInt("small-items", 2000);
  int large_items = flags.GetInt("large-items", 50000);
  int deep_levels = flags.GetInt("deep-levels", 12);
  int deep_teeth = flags.GetInt("deep-teeth", 2000);
  std::string json_out = flags.GetString("json-out", "");
  flags.FailOnUnknown();

  bench::BenchReporter reporter("earliest");
  reporter.SetParam("repetitions", repetitions);
  reporter.SetParam("small-items", small_items);
  reporter.SetParam("large-items", large_items);
  reporter.SetParam("deep-levels", deep_levels);
  reporter.SetParam("deep-teeth", deep_teeth);

  std::vector<Shape> shapes;
  shapes.push_back({"wide", "//item/name", WideDocument(small_items),
                    small_items});
  shapes.push_back({"wide", "//item/name", WideDocument(large_items),
                    large_items});
  shapes.push_back({"wide2", "//$item/$name", WideDocument(large_items),
                    large_items});
  shapes.push_back({"deep", "//a//a",
                    DeepDocument(deep_levels, deep_teeth),
                    deep_levels * deep_teeth});

  std::printf("%-28s %-10s %-12s %-12s %-12s %-10s\n", "config", "mean_s",
              "MB/s", "ttfm_p99_us", "peak_KiB", "reclaimed");
  bench::Rule(7);

  for (const Shape& shape : shapes) {
    auto trees = query::CompileToXTrees(shape.expression);
    if (!trees.ok()) {
      std::fprintf(stderr, "compile %s: %s\n", shape.expression.c_str(),
                   std::string(trees.status().message()).c_str());
      return 2;
    }
    double megabytes =
        static_cast<double>(shape.doc.size()) / (1024.0 * 1024.0);

    RunResult off =
        RunConfig(&trees->front(), shape.doc, false, repetitions);
    RunResult on = RunConfig(&trees->front(), shape.doc, true, repetitions);

    if (off.item_ids != on.item_ids) {
      std::fprintf(stderr,
                   "ITEM MISMATCH shape=%s n=%d: earliest emission changed "
                   "the result (%zu vs %zu items)\n",
                   shape.name, shape.size, off.item_ids.size(),
                   on.item_ids.size());
      return 1;
    }

    for (bool earliest : {false, true}) {
      const RunResult& run = earliest ? on : off;
      char label[64];
      std::snprintf(label, sizeof(label), "%s/n=%d/earliest=%s", shape.name,
                    shape.size, earliest ? "on" : "off");
      std::printf("%-28s %-10.4f %-12.2f %-12.1f %-12llu %-10llu\n", label,
                  run.time.mean, megabytes / run.time.mean,
                  run.ttfm_p99_ns / 1000.0,
                  static_cast<unsigned long long>(
                      run.stats.structure_memory.peak_bytes / 1024),
                  static_cast<unsigned long long>(
                      run.stats.candidates_reclaimed));
      reporter.AddResult(label, run.time, megabytes);
      reporter.AddResultMetric("earliest", earliest ? 1 : 0);
      reporter.AddResultMetric("items", static_cast<double>(
                                            run.item_ids.size()));
      reporter.AddResultMetric("ttfm_p99_ns", run.ttfm_p99_ns);
      reporter.AddResultMetric(
          "matching_peak_bytes",
          static_cast<double>(run.stats.structure_memory.peak_bytes));
      bench::AddEngineStats(&reporter, run.stats);
    }

    double peak_ratio =
        on.stats.structure_memory.peak_bytes > 0
            ? static_cast<double>(off.stats.structure_memory.peak_bytes) /
                  static_cast<double>(on.stats.structure_memory.peak_bytes)
            : 0.0;
    std::printf("%-28s peak-bytes reduction: %.1fx, ttfm: %.1fx\n", "",
                peak_ratio,
                on.ttfm_p99_ns > 0 ? off.ttfm_p99_ns / on.ttfm_p99_ns : 0.0);
  }

  if (!json_out.empty() && !reporter.WriteJson(json_out)) return 1;

  std::printf("\nShape check: identical items in every pair; on-rows show "
              "order-of-magnitude smaller matching_peak_bytes on large "
              "documents and ttfm_p99_ns far below the full parse time.\n");
  return 0;
}
