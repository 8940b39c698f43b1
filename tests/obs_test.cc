// The observability layer: metrics primitives, registry, exporters, phase
// timers, memory accounting, and the disabled-mode no-op guarantees.

#include <string>

#include "core/engine_stats.h"
#include "core/multi_engine.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/timer.h"
#include "xml/sax_parser.h"

namespace xaos::obs {
namespace {

TEST(CounterTest, IncrementAccumulates) {
  Counter counter;
  EXPECT_EQ(counter.Value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.Value(), 42u);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge gauge;
  gauge.Set(10);
  EXPECT_EQ(gauge.Value(), 10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(5);  // below: no change
  EXPECT_EQ(gauge.Value(), 7);
  gauge.SetMax(100);
  EXPECT_EQ(gauge.Value(), 100);
}

TEST(HistogramTest, BucketIndexBoundaries) {
  // Bucket 0 holds value 0; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64);
}

TEST(HistogramTest, BucketUpperBounds) {
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0u);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1023u);
  EXPECT_EQ(Histogram::BucketUpperBound(64), ~uint64_t{0});
}

TEST(HistogramTest, RecordTracksCountSumMaxAndBuckets) {
  Histogram histogram;
  histogram.Record(0);
  histogram.Record(1);
  histogram.Record(5);
  histogram.Record(5);
  EXPECT_EQ(histogram.Count(), 4u);
  EXPECT_EQ(histogram.Sum(), 11u);
  EXPECT_EQ(histogram.Max(), 5u);
  EXPECT_EQ(histogram.BucketCountAt(0), 1u);  // value 0
  EXPECT_EQ(histogram.BucketCountAt(1), 1u);  // value 1
  EXPECT_EQ(histogram.BucketCountAt(3), 2u);  // values in [4, 8)
}

TEST(RegistryTest, PointersAreStableAndShared) {
  MetricsRegistry registry;
  Counter* a = registry.GetCounter("x");
  Counter* b = registry.GetCounter("x");
  EXPECT_EQ(a, b);
  a->Increment();
  EXPECT_EQ(registry.Snapshot().counters.at("x"), 1u);
  registry.Clear();
  EXPECT_TRUE(registry.Snapshot().counters.empty());
}

TEST(RegistryTest, SnapshotSkipsEmptyHistogramBuckets) {
  MetricsRegistry registry;
  registry.GetHistogram("h")->Record(5);
  MetricsSnapshot snapshot = registry.Snapshot();
  const HistogramSnapshot& h = snapshot.histograms.at("h");
  ASSERT_EQ(h.buckets.size(), 1u);
  EXPECT_EQ(h.buckets[0].first, 7u);  // upper bound of bucket 3
  EXPECT_EQ(h.buckets[0].second, 1u);
}

TEST(ExportTest, JsonGolden) {
  MetricsRegistry registry;
  registry.GetCounter("events_total")->Increment(3);
  registry.GetGauge("live")->Set(-2);
  registry.GetHistogram("ns")->Record(5);
  EXPECT_EQ(ToJson(registry),
            "{\"counters\": {\"events_total\": 3}, "
            "\"gauges\": {\"live\": -2}, "
            "\"histograms\": {\"ns\": {\"count\": 1, \"sum\": 5, \"max\": 5, "
            "\"p50\": 5, \"p90\": 5, \"p99\": 5, "
            "\"buckets\": [{\"le\": 7, \"count\": 1}]}}}");
  EXPECT_TRUE(JsonValid(ToJson(registry)));
}

TEST(ExportTest, PrometheusGolden) {
  MetricsRegistry registry;
  registry.GetCounter("a_total{k=\"v\"}")->Increment(1);
  registry.GetCounter("a_total{k=\"w\"}")->Increment(2);
  registry.GetGauge("g")->Set(7);
  std::string text = ToPrometheusText(registry);
  EXPECT_EQ(text,
            "# HELP a_total xaos metric (no specific help registered).\n"
            "# TYPE a_total counter\n"
            "a_total{k=\"v\"} 1\n"
            "a_total{k=\"w\"} 2\n"
            "# HELP g xaos metric (no specific help registered).\n"
            "# TYPE g gauge\n"
            "g 7\n");
}

TEST(ExportTest, LabelledHistogramFamilyGetsOneHeaderAndQuantiles) {
  MetricsRegistry registry;
  registry.GetHistogram("lat_ns{sub=\"a\"}")->Record(8);
  registry.GetHistogram("lat_ns{sub=\"b\"}")->Record(100);
  std::string text = ToPrometheusText(registry);
  // One HELP/TYPE pair for the histogram family despite two labelled
  // members, and one gauge family per derived quantile.
  auto count_of = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t at = text.find(needle); at != std::string::npos;
         at = text.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count_of("# TYPE lat_ns histogram"), 1u);
  EXPECT_EQ(count_of("# HELP lat_ns "), 1u);
  EXPECT_EQ(count_of("# TYPE lat_ns_p50 gauge"), 1u);
  EXPECT_EQ(count_of("# TYPE lat_ns_p99 gauge"), 1u);
  EXPECT_NE(text.find("lat_ns_p99{sub=\"a\"} "), std::string::npos);
  EXPECT_NE(text.find("lat_ns_p99{sub=\"b\"} "), std::string::npos);
}

TEST(ExportTest, PrometheusConformance) {
  MetricsRegistry registry;
  registry.GetCounter("xaos_parser_bytes_total")->Increment(10);
  registry.GetCounter("router_deliveries_total{subscription=\"alice\"}")
      ->Increment(1);
  registry.GetGauge("xaos_parallel_workers")->Set(4);
  registry.GetHistogram("xaos_sub_match_latency_ns{subscription=\"alice\"}")
      ->Record(1000);
  registry.GetHistogram("xaos_sub_match_latency_ns{subscription=\"bob\"}")
      ->Record(2000);
  registry.GetHistogram("plain_ns")->Record(5);
  std::string text = ToPrometheusText(registry);
  std::string error;
  EXPECT_TRUE(PrometheusTextValid(text, &error)) << error;
}

TEST(ExportTest, PrometheusValidatorRejectsMalformedText) {
  std::string error;
  // Sample without HELP/TYPE.
  EXPECT_FALSE(PrometheusTextValid("x_total 1\n", &error));
  // TYPE before HELP.
  EXPECT_FALSE(PrometheusTextValid(
      "# TYPE x_total counter\n# HELP x_total h\nx_total 1\n", &error));
  // Duplicate TYPE for one family.
  EXPECT_FALSE(PrometheusTextValid(
      "# HELP x h\n# TYPE x gauge\n# TYPE x gauge\nx 1\n", &error));
  // Sample name outside the declared family.
  EXPECT_FALSE(PrometheusTextValid(
      "# HELP x h\n# TYPE x gauge\ny 1\n", &error));
  // Non-numeric value and broken labels.
  EXPECT_FALSE(PrometheusTextValid(
      "# HELP x h\n# TYPE x gauge\nx one\n", &error));
  EXPECT_FALSE(PrometheusTextValid(
      "# HELP x h\n# TYPE x gauge\nx{k=\"v} 1\n", &error));
  // Well-formed minimal exposition passes.
  EXPECT_TRUE(PrometheusTextValid(
      "# HELP x h\n# TYPE x counter\nx{k=\"v\"} 1\nx{k=\"w\"} 2\n", &error))
      << error;
}

TEST(HistogramTest, QuantileInterpolatesWithinBuckets) {
  HistogramSnapshot h;
  h.count = 0;
  EXPECT_EQ(h.Quantile(0.5), 0.0);  // empty
  // 100 samples of value 1 plus 100 samples of value 1000.
  h.count = 200;
  h.sum = 100 * 1 + 100 * 1000;
  h.max = 1000;
  h.buckets = {{1, 100}, {1023, 100}};
  EXPECT_LE(h.Quantile(0.25), 1.0);
  double p50 = h.Quantile(0.50);
  EXPECT_LE(p50, 1.0);  // the 100th sample is still a 1
  double p99 = h.Quantile(0.99);
  EXPECT_GT(p99, 500.0);
  EXPECT_LE(p99, 1000.0);  // clamped to observed max
  // Monotone in q.
  EXPECT_LE(h.Quantile(0.50), h.Quantile(0.90));
  EXPECT_LE(h.Quantile(0.90), h.Quantile(0.99));
}

TEST(HistogramTest, QuantileNeverExceedsObservedMax) {
  // One sample, 700, lands in bucket (511, 1023]. Interpolation toward the
  // bucket's upper bound must clamp to the observed max, for every q.
  HistogramSnapshot h;
  h.count = 1;
  h.sum = 700;
  h.max = 700;
  h.buckets = {{1023, 1}};
  EXPECT_EQ(h.Quantile(0.0), 700.0);
  EXPECT_EQ(h.Quantile(0.5), 700.0);
  EXPECT_EQ(h.Quantile(1.0), 700.0);
}

TEST(HistogramTest, QuantileZeroBucketLowerEdge) {
  // Bucket 0 of the log2 histogram holds only the value 0; its lower edge
  // is 0, not a negative or stale previous bound.
  HistogramSnapshot h;
  h.count = 4;
  h.sum = 0;
  h.max = 0;
  h.buckets = {{0, 4}};
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.Quantile(1.0), 0.0);
}

TEST(HistogramTest, QuantileLowerEdgeSurvivesEmptyBucketGaps) {
  // The snapshot stores non-empty buckets only: between bound 1 and bound
  // 1023 here, eight buckets are missing. The (511, 1023] bucket's lower
  // edge must still be 512 — derived from its own bound, not from the
  // previous *listed* bucket's bound (1), which would let interpolated
  // values dip far below every sample the bucket actually holds.
  HistogramSnapshot h;
  h.count = 10;
  h.sum = 1 + 9 * 600;
  h.max = 1000;
  h.buckets = {{1, 1}, {1023, 9}};
  // Ranks 2..10 all sit in the high bucket, so every quantile past the
  // first sample is at least the bucket's true lower edge.
  EXPECT_GE(h.Quantile(0.5), 512.0);
  EXPECT_GE(h.Quantile(0.9), 512.0);
  EXPECT_LE(h.Quantile(1.0), 1000.0);
}

TEST(ExportTest, PrometheusHistogramIsCumulative) {
  MetricsRegistry registry;
  Histogram* h = registry.GetHistogram("ns");
  h->Record(1);
  h->Record(5);
  std::string text = ToPrometheusText(registry);
  EXPECT_NE(text.find("# TYPE ns histogram"), std::string::npos);
  EXPECT_NE(text.find("ns_bucket{le=\"1\"} 1\n"), std::string::npos);
  // The le="7" bucket includes the le="1" observation (cumulative).
  EXPECT_NE(text.find("ns_bucket{le=\"7\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("ns_sum 6\n"), std::string::npos);
  EXPECT_NE(text.find("ns_count 2\n"), std::string::npos);
}

TEST(JsonTest, EscapeAndNumber) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
  EXPECT_EQ(JsonNumber(0.5), "0.5");
  EXPECT_EQ(JsonNumber(3), "3");
}

TEST(JsonTest, Validator) {
  EXPECT_TRUE(JsonValid("{}"));
  EXPECT_TRUE(JsonValid("  {\"a\": [1, 2.5, -3e2, true, null, \"x\\n\"]} "));
  EXPECT_TRUE(JsonValid("\"\\u00e9\""));
  EXPECT_FALSE(JsonValid(""));
  EXPECT_FALSE(JsonValid("{"));
  EXPECT_FALSE(JsonValid("{\"a\":1,}"));
  EXPECT_FALSE(JsonValid("01"));
  EXPECT_FALSE(JsonValid("\"\\x\""));
  EXPECT_FALSE(JsonValid("{} {}"));
}

TEST(TimerTest, PhaseTimersExport) {
  PhaseTimers timers;
  timers.Add(Phase::kParse, 100);
  timers.Add(Phase::kParse, 50);
  timers.Add(Phase::kMatch, 25);
  EXPECT_EQ(timers.Ns(Phase::kParse), 150u);
  EXPECT_DOUBLE_EQ(timers.Seconds(Phase::kMatch), 25e-9);

  MetricsRegistry registry;
  timers.ExportTo(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("xaos_phase_ns_total{phase=\"parse\"}"),
            150u);
  EXPECT_EQ(snapshot.counters.at("xaos_phase_ns_total{phase=\"compile\"}"),
            0u);
  EXPECT_EQ(snapshot.counters.at("xaos_phase_ns_total{phase=\"match\"}"),
            25u);
}

TEST(TimerTest, ScopedTimerRecordsIntoHistogram) {
  Histogram histogram;
  { ScopedTimer timer(&histogram); }
  EXPECT_EQ(histogram.Count(), 1u);
}

TEST(TimerTest, EventCostSamplerPeriod) {
  Histogram histogram;
  EventCostSampler sampler(&histogram, /*period=*/3);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    if (sampler.ShouldSample()) {
      sampler.RecordNs(1);
      ++sampled;
    }
  }
  EXPECT_EQ(sampled, 3);
  EXPECT_EQ(histogram.Count(), 3u);

  EventCostSampler disabled(nullptr);
  EXPECT_FALSE(disabled.ShouldSample());
}

TEST(MemoryTest, AccountantTracksPeak) {
  MemoryAccountant accountant;
  accountant.Add(100);
  accountant.Add(50);
  accountant.Remove(120);
  EXPECT_EQ(accountant.live_bytes, 30u);
  EXPECT_EQ(accountant.peak_bytes, 150u);
  accountant.Add(10);
  EXPECT_EQ(accountant.peak_bytes, 150u);  // below the old high-water mark
}

TEST(EngineStatsTest, CreationHooksMaintainLiveAndPeak) {
  core::EngineStats stats;
  stats.OnStructureCreated(100);
  stats.OnStructureCreated(200);
  stats.OnStructureDestroyed(100);
  stats.OnStructureCreated(50);
  EXPECT_EQ(stats.structures_created, 3u);
  EXPECT_EQ(stats.structures_live, 2u);
  EXPECT_EQ(stats.structures_live_peak, 2u);
  EXPECT_EQ(stats.structure_memory.live_bytes, 250u);
  EXPECT_EQ(stats.structure_memory.peak_bytes, 300u);
}

TEST(EngineStatsTest, ToMetricsFoldsEveryField) {
  core::EngineStats stats;
  stats.elements_total = 10;
  stats.elements_discarded = 8;
  stats.OnStructureCreated(64);
  stats.propagations = 3;
  stats.optimistic_propagations = 2;

  MetricsRegistry registry;
  stats.ToMetrics(&registry);
  MetricsSnapshot snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.counters.at("xaos_engine_elements_total"), 10u);
  EXPECT_EQ(snapshot.counters.at("xaos_engine_elements_discarded_total"), 8u);
  EXPECT_EQ(snapshot.counters.at("xaos_engine_structures_created_total"), 1u);
  EXPECT_EQ(snapshot.gauges.at("xaos_engine_structures_live"), 1);
  EXPECT_EQ(snapshot.gauges.at("xaos_engine_structures_live_peak"), 1);
  EXPECT_EQ(snapshot.gauges.at("xaos_engine_structure_bytes_live"), 64);
  EXPECT_EQ(snapshot.gauges.at("xaos_engine_structure_bytes_peak"), 64);
  EXPECT_EQ(snapshot.counters.at("xaos_engine_propagations_total"), 3u);
  EXPECT_EQ(snapshot.counters.at("xaos_engine_optimistic_propagations_total"),
            2u);
}

// End-to-end: a streaming evaluation maintains byte-level accounting on
// every structure creation path (satellite check: peak is updated by
// construction, so it can never read zero when structures were created).
TEST(EngineStatsTest, StreamingEvaluationAccountsBytes) {
  auto query = core::Query::Compile("//b/ancestor::a");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  ASSERT_TRUE(xml::ParseString("<a><b/><b/></a>", &evaluator).ok());
  core::EngineStats stats = evaluator.AggregateStats();
  EXPECT_GT(stats.structures_created, 0u);
  EXPECT_GT(stats.structure_memory.peak_bytes, 0u);
  // Live structures (and bytes) remain for the engine's retained state;
  // peak is at least live.
  EXPECT_GE(stats.structure_memory.peak_bytes,
            stats.structure_memory.live_bytes);
}

TEST(DisabledModeTest, OffByDefaultAndNoFlushWhenDisabled) {
  ASSERT_FALSE(Enabled());  // runtime default is off
  MetricsRegistry::Default().Clear();

  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming("//b", "<a><b/></a>", {});
  ASSERT_TRUE(result.ok());
  // Nothing reached the default registry: no parser counters, no compile
  // histogram.
  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snapshot.counters.count("xaos_parser_documents_total"), 0u);
  EXPECT_EQ(snapshot.histograms.count("xaos_compile_ns"), 0u);
}

#if XAOS_OBS_ENABLED
TEST(DisabledModeTest, EnabledModeFlushesParserAndCompileMetrics) {
  SetEnabled(true);
  MetricsRegistry::Default().Clear();

  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming("//b", "<a><b/>text</a>", {});
  ASSERT_TRUE(result.ok());

  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  EXPECT_EQ(snapshot.counters.at("xaos_parser_documents_total"), 1u);
  EXPECT_EQ(snapshot.counters.at("xaos_parser_elements_total"), 2u);
  EXPECT_GE(snapshot.counters.at("xaos_parser_bytes_total"), 15u);
  EXPECT_EQ(snapshot.counters.at("xaos_queries_compiled_total"), 1u);
  EXPECT_EQ(snapshot.histograms.at("xaos_compile_ns").count, 1u);

  SetEnabled(false);
  MetricsRegistry::Default().Clear();
}

TEST(DisabledModeTest, BatchedDispatchSamplesEngineEventCost) {
  // Shipped drivers feed BatchedDispatcher (EvaluateStreaming included):
  // replayed batches are sampled into xaos_engine_event_ns, the first one
  // always, then every 8th.
  SetEnabled(true);
  MetricsRegistry::Default().Clear();

  std::string doc = "<a>";
  for (int i = 0; i < 2000; ++i) doc += "<b><c/></b>";
  doc += "</a>";
  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming("//b/ancestor::a", doc, {});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->matched);

  MetricsSnapshot snapshot = MetricsRegistry::Default().Snapshot();
  const uint64_t batches = snapshot.counters.at("xaos_dispatch_batches_total");
  const HistogramSnapshot& cost = snapshot.histograms.at("xaos_engine_event_ns");
  // 8002 events in 256-event batches.
  EXPECT_GE(batches, 32u);
  EXPECT_EQ(cost.count, (batches + 7) / 8);
  EXPECT_GT(cost.max, 0u);

  SetEnabled(false);
  MetricsRegistry::Default().Clear();
}
#endif  // XAOS_OBS_ENABLED

TEST(ExportTest, WriteMetricsJsonRejectsUnwritablePath) {
  MetricsRegistry registry;
  Status status = WriteMetricsJson(registry, "/nonexistent-dir/x.json");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace xaos::obs
