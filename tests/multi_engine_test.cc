// Multi-query evaluator tests: the label-indexed dispatch fleet must be
// observationally identical to naive per-query fan-out (same verdicts, same
// result items, byte for byte) across hand-picked axis coverage and the
// random workload generator — plus presence tests for the hot-path
// observability counters.

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/compare.h"
#include "core/multi_engine.h"
#include "gen/random_workload.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using baseline::CanonicalItem;

// Evaluates every expression naively (independent StreamingEvaluator per
// query) and through one shared MultiQueryEvaluator, and requires identical
// matched flags and canonical result items per query.
void ExpectDispatchTransparent(const std::vector<std::string>& expressions,
                               const std::string& xml) {
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  core::MultiQueryEvaluator multi;
  for (const core::Query& query : queries) multi.AddQuery(query);
  ASSERT_TRUE(xml::ParseString(xml, &multi).ok());
  ASSERT_TRUE(multi.status().ok()) << multi.status();

  for (size_t q = 0; q < queries.size(); ++q) {
    core::StreamingEvaluator naive(queries[q]);
    ASSERT_TRUE(xml::ParseString(xml, &naive).ok());
    ASSERT_TRUE(naive.status().ok()) << naive.status();

    core::QueryResult naive_result = naive.Result();
    core::QueryResult multi_result = multi.Result(q);
    EXPECT_EQ(naive_result.matched, multi_result.matched)
        << "verdict mismatch for " << expressions[q];
    EXPECT_EQ(baseline::CanonicalFromResult(naive_result),
              baseline::CanonicalFromResult(multi_result))
        << "result mismatch for " << expressions[q];
  }
}

TEST(MultiQueryEvaluatorTest, AxisCoverage) {
  const std::string doc =
      "<a k=\"1\"><b><a><c/></a><d/></b><c/>"
      "<b x=\"y\"><c/><a/><e>text</e></b></a>";
  ExpectDispatchTransparent(
      {
          "//a//c",                           // descendant
          "//c/ancestor::a",                  // backward axis
          "/a/b/a/c",                         // child spine
          "//*[c]",                           // wildcard (always-dispatch)
          "//b[@x]",                          // attribute test
          "//c/following-sibling::a",         // sibling (dense stack)
          "//e[text()='text']",               // text test
          "//b[c]/a | //a[c]",                // union
          "//zzz",                            // label absent: never woken
          "//d/parent::b",                    // parent
      },
      doc);
}

TEST(MultiQueryEvaluatorTest, MixedRelevantAndIrrelevantQueries) {
  // One matching query among many whose labels never occur: the dispatch
  // index must keep the idle engines byte-identical to naive (no verdicts,
  // empty results) while the live one still sees everything it needs.
  std::vector<std::string> expressions = {"//b/c"};
  for (int i = 0; i < 20; ++i) {
    expressions.push_back("//absent_" + std::to_string(i) + "/name");
  }
  ExpectDispatchTransparent(expressions, "<a><b><c/></b><b/></a>");
}

// Random workloads: several generated (query, document) pairs per seed,
// all queries evaluated over each document.
class RandomMultiQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMultiQueryTest, DispatchTransparent) {
  uint64_t seed = GetParam();
  gen::RandomQueryOptions query_options;
  gen::RandomDocOptions doc_options;
  doc_options.target_elements = 300;
  doc_options.max_noise_depth = 6;

  std::vector<std::string> expressions;
  std::vector<std::string> documents;
  for (uint64_t i = 0; i < 4; ++i) {
    auto workload =
        gen::GenerateWorkload(query_options, doc_options, seed * 16 + i);
    ASSERT_TRUE(workload.ok()) << workload.status();
    expressions.push_back(workload->expression);
    documents.push_back(workload->document);
  }
  // Cross products: each document was built for one of the queries; the
  // other three exercise partial/failed matching under dispatch filtering.
  for (const std::string& document : documents) {
    ExpectDispatchTransparent(expressions, document);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMultiQueryTest,
                         ::testing::Range<uint64_t>(0, 30));

TEST(MultiQueryEvaluatorTest, ReuseAcrossDocuments) {
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi;
  size_t q = multi.AddQuery(*query);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_TRUE(multi.Matched(q));
  ASSERT_TRUE(xml::ParseString("<a><b/><c/></a>", &multi).ok());
  EXPECT_FALSE(multi.Matched(q));
}

// --- unions and result reuse ------------------------------------------------
// Result() returns by reference into storage each evaluator reuses across
// documents; unions of several disjuncts are merged once per document.

// Requires `result` to hold exactly the oracle's items, in document order
// (strictly increasing ids) and without duplicates.
void ExpectOracleResult(const core::QueryResult& result,
                        const test::BruteForceAnswer& want,
                        const std::string& where) {
  EXPECT_EQ(want.matched, result.matched) << where;
  EXPECT_EQ(want.items, baseline::CanonicalFromResult(result)) << where;
  for (size_t i = 1; i < result.items.size(); ++i) {
    EXPECT_LT(result.items[i - 1].info.id, result.items[i].info.id) << where;
  }
}

const char* const kUnionQueries[] = {"//a | //b", "//$a/$b | //b"};

TEST(ResultAssemblyTest, UnionsMatchOracle) {
  const std::vector<std::string> docs = {
      "<r><a><b/><a><b><a/></b></a></a><b><a><b/></a></b></r>",
      "<r><b><b/></b><c><a/></c><a><c><b/></c><b/></a></r>",
      "<r><c/></r>",
  };
  for (const std::string& xml : docs) {
    for (const char* expression : kUnionQueries) {
      const test::BruteForceAnswer want = test::EvalBruteForce(expression, xml);
      StatusOr<core::Query> query = core::Query::Compile(expression);
      ASSERT_TRUE(query.ok()) << expression << ": " << query.status();

      core::StreamingEvaluator streaming(*query);
      ASSERT_TRUE(xml::ParseString(xml, &streaming).ok());
      ExpectOracleResult(streaming.Result(), want,
                         std::string("streaming ") + expression + " on " + xml);

      for (bool shared : {true, false}) {
        core::EngineOptions options;
        options.enable_shared_index = shared;
        core::MultiQueryEvaluator multi(options);
        size_t q = multi.AddQuery(*query);
        ASSERT_TRUE(xml::ParseString(xml, &multi).ok());
        ExpectOracleResult(multi.Result(q), want,
                           std::string("multi shared=") +
                               (shared ? "on " : "off ") + expression +
                               " on " + xml);
      }
    }
  }
}

// A catalog of `rows` <item><name/><price/></item> rows.
std::string Catalog(int rows) {
  std::string xml = "<catalog>";
  for (int i = 0; i < rows; ++i) {
    xml += "<item><name>n" + std::to_string(i) + "</name><price>" +
           std::to_string(i % 7) + "</price></item>";
  }
  return xml + "</catalog>";
}

TEST(ResultAssemblyTest, ReusedEvaluatorsLeaveNoStaleItems) {
  // Wide, unmatched, one-item, aborted mid-stream, wide again: each
  // completed document's Result() must equal the oracle exactly, so no
  // item of an earlier (larger) result survives in the reused storage.
  const std::string wide = Catalog(300);
  const std::vector<std::string> docs = {
      wide, "<catalog><other/></catalog>", Catalog(1), wide};
  const size_t abort_before = 3;  // an aborted document precedes docs[3]
  const std::vector<std::string> expressions = {
      "//$item/$name", "//item | //name", "//$item/$name | //price"};
  std::vector<core::Query> queries;
  for (const std::string& expression : expressions) {
    StatusOr<core::Query> query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression << ": " << query.status();
    queries.push_back(std::move(*query));
  }

  // Starts `evaluator` on the first half of `wide`, then abandons it.
  auto abort_midstream = [&wide](auto* evaluator) {
    xml::SaxParser parser(evaluator);
    ASSERT_TRUE(parser.Feed(std::string_view(wide).substr(0, wide.size() / 2))
                    .ok());
    evaluator->AbortDocument(InternalError("producer failed mid-document"));
  };

  std::vector<std::unique_ptr<core::StreamingEvaluator>> streaming;
  for (const core::Query& query : queries) {
    streaming.push_back(std::make_unique<core::StreamingEvaluator>(query));
  }
  core::MultiQueryEvaluator multi;
  for (const core::Query& query : queries) multi.AddQuery(query);

  for (size_t d = 0; d < docs.size(); ++d) {
    if (d == abort_before) {
      for (auto& evaluator : streaming) abort_midstream(evaluator.get());
      abort_midstream(&multi);
    }
    ASSERT_TRUE(xml::ParseString(docs[d], &multi).ok());
    for (size_t q = 0; q < queries.size(); ++q) {
      const test::BruteForceAnswer want =
          test::EvalBruteForce(expressions[q], docs[d]);
      const std::string where =
          expressions[q] + " on document " + std::to_string(d);
      ASSERT_TRUE(xml::ParseString(docs[d], streaming[q].get()).ok());
      ExpectOracleResult(streaming[q]->Result(), want, "streaming " + where);
      ExpectOracleResult(multi.Result(q), want, "multi " + where);
    }
  }
}

// --- observability counters -------------------------------------------------

TEST(HotPathCountersTest, ArenaBytesExported) {
  StatusOr<core::Query> query = core::Query::Compile("//a//c");
  ASSERT_TRUE(query.ok());
  core::StreamingEvaluator evaluator(*query);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b><c/></a>", &evaluator).ok());
  ASSERT_TRUE(evaluator.status().ok());
  EXPECT_GT(evaluator.AggregateStats().arena_bytes_allocated, 0u);

  obs::MetricsRegistry registry;
  evaluator.ExportMetrics(&registry);
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.count("xaos_arena_bytes_allocated"), 1u);
  EXPECT_GT(snapshot.counters.at("xaos_arena_bytes_allocated"), 0u);
  EXPECT_NE(obs::ToJson(snapshot).find("xaos_arena_bytes_allocated"),
            std::string::npos);
  EXPECT_NE(obs::ToPrometheusText(snapshot).find("xaos_arena_bytes_allocated"),
            std::string::npos);
}

TEST(HotPathCountersTest, DispatchAndInterningCountersInDefaultRegistry) {
  obs::SetEnabled(true);  // runtime default is off; no-op when compiled out
  if (!obs::Enabled()) GTEST_SKIP() << "observability disabled at build time";
  // The fleet folds these into the default registry at EndDocument. Both
  // queries are shareable chains, so force the per-engine backend — the
  // dispatch-skip counters only exist on that path.
  core::EngineOptions options;
  options.enable_shared_index = false;
  StatusOr<core::Query> query = core::Query::Compile("//b/c");
  ASSERT_TRUE(query.ok());
  core::MultiQueryEvaluator multi(options);
  multi.AddQuery(*query);
  StatusOr<core::Query> idle = core::Query::Compile("//never_present/x");
  ASSERT_TRUE(idle.ok());
  multi.AddQuery(*idle);
  ASSERT_TRUE(xml::ParseString("<a><b><c/></b></a>", &multi).ok());
  EXPECT_GT(multi.engines_skipped(), 0u);

  obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Default().Snapshot();
  ASSERT_EQ(snapshot.counters.count("xaos_dispatch_engines_skipped_total"),
            1u);
  EXPECT_GT(snapshot.counters.at("xaos_dispatch_engines_skipped_total"), 0u);
  ASSERT_EQ(snapshot.counters.count("xaos_symbols_interned"), 1u);
  // The parser interned at least the element names of this document.
  EXPECT_GT(snapshot.counters.at("xaos_symbols_interned"), 0u);

  std::string prometheus = obs::ToPrometheusText(snapshot);
  EXPECT_NE(prometheus.find("xaos_dispatch_engines_skipped_total"),
            std::string::npos);
  EXPECT_NE(prometheus.find("xaos_symbols_interned"), std::string::npos);
  std::string json = obs::ToJson(snapshot);
  EXPECT_NE(json.find("xaos_dispatch_engines_skipped_total"),
            std::string::npos);
  EXPECT_NE(json.find("xaos_symbols_interned"), std::string::npos);
  obs::SetEnabled(false);
}

}  // namespace
}  // namespace xaos
