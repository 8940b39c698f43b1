// Extensions of Section 5: or / union, multiple outputs with tuple
// enumeration, attribute and text() node tests, subtree capture,
// intersection/join evaluation, and resource limits.

#include <set>
#include <string>
#include <vector>

#include "baseline/compare.h"
#include "core/matching_structure.h"
#include "core/multi_engine.h"
#include "core/xaos_engine.h"
#include "gtest/gtest.h"
#include "query/reroot.h"
#include "query/xtree_builder.h"
#include "test_util.h"
#include "xml/sax_parser.h"

namespace xaos {
namespace {

using test::EvalStreaming;
using test::Names;
using test::Ordinals;

TEST(EngineExtensionsTest, OrPredicate) {
  const std::string xml = "<r><a><b/></a><a><c/></a><a><d/></a></r>";
  auto items = EvalStreaming("//a[b or c]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2, 4}));
}

TEST(EngineExtensionsTest, OrDistributesOverAnd) {
  const std::string xml =
      "<r><a><b/><d/></a><a><c/><e/></a><a><b/><e/></a><a><b/></a></r>";
  auto items = EvalStreaming("//a[(b or c) and (d or e)]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2, 5, 8}));
}

TEST(EngineExtensionsTest, TopLevelUnion) {
  const std::string xml = "<r><a/><b/><c/></r>";
  auto items = EvalStreaming("//a | //c", xml);
  EXPECT_EQ(Names(items), (std::vector<std::string>{"a", "c"}));
}

TEST(EngineExtensionsTest, UnionDeduplicates) {
  const std::string xml = "<r><a><b/></a></r>";
  auto items = EvalStreaming("//b | //a/b", xml);
  EXPECT_EQ(items.size(), 1u);
}

TEST(EngineExtensionsTest, AttributeOutput) {
  const std::string xml = "<r><a id=\"one\"/><a/><a id=\"two\"/></r>";
  auto items = EvalStreaming("//a/@id", xml);
  ASSERT_EQ(items.size(), 2u);
  EXPECT_EQ(items[0].name, "id");
  EXPECT_EQ(items[0].value, "one");
  EXPECT_EQ(items[1].value, "two");
}

TEST(EngineExtensionsTest, AttributePredicate) {
  const std::string xml =
      "<r><a id=\"x\"/><a id=\"y\"/><a class=\"x\"/></r>";
  auto items = EvalStreaming("//a[@id]", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2, 3}));
  items = EvalStreaming("//a[@id='y']", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{3}));
  items = EvalStreaming("//a[@*]", xml);
  EXPECT_EQ(items.size(), 3u);
}

TEST(EngineExtensionsTest, TextPredicateAndOutput) {
  const std::string xml = "<r><a>yes</a><a>no</a><a><b/>yes</a></r>";
  auto items = EvalStreaming("//a[text()='yes']", xml);
  EXPECT_EQ(Ordinals(items), (std::vector<uint32_t>{2, 4}));
  items = EvalStreaming("//a/text()", xml);
  EXPECT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].value, "yes");
}

TEST(EngineExtensionsTest, MultipleOutputsTuples) {
  // $a/$b — all (a, b) parent/child pairs (paper Section 5.3).
  const std::string xml = "<a><b/><b/><a><b/></a></a>";
  auto trees = query::CompileToXTrees("//$a/$b");
  ASSERT_TRUE(trees.ok());
  core::XaosEngine engine(&trees->front());
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  core::TupleEnumeration tuples = engine.OutputTuples();
  EXPECT_TRUE(tuples.complete);
  std::set<std::pair<uint32_t, uint32_t>> pairs;
  for (const core::OutputTuple& tuple : tuples.tuples) {
    ASSERT_EQ(tuple.size(), 2u);
    pairs.insert({tuple[0].ordinal, tuple[1].ordinal});
  }
  // a(1) has b children 2, 3; a(4) has b child 5.
  EXPECT_EQ(pairs, (std::set<std::pair<uint32_t, uint32_t>>{
                       {1, 2}, {1, 3}, {4, 5}}));
  // The union result contains all five marked elements.
  EXPECT_EQ(engine.result().items.size(), 5u);
}

TEST(EngineExtensionsTest, TupleLimit) {
  std::string xml = "<a>";
  for (int i = 0; i < 30; ++i) xml += "<b/>";
  xml += "</a>";
  auto trees = query::CompileToXTrees("//$a/$b");
  ASSERT_TRUE(trees.ok());
  core::XaosEngine engine(&trees->front());
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  core::TupleEnumeration tuples = engine.OutputTuples(/*max_tuples=*/10);
  EXPECT_FALSE(tuples.complete);
  EXPECT_EQ(tuples.tuples.size(), 10u);
}

TEST(EngineExtensionsTest, CaptureOutputSubtrees) {
  const std::string xml =
      "<r><k><x a=\"1\"><y>text</y></x></k><x><z/></x></r>";
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  auto result = core::EvaluateStreaming("//k/x", xml, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 1u);
  EXPECT_EQ(result->items[0].captured_xml, "<x a=\"1\"><y>text</y></x>");
}

TEST(EngineExtensionsTest, CaptureNestedOutputs) {
  const std::string xml = "<r><x><x>inner</x></x></r>";
  core::EngineOptions options;
  options.capture_output_subtrees = true;
  auto result = core::EvaluateStreaming("//x", xml, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->items.size(), 2u);
  EXPECT_EQ(result->items[0].captured_xml, "<x><x>inner</x></x>");
  EXPECT_EQ(result->items[1].captured_xml, "<x>inner</x>");
}

TEST(EngineExtensionsTest, IntersectionEvaluation) {
  // //Y[U]//W ∩ //Z[V]//W over the Figure 2 document: W elements that are
  // below a Y-with-U and below a Z-with-V: exactly W7, W8.
  auto a = query::CompileToXTrees("//Y[U]//W");
  auto b = query::CompileToXTrees("//Z[V]//W");
  ASSERT_TRUE(a.ok() && b.ok());
  auto merged = query::Intersect(a->front(), b->front());
  ASSERT_TRUE(merged.ok());

  core::XaosEngine engine(&*merged);
  ASSERT_TRUE(xml::ParseString(test::kFigure2Document, &engine).ok());
  std::vector<uint32_t> ordinals;
  for (const auto& item : engine.result().items) {
    ordinals.push_back(item.info.ordinal);
  }
  EXPECT_EQ(ordinals, (std::vector<uint32_t>{7, 8}));
}

TEST(EngineExtensionsTest, LiveStructureLimit) {
  core::EngineOptions options;
  options.max_live_structures = 4;
  std::string xml = "<a>";
  for (int i = 0; i < 100; ++i) xml += "<a>";
  for (int i = 0; i < 100; ++i) xml += "</a>";
  xml += "</a>";
  auto result = core::EvaluateStreaming("//a", xml, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(EngineExtensionsTest, StatsDiscardCounting) {
  // Only b elements under k are relevant; everything else is discarded.
  const std::string xml =
      "<r><k><b/></k><c/><c/><c/><b/></r>";
  auto trees = query::CompileToXTrees("//k/b");
  ASSERT_TRUE(trees.ok());
  core::XaosEngine engine(&trees->front());
  ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
  const core::EngineStats& stats = engine.stats();
  EXPECT_EQ(stats.elements_total, 7u);
  // r, the three c's, and the trailing b (no k ancestor) are discarded.
  EXPECT_EQ(stats.elements_discarded, 5u);
  EXPECT_DOUBLE_EQ(stats.DiscardedFraction(), 5.0 / 7.0);
}

TEST(EngineExtensionsTest, RelevanceFilterAblation) {
  // With the filter off, results are identical but more structures are
  // created (label-matching elements are no longer pre-filtered).
  const std::string xml =
      "<r><k><b/></k><b/><b/><b/></r>";
  auto trees = query::CompileToXTrees("//k/b");
  ASSERT_TRUE(trees.ok());

  core::XaosEngine filtered(&trees->front());
  ASSERT_TRUE(xml::ParseString(xml, &filtered).ok());

  core::EngineOptions off;
  off.enable_relevance_filter = false;
  core::XaosEngine unfiltered(&trees->front(), off);
  ASSERT_TRUE(xml::ParseString(xml, &unfiltered).ok());

  EXPECT_EQ(filtered.result().items.size(), 1u);
  EXPECT_EQ(unfiltered.result().items.size(), 1u);
  EXPECT_GT(unfiltered.stats().structures_created,
            filtered.stats().structures_created);
}

TEST(EngineExtensionsTest, NoLiveStructuresAfterDocument) {
  auto trees = query::CompileToXTrees(test::kFigure3Query);
  ASSERT_TRUE(trees.ok());
  auto engine = std::make_unique<core::XaosEngine>(&trees->front());
  ASSERT_TRUE(xml::ParseString(test::kFigure2Document, &*engine).ok());
  // Live structures remaining are exactly those reachable from the root
  // structure (the retained result); everything else was freed.
  EXPECT_GT(engine->stats().structures_live, 0u);
  EXPECT_LE(engine->stats().structures_live,
            engine->stats().structures_created);
  // After processing an empty-ish second document, the previous result's
  // structures are released.
  ASSERT_TRUE(xml::ParseString("<q/>", &*engine).ok());
  EXPECT_LE(engine->stats().structures_live, 1u);
}

}  // namespace
}  // namespace xaos

namespace xaos {
namespace {

TEST(EngineExtensionsTest, BooleanSubmatchingsReduceRetainedStructures) {
  // //w[ancestor::z[v]]: the z/v predicate subtree carries no output, so
  // with boolean submatchings its confirmed matchings are counted and
  // released instead of retained until end of document.
  std::string xml = "<r>";
  for (int i = 0; i < 200; ++i) xml += "<z><v/><w/></z>";
  xml += "</r>";
  auto trees = query::CompileToXTrees("//w[ancestor::z[v]]");
  ASSERT_TRUE(trees.ok());

  // Pin earliest emission off: its eager reclamation drains both engines
  // to the root structure, hiding the boolean-submatchings contrast this
  // test is about.
  core::EngineOptions on;
  on.enable_earliest_emission = false;
  core::EngineOptions off;
  off.enable_boolean_submatchings = false;
  off.enable_earliest_emission = false;

  core::XaosEngine with(&trees->front(), on);
  ASSERT_TRUE(xml::ParseString(xml, &with).ok());
  core::XaosEngine without(&trees->front(), off);
  ASSERT_TRUE(xml::ParseString(xml, &without).ok());

  ASSERT_EQ(with.result().items.size(), 200u);
  ASSERT_EQ(without.result().items.size(), 200u);
  // Identical answers, but the final retained structure count shrinks: the
  // z and v structures are counted away, only the w chain survives.
  EXPECT_LT(with.stats().structures_live, without.stats().structures_live);
}


// --- record store and engine reuse -----------------------------------------

TEST(MatchingStoreTest, RecycledRecordReadsAsExpired) {
  core::EngineStats stats;
  core::MatchingStore store(&stats);
  core::MatchingId parent = store.Create(0, core::NodePosition{}, 1, "", "");
  core::MatchingId child =
      store.Create(1, core::NodePosition{.id = 2}, 0, "name", "value");
  EXPECT_EQ(store.name(child), "name");
  EXPECT_EQ(store.value(child), "value");
  store.Link(parent, 0, child, /*optimistic=*/false);
  ASSERT_EQ(store.backrefs(child).size(), 1u);
  const core::MatchingHandle parent_handle = store.backrefs(child)[0].parent;
  EXPECT_TRUE(store.Alive(parent_handle));

  // The child's creator lets go; the parent's slot still holds it.
  store.Release(child);
  EXPECT_EQ(stats.structures_live, 2u);
  const core::MatchingHandle child_handle = store.handle(child);
  // Freeing the parent releases its slot, which frees the child too.
  store.Release(parent);
  EXPECT_EQ(stats.structures_live, 0u);
  EXPECT_EQ(stats.structure_memory.live_bytes, 0u);
  EXPECT_FALSE(store.Alive(parent_handle));
  EXPECT_FALSE(store.Alive(child_handle));

  // New records reuse the freed slots; the old handles stay expired.
  core::MatchingId a = store.Create(0, core::NodePosition{}, 0, "", "");
  core::MatchingId b = store.Create(0, core::NodePosition{}, 0, "", "");
  EXPECT_TRUE((a == parent && b == child) || (a == child && b == parent));
  EXPECT_FALSE(store.Alive(parent_handle));
  EXPECT_FALSE(store.Alive(child_handle));
  EXPECT_TRUE(store.Alive(store.handle(a)));
  EXPECT_TRUE(store.Alive(store.handle(b)));

  // A bulk reset drops every live record without visiting it.
  store.Reset();
  EXPECT_EQ(stats.structures_live, 0u);
  EXPECT_EQ(stats.structure_memory.live_bytes, 0u);
  EXPECT_GT(stats.structure_memory.peak_bytes, 0u);
}

// Name and value bytes kept for an output go back to the store with their
// record, so a long document whose candidates mostly fail holds no more
// store memory than a short one.
TEST(MatchingStoreTest, FailedCandidateTextIsReleasedMidDocument) {
  struct Case {
    const char* expression;
    const char* result;     // one element that matches
    const char* candidate;  // an element that fails once it closes
  };
  const Case cases[] = {
      {"//$*[@id]", "<k id=\"1\"/>", "<element_with_a_long_tag_name/>"},
      {"//a[b]/$@x", "<a x=\"1\"><b/></a>",
       "<a x=\"a value long enough to show up in the store's text\"/>"},
  };
  for (const Case& c : cases) {
    auto trees = query::CompileToXTrees(c.expression);
    ASSERT_TRUE(trees.ok()) << c.expression;
    auto run = [&](int candidates, size_t* capacity,
                   core::EngineStats* stats) {
      std::string xml = std::string("<r>") + c.result;
      for (int i = 0; i < candidates; ++i) xml += c.candidate;
      xml += "</r>";
      core::XaosEngine engine(&trees->front());
      ASSERT_TRUE(xml::ParseString(xml, &engine).ok());
      ASSERT_TRUE(engine.status().ok());
      EXPECT_EQ(engine.result().items.size(), 1u) << c.expression;
      *capacity = engine.matching_store_capacity_bytes();
      *stats = engine.stats();
    };
    size_t short_capacity = 0;
    size_t long_capacity = 0;
    core::EngineStats short_stats;
    core::EngineStats long_stats;
    run(100, &short_capacity, &short_stats);
    run(20000, &long_capacity, &long_stats);
    EXPECT_GT(long_stats.structures_created,
              short_stats.structures_created + 19000)
        << c.expression;
    EXPECT_EQ(long_capacity, short_capacity) << c.expression;
    EXPECT_EQ(long_stats.structure_memory.peak_bytes,
              short_stats.structure_memory.peak_bytes)
        << c.expression;
  }
}

// Documents for the reuse series, with two aborted ones: a parse error
// mid-stream and a document whose open a's exceed max_live_structures.
std::vector<std::string> ReuseSeries() {
  std::string deep = "<r>";
  for (int i = 0; i < 300; ++i) deep += "<a x=\"d\">";
  for (int i = 0; i < 300; ++i) deep += "</a>";
  deep += "</r>";
  return {
      "<r><a x=\"1\"><b>t</b><b/></a><a><c/><b x=\"2\">u</b></a></r>",
      "<r><a><a><b/></a><b>v</b></a><b/><a x=\"3\"/><b/></r>",
      "<r><a><b></a></r>",  // mismatched end tag: parse error mid-stream
      "<r><z><a/><b><w/></b><a x=\"4\"/><b/></z><a><b>w</b></a></r>",
      deep,                 // trips max_live_structures
      "<r><a x=\"5\"><b>x</b></a><a><a><b/><b x=\"6\"/></a></a></r>",
      "<q/>",
  };
}

constexpr const char* kReuseQueries[] = {
    "//$a/$b",                          // two outputs: full structure graph
    "//b[ancestor::a]",                 // backward axis, single-output reclaim
    "//a[following-sibling::b]",        // deferred sibling completion
    "//a/$@x",                          // attribute output (arena value bytes)
    "//$*/text()",                      // wildcard output (arena name bytes)
};

// Tuples as comparable strings: node rendering, id and value per member.
std::vector<std::vector<std::string>> TupleKeys(
    const core::TupleEnumeration& enumeration) {
  std::vector<std::vector<std::string>> keys;
  for (const core::OutputTuple& tuple : enumeration.tuples) {
    std::vector<std::string>& key = keys.emplace_back();
    for (const core::ElementInfo& info : tuple) {
      key.push_back(info.ToString() + "#" + std::to_string(info.id) + "=" +
                    info.value);
    }
  }
  return keys;
}

core::EngineOptions ReuseOptions() {
  core::EngineOptions options;
  options.max_live_structures = 200;
  return options;
}

TEST(EngineReuseTest, EngineSeriesMatchesFreshEngines) {
  for (const char* expression : kReuseQueries) {
    auto trees = query::CompileToXTrees(expression);
    ASSERT_TRUE(trees.ok()) << expression;
    core::XaosEngine reused(&trees->front(), ReuseOptions());
    size_t capacity_after_first_pass = 0;
    int trips = 0;
    int parse_errors = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& xml : ReuseSeries()) {
        core::XaosEngine fresh(&trees->front(), ReuseOptions());
        Status fresh_status = xml::ParseString(xml, &fresh);
        Status reused_status = xml::ParseString(xml, &reused);
        ASSERT_EQ(reused_status.ok(), fresh_status.ok()) << xml;
        ASSERT_EQ(reused.status().ok(), fresh.status().ok()) << xml;
        if (!reused.status().ok()) {
          // A limit trip drops every structure in bulk.
          EXPECT_EQ(reused.status().code(), StatusCode::kResourceExhausted);
          EXPECT_EQ(reused.stats().structures_live, 0u) << expression;
          EXPECT_EQ(reused.stats().structure_memory.live_bytes, 0u);
          ++trips;
          continue;
        }
        if (!reused_status.ok()) {  // parse error mid-stream
          ++parse_errors;
          continue;
        }
        const core::QueryResult& got = reused.result();
        const core::QueryResult& want = fresh.result();
        EXPECT_EQ(got.matched, want.matched) << expression << " on " << xml;
        EXPECT_EQ(baseline::CanonicalFromResult(got),
                  baseline::CanonicalFromResult(want))
            << expression << " on " << xml;
        const core::EngineStats& a = reused.stats();
        const core::EngineStats& b = fresh.stats();
        EXPECT_EQ(a.structures_created, b.structures_created) << expression;
        EXPECT_EQ(a.structures_live, b.structures_live) << expression;
        EXPECT_EQ(a.structures_live_peak, b.structures_live_peak);
        EXPECT_EQ(a.structure_memory.peak_bytes, b.structure_memory.peak_bytes);
        EXPECT_EQ(a.candidates_reclaimed, b.candidates_reclaimed);
        EXPECT_EQ(TupleKeys(reused.OutputTuples()),
                  TupleKeys(fresh.OutputTuples()))
            << expression << " on " << xml;
      }
      if (pass == 0) {
        capacity_after_first_pass = reused.matching_store_capacity_bytes();
        EXPECT_GT(capacity_after_first_pass, 0u);
      } else {
        EXPECT_EQ(reused.matching_store_capacity_bytes(),
                  capacity_after_first_pass)
            << expression;
      }
    }
    EXPECT_EQ(trips, 2) << expression;
    EXPECT_EQ(parse_errors, 2) << expression;
  }
}

TEST(EngineReuseTest, EvaluatorSeriesMatchesFreshEvaluators) {
  for (const char* expression : kReuseQueries) {
    auto query = core::Query::Compile(expression);
    ASSERT_TRUE(query.ok()) << expression;
    core::StreamingEvaluator reused(*query, ReuseOptions());
    std::vector<size_t> capacity_after_first_pass;
    for (int pass = 0; pass < 2; ++pass) {
      for (const std::string& xml : ReuseSeries()) {
        core::StreamingEvaluator fresh(*query, ReuseOptions());
        Status fresh_status = xml::ParseString(xml, &fresh);
        Status reused_status = xml::ParseString(xml, &reused);
        ASSERT_EQ(reused_status.ok(), fresh_status.ok()) << xml;
        if (!reused_status.ok()) {
          reused.AbortDocument(reused_status);
          continue;
        }
        ASSERT_EQ(reused.status().ok(), fresh.status().ok()) << xml;
        if (!reused.status().ok()) {
          EXPECT_EQ(reused.AggregateStats().structures_live, 0u);
          continue;
        }
        EXPECT_EQ(baseline::CanonicalFromResult(reused.Result()),
                  baseline::CanonicalFromResult(fresh.Result()))
            << expression << " on " << xml;
        EXPECT_EQ(reused.AggregateStats().structures_live,
                  fresh.AggregateStats().structures_live);
      }
      std::vector<size_t> capacity;
      for (const auto& engine : reused.engines()) {
        capacity.push_back(engine->matching_store_capacity_bytes());
      }
      if (pass == 0) {
        capacity_after_first_pass = capacity;
      } else {
        EXPECT_EQ(capacity, capacity_after_first_pass) << expression;
      }
    }
  }
}

}  // namespace
}  // namespace xaos
