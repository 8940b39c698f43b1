// Shared helpers for the xaos test suite.

#ifndef XAOS_TESTS_TEST_UTIL_H_
#define XAOS_TESTS_TEST_UTIL_H_

#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "baseline/navigational_engine.h"
#include "core/multi_engine.h"
#include "dom/dom_builder.h"
#include "dom/dom_replayer.h"
#include "gtest/gtest.h"
#include "query/xtree_builder.h"

namespace xaos::test {

// Evaluates `xpath` over `xml` with the streaming engine; fails the test on
// error. Returns canonical items (sorted).
inline std::vector<baseline::CanonicalItem> EvalStreaming(
    std::string_view xpath, std::string_view xml,
    core::EngineOptions options = {}) {
  StatusOr<core::QueryResult> result =
      core::EvaluateStreaming(xpath, xml, options);
  EXPECT_TRUE(result.ok()) << result.status();
  if (!result.ok()) return {};
  return baseline::CanonicalFromResult(*result);
}

// Evaluates with the navigational baseline over a DOM built from `xml`.
inline std::vector<baseline::CanonicalItem> EvalBaseline(
    std::string_view xpath, std::string_view xml) {
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  if (!doc.ok()) return {};
  baseline::NavigationalEngine engine(&doc.value());
  StatusOr<std::vector<baseline::NodeRef>> refs = engine.Evaluate(xpath);
  EXPECT_TRUE(refs.ok()) << refs.status();
  if (!refs.ok()) return {};
  return baseline::CanonicalFromRefs(doc.value(), *refs);
}

// The brute-force x-tree matcher's answer for `xpath` over a DOM built from
// `xml`: matched if any disjunct matched, items the union of every
// disjunct's items (canonical order). Unlike EvalBaseline it handles
// multi-output ($-marked) queries.
struct BruteForceAnswer {
  bool matched = false;
  std::vector<baseline::CanonicalItem> items;
};
inline BruteForceAnswer EvalBruteForce(std::string_view xpath,
                                       std::string_view xml) {
  BruteForceAnswer answer;
  StatusOr<dom::Document> doc = dom::ParseToDocument(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  auto trees = query::CompileToXTrees(xpath);
  EXPECT_TRUE(trees.ok()) << xpath << ": " << trees.status();
  if (!doc.ok() || !trees.ok()) return answer;
  std::set<baseline::CanonicalItem> items;
  for (const query::XTree& tree : *trees) {
    baseline::BruteForceOutcome outcome = baseline::BruteForceMatch(*doc, tree);
    EXPECT_TRUE(outcome.complete) << xpath;
    answer.matched = answer.matched || outcome.matched;
    items.insert(outcome.items.begin(), outcome.items.end());
  }
  answer.items.assign(items.begin(), items.end());
  return answer;
}

// Names (element tags) of the items, in order.
inline std::vector<std::string> Names(
    const std::vector<baseline::CanonicalItem>& items) {
  std::vector<std::string> names;
  names.reserve(items.size());
  for (const auto& item : items) names.push_back(item.name);
  return names;
}

// Ordinals of the items, in order.
inline std::vector<uint32_t> Ordinals(
    const std::vector<baseline::CanonicalItem>& items) {
  std::vector<uint32_t> ordinals;
  ordinals.reserve(items.size());
  for (const auto& item : items) ordinals.push_back(item.ordinal);
  return ordinals;
}

// The paper's running example document (Figure 2). Element ordinals match
// the paper's ids: X=1, Y=2, W=3, Z=4, V=5, V=6, W=7, W=8, U=9, Y=10,
// Z=11, W=12, U=13.
inline constexpr std::string_view kFigure2Document = R"(<X>
  <Y>
    <W/>
    <Z> <V/> <V/> <W> <W/> </W> </Z>
    <U/>
  </Y>
  <Y>
    <Z> <W/> </Z>
    <U/>
  </Y>
</X>)";

// The paper's running example query (Figure 3):
// /descendant::Y[child::U]/descendant::W[ancestor::Z/child::V].
inline constexpr std::string_view kFigure3Query =
    "/descendant::Y[child::U]/descendant::W[ancestor::Z/child::V]";

}  // namespace xaos::test

#endif  // XAOS_TESTS_TEST_UTIL_H_
