#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <set>
#include <unordered_map>

#include "baseline/brute_force_matcher.h"
#include "baseline/compare.h"
#include "baseline/navigational_engine.h"
#include "dom/dom_builder.h"
#include "gen/xmark_generator.h"
#include "query/xtree_builder.h"

namespace perfbench {
namespace {

using xaos::baseline::CanonicalItem;

// Fixed parts of the workload definitions: XMark documents of ~0.31 MB,
// and wide catalogs of 5,000 rows.
constexpr double kXMarkScale = 0.01;
constexpr int kWideRows = 5000;

// Zipf-popularity subscription pool over the XMark vocabulary: `subs`
// expressions drawn from `distinct` linear forward chains (a quarter of
// them dead leaves under live prefixes), template rank r drawn with weight
// 1/(r+1)^exponent. A frozen copy of MakeZipfTemplates and
// MakeZipfSubscriptionPool in bench/bench_random_workload.h, kept on
// purpose so the benchmark's inputs stay fixed while the bench binaries
// change; a change there does not move this workload.
std::vector<std::string> ZipfPool(int subs, double exponent, uint64_t seed) {
  static const char* const kPrefixes[] = {
      "/site/regions",         "/site/people",     "/site/open_auctions",
      "/site/closed_auctions", "/site/categories", "/site/catgraph",
      "//item",                "//person",         "//open_auction",
      "//closed_auction",      "//category",       "//annotation",
  };
  static const char* const kSteps[] = {
      "name",     "description", "text",     "emailaddress", "incategory",
      "quantity", "location",    "payment",  "shipping",     "mailbox",
      "bidder",   "personref",   "seller",   "price",        "itemref",
      "edge",     "watch",       "address",  "city",         "country",
      "date",     "author",      "current",  "parlist",      "listitem",
  };
  constexpr int kNumPrefixes = sizeof(kPrefixes) / sizeof(kPrefixes[0]);
  constexpr int kNumSteps = sizeof(kSteps) / sizeof(kSteps[0]);
  const int distinct = std::clamp(subs / 5, 64, 4000);
  std::vector<std::string> templates;
  for (int i = 0; i < distinct; ++i) {
    std::string expr = kPrefixes[i % kNumPrefixes];
    if (i % 4 == 3) {
      expr += "/zzq" + std::to_string(i / 4);
    } else {
      expr += (i % 3 == 0) ? "//" : "/";
      expr += kSteps[(i * 7) % kNumSteps];
      if (i % 5 == 0) {
        expr += "/";
        expr += kSteps[(i * 11 + 3) % kNumSteps];
      }
    }
    templates.push_back(std::move(expr));
  }
  std::vector<double> cdf(templates.size());
  double total = 0;
  for (size_t r = 0; r < templates.size(); ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), exponent);
    cdf[r] = total;
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<std::string> pool;
  for (int i = 0; i < subs; ++i) {
    size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uniform(rng)) - cdf.begin());
    pool.push_back(templates[std::min(rank, templates.size() - 1)]);
  }
  return pool;
}

// Rooted paths into the two smallest XMark sections (catgraph and
// categories), as in bench_projection's selective pool, padded with rooted
// subscriptions to names that never occur: the union projection keeps
// only those two sections, so nearly every byte goes through the skip
// scanner.
std::vector<std::string> SelectivePool(int subs) {
  static const char* const kTemplates[] = {
      "/site/catgraph/edge",
      "/site/catgraph/edge/@from",
      "/site/categories/category/name",
      "/site/categories/category/name/text()",
      "/site/categories/category/description",
      "/site/categories/category",
  };
  std::vector<std::string> pool;
  for (int i = 0; i < subs; ++i) {
    if (i < 6) {
      pool.push_back(kTemplates[i]);
    } else {
      pool.push_back("/site/routing_rule_" + std::to_string(i) + "/target");
    }
  }
  return pool;
}

// A flat catalog: every row is a match of //$item/$name.
std::string WideDocument(int rows, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::string xml = "<catalog>";
  for (int i = 0; i < rows; ++i) {
    xml += "<item id=\"i" + std::to_string(rng() % 1000000) + "\"><name>n" +
           std::to_string(rng() % 100000) + "</name><price>" +
           std::to_string(rng() % 10000) + "</price></item>";
  }
  xml += "</catalog>";
  return xml;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {
      "grep-paper", "zipf-router", "selective-projection", "wide-results"};
  return kNames;
}

bool MakeWorkload(const Params& params, Workload* workload,
                  std::string* error) {
  if (params.pool_docs < 1) {
    *error = "--pool-docs must be at least 1";
    return false;
  }
  const std::string& name = params.workload;
  bool xmark = true;
  if (name == "grep-paper") {
    workload->expressions = {xaos::gen::kXMarkPaperQuery};
  } else if (name == "zipf-router") {
    workload->multi = true;
    int subs = params.subscriptions > 0 ? params.subscriptions : 10000;
    workload->expressions = ZipfPool(subs, params.zipf_exponent, params.seed);
  } else if (name == "selective-projection") {
    workload->multi = true;
    workload->expressions =
        SelectivePool(params.subscriptions > 0 ? params.subscriptions : 100);
  } else if (name == "wide-results") {
    workload->expressions = {"//$item/$name"};
    xmark = false;
  } else {
    *error = "unknown workload: " + name;
    return false;
  }

  std::unordered_map<std::string, size_t> index;
  for (size_t q = 0; q < workload->expressions.size(); ++q) {
    auto [it, fresh] = index.emplace(workload->expressions[q],
                                     workload->distinct.size());
    if (fresh) {
      workload->distinct.push_back(workload->expressions[q]);
      workload->first_subscription.push_back(q);
    }
    workload->distinct_of.push_back(it->second);
  }

  std::mt19937_64 rng(params.seed);
  for (int i = 0; i < params.pool_docs; ++i) {
    uint64_t doc_seed = rng();
    if (xmark) {
      xaos::gen::XMarkOptions options;
      options.scale = kXMarkScale;
      options.seed = doc_seed;
      workload->documents.push_back(xaos::gen::GenerateXMark(options));
    } else {
      workload->documents.push_back(WideDocument(kWideRows, doc_seed));
    }
  }
  return true;
}

bool ComputeOracle(const Workload& workload,
                   std::vector<std::vector<Expected>>* expected,
                   std::string* error) {
  expected->clear();
  for (const std::string& text : workload.documents) {
    auto doc = xaos::dom::ParseToDocument(text);
    if (!doc.ok()) {
      *error = "oracle parse: " + doc.status().ToString();
      return false;
    }
    xaos::baseline::NavigationalEngine nav(&*doc);
    std::vector<Expected>& row = expected->emplace_back();
    for (const std::string& expression : workload.distinct) {
      Expected& want = row.emplace_back();
      if (expression.find('$') == std::string::npos) {
        auto refs = nav.Evaluate(expression);
        if (!refs.ok()) {
          *error = expression + ": " + refs.status().ToString();
          return false;
        }
        want.items = xaos::baseline::CanonicalFromRefs(*doc, *refs);
        want.matched = !want.items.empty();
        continue;
      }
      auto trees = xaos::query::CompileToXTrees(expression);
      if (!trees.ok()) {
        *error = expression + ": " + trees.status().ToString();
        return false;
      }
      std::set<CanonicalItem> items;
      for (const xaos::query::XTree& tree : *trees) {
        xaos::baseline::BruteForceOutcome outcome =
            xaos::baseline::BruteForceMatch(*doc, tree);
        if (!outcome.complete) {
          *error = expression + ": brute-force enumeration incomplete";
          return false;
        }
        want.matched = want.matched || outcome.matched;
        items.insert(outcome.items.begin(), outcome.items.end());
      }
      want.items.assign(items.begin(), items.end());
    }
  }
  return true;
}

}  // namespace perfbench
