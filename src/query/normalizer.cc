#include "query/normalizer.h"

#include <utility>

namespace xaos::query {
namespace {

using xpath::LocationPath;
using xpath::PredExpr;
using xpath::Step;

// A conjunction of or-free predicate paths.
using Conjunction = std::vector<LocationPath>;
// A disjunction of conjunctions (DNF).
using Dnf = std::vector<Conjunction>;

constexpr int kNoLimitGuard = 1 << 20;  // hard cap against blow-up mid-expansion

StatusOr<std::vector<LocationPath>> ExpandPath(const LocationPath& path,
                                               int max_paths);

// Expands a predicate expression into DNF with or-free paths.
StatusOr<Dnf> ExpandPred(const PredExpr& pred, int max_paths) {
  switch (pred.kind) {
    case PredExpr::Kind::kPath: {
      XAOS_ASSIGN_OR_RETURN(std::vector<LocationPath> paths,
                            ExpandPath(pred.path, max_paths));
      Dnf dnf;
      for (LocationPath& p : paths) {
        dnf.push_back(Conjunction{std::move(p)});
      }
      return dnf;
    }
    case PredExpr::Kind::kOr: {
      Dnf dnf;
      for (const PredExpr& child : pred.children) {
        XAOS_ASSIGN_OR_RETURN(Dnf child_dnf, ExpandPred(child, max_paths));
        for (Conjunction& conj : child_dnf) {
          dnf.push_back(std::move(conj));
        }
        if (static_cast<int>(dnf.size()) > kNoLimitGuard) {
          return ResourceExhaustedError("or-expansion too large");
        }
      }
      return dnf;
    }
    case PredExpr::Kind::kAnd: {
      Dnf dnf{Conjunction{}};
      for (const PredExpr& child : pred.children) {
        XAOS_ASSIGN_OR_RETURN(Dnf child_dnf, ExpandPred(child, max_paths));
        Dnf next;
        for (const Conjunction& left : dnf) {
          for (const Conjunction& right : child_dnf) {
            Conjunction merged = left;
            merged.insert(merged.end(), right.begin(), right.end());
            next.push_back(std::move(merged));
            if (static_cast<int>(next.size()) > kNoLimitGuard) {
              return ResourceExhaustedError("or-expansion too large");
            }
          }
        }
        dnf = std::move(next);
      }
      return dnf;
    }
  }
  return InternalError("unknown PredExpr kind");
}

// Expands one step into alternatives whose predicates are or-free kPath
// conjunctions.
StatusOr<std::vector<Step>> ExpandStep(const Step& step, int max_paths) {
  std::vector<Step> alternatives;
  Step bare = step;
  bare.predicates.clear();
  alternatives.push_back(std::move(bare));

  for (const PredExpr& pred : step.predicates) {
    XAOS_ASSIGN_OR_RETURN(Dnf dnf, ExpandPred(pred, max_paths));
    std::vector<Step> next;
    for (Step& alt : alternatives) {
      for (size_t c = 0; c < dnf.size(); ++c) {
        const Conjunction& conj = dnf[c];
        // The last combination takes `alt` itself, so an or-free step
        // grows in place instead of copying its predicates each time.
        Step combined = c + 1 == dnf.size() ? std::move(alt) : alt;
        for (const LocationPath& p : conj) {
          PredExpr leaf;
          leaf.kind = PredExpr::Kind::kPath;
          leaf.path = p;
          combined.predicates.push_back(std::move(leaf));
        }
        next.push_back(std::move(combined));
        if (static_cast<int>(next.size()) > kNoLimitGuard) {
          return ResourceExhaustedError("or-expansion too large");
        }
      }
    }
    alternatives = std::move(next);
  }
  return alternatives;
}

StatusOr<std::vector<LocationPath>> ExpandPath(const LocationPath& path,
                                               int max_paths) {
  std::vector<LocationPath> results;
  LocationPath seed;
  seed.absolute = path.absolute;
  results.push_back(std::move(seed));

  for (const Step& step : path.steps) {
    XAOS_ASSIGN_OR_RETURN(std::vector<Step> step_alts,
                          ExpandStep(step, max_paths));
    std::vector<LocationPath> next;
    for (const LocationPath& prefix : results) {
      for (const Step& alt : step_alts) {
        LocationPath extended = prefix;
        extended.steps.push_back(alt);
        next.push_back(std::move(extended));
        if (static_cast<int>(next.size()) > kNoLimitGuard) {
          return ResourceExhaustedError("or-expansion too large");
        }
      }
    }
    results = std::move(next);
  }
  (void)max_paths;
  return results;
}

}  // namespace

StatusOr<std::vector<xpath::LocationPath>> ExpandOrs(
    const xpath::Expression& expression, int max_paths) {
  std::vector<LocationPath> all;
  for (const LocationPath& branch : expression.union_branches) {
    XAOS_ASSIGN_OR_RETURN(std::vector<LocationPath> expanded,
                          ExpandPath(branch, max_paths));
    for (LocationPath& p : expanded) {
      all.push_back(std::move(p));
    }
  }
  if (static_cast<int>(all.size()) > max_paths) {
    return ResourceExhaustedError(
        "or-expansion produced " + std::to_string(all.size()) +
        " disjuncts, exceeding the limit of " + std::to_string(max_paths));
  }
  return all;
}

}  // namespace xaos::query
