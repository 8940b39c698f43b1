#include "query/xtree_builder.h"

#include "obs/metrics.h"
#include "obs/timer.h"
#include "query/normalizer.h"
#include "xpath/parser.h"

namespace xaos::query {
namespace {

using xpath::Axis;
using xpath::LocationPath;
using xpath::NodeTestKind;
using xpath::PredExpr;
using xpath::Step;

// Converts a step's node test into a NodeTestSpec.
StatusOr<NodeTestSpec> SpecForStep(const Step& step) {
  NodeTestSpec spec;
  if (step.axis == Axis::kAttribute) {
    switch (step.test.kind) {
      case NodeTestKind::kName:
        spec.kind = NodeTestSpec::Kind::kAttribute;
        spec.name = step.test.name;
        break;
      case NodeTestKind::kWildcard:
        spec.kind = NodeTestSpec::Kind::kAnyAttribute;
        break;
      case NodeTestKind::kText:
        return UnsupportedError("text() on the attribute axis");
    }
  } else {
    switch (step.test.kind) {
      case NodeTestKind::kName:
        spec.kind = NodeTestSpec::Kind::kElement;
        spec.name = step.test.name;
        break;
      case NodeTestKind::kWildcard:
        spec.kind = NodeTestSpec::Kind::kAnyElement;
        break;
      case NodeTestKind::kText:
        spec.kind = NodeTestSpec::Kind::kText;
        break;
    }
  }
  spec.value = step.compare_literal;
  if (!spec.name.empty()) {
    spec.name_symbol = util::SymbolTable::Global().Intern(spec.name);
  }
  return spec;
}

bool IsLeafOnlySpec(const NodeTestSpec& spec) {
  return spec.kind == NodeTestSpec::Kind::kAttribute ||
         spec.kind == NodeTestSpec::Kind::kAnyAttribute ||
         spec.kind == NodeTestSpec::Kind::kText;
}

class Builder {
 public:
  // Appends `path`'s steps under `context`; `in_predicate` suppresses the
  // default output designation. Appendix A: the Step and RelLocPath rules
  // chain node tests; the PredExpr rules branch at the current node;
  // AbsLocPath anchors at Root.
  Status BuildPath(const LocationPath& path, XNodeId context,
                   bool in_predicate) {
    XNodeId current = path.absolute ? kRootXNode : context;
    for (const Step& step : path.steps) {
      if (IsLeafOnlySpec(tree_.node(current).test)) {
        return UnsupportedError(
            "attribute/text() steps must be the last step of a path");
      }
      XAOS_ASSIGN_OR_RETURN(NodeTestSpec spec, SpecForStep(step));
      Axis axis = step.axis;
      if (axis == Axis::kFollowing || axis == Axis::kPreceding) {
        // Standard identity: following:: ≡ ancestor-or-self::*/
        // following-sibling::*/descendant-or-self:: (and symmetrically for
        // preceding::). The engine's result sets and predicate semantics
        // are duplicate-free, so the multiple derivations are harmless.
        NodeTestSpec any;
        any.kind = NodeTestSpec::Kind::kAnyElement;
        current = tree_.AddNode(current, Axis::kAncestorOrSelf, any);
        current = tree_.AddNode(current,
                                axis == Axis::kFollowing
                                    ? Axis::kFollowingSibling
                                    : Axis::kPrecedingSibling,
                                any);
        axis = Axis::kDescendantOrSelf;
      }
      current = tree_.AddNode(current, axis, std::move(spec));
      if (step.output_marked) {
        tree_.MarkOutput(current);
        has_explicit_outputs_ = true;
      }
      if (!step.predicates.empty() &&
          IsLeafOnlySpec(tree_.node(current).test)) {
        return UnsupportedError("predicates on attribute/text() steps");
      }
      for (const PredExpr& pred : step.predicates) {
        XAOS_RETURN_IF_ERROR(BuildPred(pred, current));
      }
    }
    if (!in_predicate) {
      default_output_ = current;
    }
    return Status::Ok();
  }

  Status BuildPred(const PredExpr& pred, XNodeId context) {
    switch (pred.kind) {
      case PredExpr::Kind::kPath:
        return BuildPath(pred.path, context, /*in_predicate=*/true);
      case PredExpr::Kind::kAnd:
        for (const PredExpr& child : pred.children) {
          XAOS_RETURN_IF_ERROR(BuildPred(child, context));
        }
        return Status::Ok();
      case PredExpr::Kind::kOr:
        return UnsupportedError(
            "`or` predicates must be expanded with ExpandOrs before "
            "building an x-tree");
    }
    return InternalError("unknown PredExpr kind");
  }

  StatusOr<XTree> Finish() {
    for (int v = 0; v < tree_.size(); ++v) {
      if (tree_.node(v).children.size() > kMaxXNodeChildren) {
        return UnsupportedError(
            "a step has more than " + std::to_string(kMaxXNodeChildren) +
            " predicates and child steps");
      }
    }
    if (!has_explicit_outputs_) {
      if (default_output_ == kRootXNode) {
        return UnsupportedError("expression selects only the virtual root");
      }
      tree_.MarkOutput(default_output_);
    }
    return std::move(tree_);
  }

 private:
  XTree tree_;
  XNodeId default_output_ = kRootXNode;
  bool has_explicit_outputs_ = false;
};

}  // namespace

StatusOr<XTree> BuildXTree(const LocationPath& path) {
  if (path.steps.empty()) {
    return UnsupportedError("empty location path");
  }
  Builder builder;
  XAOS_RETURN_IF_ERROR(builder.BuildPath(path, kRootXNode,
                                         /*in_predicate=*/false));
  return builder.Finish();
}

StatusOr<std::vector<XTree>> CompileToXTrees(std::string_view expression,
                                             int max_paths) {
  // Query-compile phase accounting; successful compiles only.
  uint64_t start = obs::Enabled() ? obs::NowNs() : 0;
  XAOS_ASSIGN_OR_RETURN(xpath::Expression parsed,
                        xpath::ParseExpression(expression));
  XAOS_ASSIGN_OR_RETURN(std::vector<LocationPath> paths,
                        ExpandOrs(parsed, max_paths));
  std::vector<XTree> trees;
  trees.reserve(paths.size());
  for (const LocationPath& path : paths) {
    XAOS_ASSIGN_OR_RETURN(XTree tree, BuildXTree(path));
    trees.push_back(std::move(tree));
  }
  if (start != 0) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
    registry.GetHistogram("xaos_compile_ns")->Record(obs::NowNs() - start);
    registry.GetCounter("xaos_queries_compiled_total")->Increment();
    registry.GetCounter("xaos_xtrees_built_total")
        ->Increment(trees.size());
  }
  return trees;
}

}  // namespace xaos::query
