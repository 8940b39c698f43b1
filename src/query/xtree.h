// The x-tree: the paper's tree representation of an Rxp (Section 3.1).
//
// An x-tree is a rooted tree whose vertices ("x-nodes") carry node tests and
// whose edges carry axes. The root is the virtual Root x-node. One or more
// x-nodes are designated output nodes. The x-dag (xdag.h) is derived from
// this structure; the matching engine (src/core) composes matchings over the
// x-tree and filters events with the x-dag.

#ifndef XAOS_QUERY_XTREE_H_
#define XAOS_QUERY_XTREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/check.h"
#include "util/symbol_table.h"
#include "xpath/ast.h"

namespace xaos::query {

using XNodeId = int;
inline constexpr XNodeId kRootXNode = 0;
inline constexpr XNodeId kInvalidXNode = -1;

// Kind of document node an x-node can be matched to, together with the
// node-test it must satisfy.
struct NodeTestSpec {
  enum class Kind {
    kRoot,               // only the virtual root (level 0)
    kElement,            // element with tag == name
    kAnyElement,         // any element (*)
    kAttribute,          // attribute with name == name
    kAnyAttribute,       // any attribute (@*)
    kText,               // text node
  };

  Kind kind = Kind::kElement;
  std::string name;                    // kElement / kAttribute
  std::optional<std::string> value;    // required string value (attr/text)
  // Interned id of `name`, filled in by the x-tree compiler so the engine
  // can index candidate tables without hashing. kInvalidSymbol on
  // hand-built specs; the engine interns lazily in that case.
  util::Symbol name_symbol = util::kInvalidSymbol;

  // Display label, e.g. "Y", "*", "@id", "#text", "#root".
  std::string Label() const;

  // Equality is over the test semantics (kind/name/value); the cached
  // symbol is derived from `name` and deliberately excluded so hand-built
  // specs compare equal to compiler-produced ones.
  friend bool operator==(const NodeTestSpec& a, const NodeTestSpec& b) {
    return a.kind == b.kind && a.name == b.name && a.value == b.value;
  }
};

// The document-node kinds the engine distinguishes when matching.
enum class DocNodeKind : uint8_t { kRoot, kElement, kAttribute, kText };

// True if a document node of `kind` with the given `name` (element tag or
// attribute name) and string `value` (attribute value / text content; pass
// empty for elements) satisfies `spec`.
bool MatchesSpec(const NodeTestSpec& spec, DocNodeKind kind,
                 std::string_view name, std::string_view value);

// Returns the axis naming the inverse document relation: child↔parent,
// descendant↔ancestor, self↔self, descendant-or-self↔ancestor-or-self.
// The attribute axis has no inverse in the subset; calling with it aborts.
xpath::Axis InverseAxis(xpath::Axis axis);

// Most children (predicates and child steps) one x-node may have: the
// engine's matching structures count their slots in 16 bits.
inline constexpr size_t kMaxXNodeChildren = UINT16_MAX;

struct XNode {
  NodeTestSpec test;
  XNodeId parent = kInvalidXNode;
  // Axis of the edge parent→this (meaning: the element matched to this
  // x-node stands in this relation to the element matched to the parent).
  xpath::Axis incoming_axis = xpath::Axis::kChild;
  std::vector<XNodeId> children;
  bool is_output = false;
  int depth = 0;  // distance from the x-tree root
};

// A rooted, labeled x-tree. Node 0 is always the Root x-node.
class XTree {
 public:
  XTree();

  // Adds a node under `parent` with the given incoming axis and test;
  // returns its id.
  XNodeId AddNode(XNodeId parent, xpath::Axis axis, NodeTestSpec test);

  void MarkOutput(XNodeId id) { nodes_[static_cast<size_t>(id)].is_output = true; }
  void ClearOutput(XNodeId id) { nodes_[static_cast<size_t>(id)].is_output = false; }

  // Replaces the node test of `id`. Used by query composition (reroot.h):
  // a re-rooted tree's node 0 is not the virtual Root, and intersection
  // merges two output tests into one. Use with care — the engine expects
  // node 0 of a tree it runs to test for the virtual root.
  void SetTest(XNodeId id, NodeTestSpec test) {
    nodes_[static_cast<size_t>(id)].test = std::move(test);
  }

  const XNode& node(XNodeId id) const {
    return nodes_[static_cast<size_t>(id)];
  }
  int size() const { return static_cast<int>(nodes_.size()); }

  // Ids of output x-nodes, ascending.
  std::vector<XNodeId> OutputNodes() const;

  // True if any edge uses a backward axis (parent/ancestor/ancestor-or-self).
  bool HasBackwardEdges() const;

  // Compact single-line rendering, e.g.
  // "Root(Y<desc>(U<child>, W<desc>[out](Z<anc>(V<child>))))".
  std::string ToString() const;

  // GraphViz rendering of the tree (and, for documentation, of its axes).
  std::string ToDot(std::string_view graph_name = "xtree") const;

 private:
  std::vector<XNode> nodes_;
};

}  // namespace xaos::query

#endif  // XAOS_QUERY_XTREE_H_
