// Query results: the projection of all total matchings onto the output
// x-node(s) (paper Section 4.4), plus tuple output for multiple output
// nodes (Section 5.3).

#ifndef XAOS_CORE_RESULT_H_
#define XAOS_CORE_RESULT_H_

#include <string>
#include <vector>

#include "core/element_info.h"

namespace xaos::core {

// One selected document node.
struct OutputItem {
  ElementInfo info;
  // Serialized subtree, present only when EngineOptions::capture enabled
  // the recording of matched output subtrees.
  std::string captured_xml;

  friend bool operator==(const OutputItem& a, const OutputItem& b) {
    return a.info.id == b.info.id;
  }
};

// Result of evaluating one x-tree (or a union of them) over one document.
struct QueryResult {
  // True if at least one total matching at Root exists — i.e. the document
  // "matches" the query even if the caller ignores the selected nodes
  // (the publish/subscribe filtering use of the paper's introduction).
  bool matched = false;

  // Selected nodes, in document order, without duplicates. For queries with
  // several output x-nodes this is the union of their projections.
  std::vector<OutputItem> items;

  // Convenience: ids of `items`.
  std::vector<ElementId> ItemIds() const;
  // Convenience: names of `items` (element tags).
  std::vector<std::string> ItemNames() const;
};

// A shared unmatched, item-free result: what by-reference Result() getters
// return when no backend holds one (valid for the program's lifetime).
const QueryResult& EmptyQueryResult();

// One output tuple: the projection of a single total matching onto the
// output x-nodes, ordered by x-node id.
using OutputTuple = std::vector<ElementInfo>;

}  // namespace xaos::core

#endif  // XAOS_CORE_RESULT_H_
