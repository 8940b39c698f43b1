#include "core/result.h"

namespace xaos::core {

std::vector<ElementId> QueryResult::ItemIds() const {
  std::vector<ElementId> ids;
  ids.reserve(items.size());
  for (const OutputItem& item : items) ids.push_back(item.info.id);
  return ids;
}

std::vector<std::string> QueryResult::ItemNames() const {
  std::vector<std::string> names;
  names.reserve(items.size());
  for (const OutputItem& item : items) names.push_back(item.info.name);
  return names;
}

const QueryResult& EmptyQueryResult() {
  static const QueryResult* const kEmpty = new QueryResult();
  return *kEmpty;
}

}  // namespace xaos::core
