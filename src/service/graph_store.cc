#include "service/graph_store.h"

#include <mutex>
#include <utility>

namespace hkpr {

uint64_t GraphStore::Publish(std::string_view name, Graph graph) {
  const uint64_t version =
      next_version_.fetch_add(1, std::memory_order_acq_rel);
  auto versioned = std::make_shared<const Versioned>(
      Versioned{std::move(graph), version});
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    std::shared_ptr<const Versioned>& current = current_[std::string(name)];
    // Only move forward: a racing publish that drew a smaller version must
    // not clobber a snapshot readers may already have seen.
    if (current == nullptr || current->version < version) {
      current.swap(versioned);
    }
  }
  // `versioned` now holds the replaced (or the outraced) snapshot; the
  // store's reference to it dies here, outside the lock.
  return version;
}

GraphSnapshot GraphStore::Get(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  auto it = current_.find(name);
  if (it == current_.end()) return {};
  const std::shared_ptr<const Versioned>& current = it->second;
  // Aliasing constructor: the snapshot points at the graph but owns the
  // whole Versioned block, so graph and version can never come apart.
  return {std::shared_ptr<const Graph>(current, &current->graph),
          current->version};
}

bool GraphStore::Remove(std::string_view name) {
  std::shared_ptr<const Versioned> removed;
  {
    std::unique_lock<std::shared_mutex> lock(mu_);
    auto it = current_.find(name);
    if (it == current_.end()) return false;
    removed = std::move(it->second);
    current_.erase(it);
  }
  // The store's reference to the graph dies here, outside the lock;
  // outstanding snapshots keep the graph alive.
  return true;
}

bool GraphStore::Contains(std::string_view name) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return current_.find(name) != current_.end();
}

std::vector<GraphInfo> GraphStore::List() const {
  std::vector<GraphInfo> result;
  std::shared_lock<std::shared_mutex> lock(mu_);
  result.reserve(current_.size());
  for (const auto& [name, current] : current_) {
    result.push_back(GraphInfo{name, current->version,
                               current->graph.NumNodes(),
                               current->graph.NumEdges()});
  }
  return result;
}

std::vector<std::string> GraphStore::Names() const {
  std::vector<std::string> result;
  std::shared_lock<std::shared_mutex> lock(mu_);
  result.reserve(current_.size());
  for (const auto& [name, current] : current_) result.push_back(name);
  return result;
}

size_t GraphStore::Size() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return current_.size();
}

}  // namespace hkpr
