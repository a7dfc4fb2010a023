#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

namespace ppsim::sim {

/// Ordered map on a sorted `std::vector<std::pair<K, V>>`: iterates in
/// ascending key order exactly like `std::map`, with one contiguous buffer
/// instead of a heap node per entry. Only the `std::map` surface the
/// protocol entities use is provided.
///
/// Unlike `std::map`, any insertion or erasure invalidates every iterator
/// and reference into the map (erase(it) returns a valid successor). Keys
/// are mutable through iterators; changing one breaks the ordering.
template <typename K, typename V>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }
  std::size_t capacity() const { return items_.capacity(); }

  iterator find(const K& key) {
    const auto it = lower_bound(key);
    return it != items_.end() && !(key < it->first) ? it : items_.end();
  }
  const_iterator find(const K& key) const {
    return const_cast<FlatMap*>(this)->find(key);
  }
  bool contains(const K& key) const { return find(key) != end(); }

  /// Default-inserts a missing key, like `std::map::operator[]`.
  V& operator[](const K& key) { return emplace(key).first->second; }

  V& at(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }
  const V& at(const K& key) const {
    return const_cast<FlatMap*>(this)->at(key);
  }

  /// Inserts V(args...) under `key` unless the key is present, in which
  /// case the existing entry wins (as in `std::map::emplace`).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const K& key, Args&&... args) {
    const auto it = lower_bound(key);
    if (it != items_.end() && !(key < it->first)) return {it, false};
    return {items_.emplace(it, std::piecewise_construct,
                           std::forward_as_tuple(key),
                           std::forward_as_tuple(std::forward<Args>(args)...)),
            true};
  }

  /// Returns the element after the erased one.
  iterator erase(const_iterator it) { return items_.erase(it); }
  std::size_t erase(const K& key) {
    const auto it = find(key);
    if (it == items_.end()) return 0;
    items_.erase(it);
    return 1;
  }
  /// Erases every entry for which pred(const value_type&) holds; returns
  /// how many were erased.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    return std::erase_if(items_, pred);
  }

 private:
  iterator lower_bound(const K& key) {
    return std::lower_bound(
        items_.begin(), items_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  std::vector<value_type> items_;
};

}  // namespace ppsim::sim
