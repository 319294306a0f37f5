// A map over dense ids (node ids) for hot per-call scratch: one value slot
// per id, and an entry is valid only for the generation that wrote it, so
// starting a new generation costs one increment instead of a clear.
#ifndef ZOOMER_COMMON_STAMPED_TABLE_H_
#define ZOOMER_COMMON_STAMPED_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace zoomer {

template <typename T>
class StampedTable {
 public:
  /// Forgets every entry; ids below `size` fit without growing.
  void Begin(size_t size) {
    Reserve(size);
    if (++current_ == 0) {  // the stamps wrapped: clear them once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      current_ = 1;
    }
  }

  /// The entry of `id` written since the last Begin(), or nullptr.
  const T* Find(size_t id) const {
    return id < stamp_.size() && stamp_[id] == current_ ? &value_[id]
                                                        : nullptr;
  }

  /// Writes the entry of `id` (growing the table if `id` does not fit).
  const T& Set(size_t id, T value) {
    Reserve(id + 1);
    stamp_[id] = current_;
    return value_[id] = std::move(value);
  }

 private:
  void Reserve(size_t size) {
    if (stamp_.size() < size) {
      value_.resize(size);
      stamp_.resize(size, 0);
    }
  }

  std::vector<T> value_;
  std::vector<uint32_t> stamp_;
  uint32_t current_ = 0;
};

}  // namespace zoomer

#endif  // ZOOMER_COMMON_STAMPED_TABLE_H_
