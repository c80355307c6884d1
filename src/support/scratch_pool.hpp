// Thread-safe pool of reusable per-search scratch objects. The coarse drivers
// check one out for the lifetime of one root search; the fine drivers check
// one out per 256-start block of roots. A stolen task that copies its
// creator's state checks one out for that copy. Contention is one lock per
// checkout.
#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "support/spinlock.hpp"

namespace parcycle {

template <typename T>
class ScratchPool {
 public:
  template <typename MakeFn>
  explicit ScratchPool(MakeFn&& make) : make_(std::forward<MakeFn>(make)) {}

  std::unique_ptr<T> acquire() {
    {
      LockGuard<Spinlock> guard(lock_);
      if (!free_.empty()) {
        std::unique_ptr<T> item = std::move(free_.back());
        free_.pop_back();
        return item;
      }
    }
    return make_();
  }

  void release(std::unique_ptr<T> item) {
    LockGuard<Spinlock> guard(lock_);
    free_.push_back(std::move(item));
  }

 private:
  std::function<std::unique_ptr<T>()> make_;
  Spinlock lock_;
  std::vector<std::unique_ptr<T>> free_;
};

}  // namespace parcycle
