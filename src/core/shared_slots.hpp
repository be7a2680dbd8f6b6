// Build-once slots for a fan-out pass: jobs that need the same expensive
// value (a synthetic dataset, a trained model) get one shared copy.
//
// A pass visits positions 0..n-1, each with a byte-string key. The lowest
// position of a key is its owner: it builds the value and publishes it.
// Every later position with that key waits for the publication. Keys are
// compared as exact bytes, never hashed, so two jobs share only when their
// inputs are identical.
//
// Waiting cannot deadlock as long as positions are claimed in ascending
// order (parallel_for does) and every position calls finish() when it is
// done: an owner has a lower position than all of its waiters, so it is
// already running on another thread or finished. An owner whose build
// throws, or that finishes without acquiring, publishes a failure, and
// each waiter then builds for itself, so errors stay isolated per job. A
// slot drops its value once every position with its key is through.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace xbarlife::core {

template <typename T>
class SharedSlots {
 public:
  using Value = std::shared_ptr<const T>;
  using Builder = std::function<Value()>;

  /// `keys[k]` is position k's key; positions are claimed in order.
  explicit SharedSlots(const std::vector<std::string>& keys)
      : through_(keys.size(), false) {
    std::map<std::string, std::size_t> index;
    for (const std::string& key : keys) {
      const auto [it, inserted] = index.emplace(key, slots_.size());
      if (inserted) {
        slots_.emplace_back();
      }
      ++slots_[it->second].users;
      slot_of_.push_back(it->second);
      owner_.push_back(inserted);
    }
  }

  /// Position `k`'s value. The key's owner calls `build` and publishes
  /// the result; every other position waits for it and falls back to
  /// `build` when the owner failed.
  Value acquire(std::size_t k, const Builder& build) {
    if (owner_[k]) {
      Value value;
      try {
        value = build();
      } catch (...) {
        finish(k);
        throw;
      }
      publish(k, value);
      return value;
    }
    Value value;
    {
      std::unique_lock<std::mutex> lock(mu_);
      Slot& slot = slots_[slot_of_[k]];
      ready_.wait(lock, [&] { return slot.published; });
      value = slot.value;
      pass(k);
    }
    return value != nullptr ? value : build();
  }

  /// Marks position `k` done; a no-op once it has acquired. A position
  /// that never acquired (its job failed first) must call this: as an
  /// owner it publishes a failure so its waiters build for themselves.
  void finish(std::size_t k) { publish(k, nullptr); }

 private:
  struct Slot {
    std::size_t users = 0;
    bool published = false;
    Value value;
  };

  /// Records position k's outcome: an owner's value (null = failed) is
  /// published to its waiters; a sharer just gives up its use.
  void publish(std::size_t k, Value value) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (through_[k]) {
        return;
      }
      if (owner_[k]) {
        Slot& slot = slots_[slot_of_[k]];
        slot.published = true;
        slot.value = std::move(value);
      }
      pass(k);
    }
    ready_.notify_all();
  }

  /// Called under the lock once per position; the last one frees.
  void pass(std::size_t k) {
    through_[k] = true;
    Slot& slot = slots_[slot_of_[k]];
    if (--slot.users == 0) {
      slot.value.reset();
    }
  }

  std::vector<Slot> slots_;
  std::vector<std::size_t> slot_of_;  ///< position -> slot
  std::vector<bool> owner_;           ///< position is its key's first
  std::vector<bool> through_;         ///< position has acquired/finished
  std::mutex mu_;
  std::condition_variable ready_;
};

}  // namespace xbarlife::core
