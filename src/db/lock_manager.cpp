#include "db/lock_manager.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "support/check.hpp"

namespace pdc::db {

using support::Status;
using support::StatusCode;

std::vector<TxnId> LockManager::conflicting_holders(const KeyLock& entry,
                                                    TxnId txn, LockMode mode) {
  std::vector<TxnId> holders;
  if (entry.has_exclusive && entry.exclusive_owner != txn) {
    holders.push_back(entry.exclusive_owner);
  }
  if (mode == LockMode::kExclusive) {
    for (TxnId sharer : entry.sharers) {
      if (sharer != txn) holders.push_back(sharer);
    }
  }
  return holders;
}

std::pair<TxnId, TxnId> LockManager::seniority_locked(TxnId txn) const {
  return {ages_.at(txn), txn};
}

std::vector<TxnId> LockManager::blockers_locked(TxnId txn,
                                                const std::string& key,
                                                const KeyLock& entry,
                                                LockMode mode) const {
  const bool already_held =
      (entry.has_exclusive && entry.exclusive_owner == txn) ||
      (mode == LockMode::kShared && entry.sharers.count(txn) > 0);
  if (already_held) return {};
  std::vector<TxnId> blockers = conflicting_holders(entry, txn, mode);
  for (const auto& [waiter, wait] : waiting_) {
    if (waiter == txn || wait.key != key) continue;
    if (mode == LockMode::kShared && wait.mode == LockMode::kShared) continue;
    if (seniority_locked(txn) < seniority_locked(waiter)) continue;
    // A waiter already blocked by txn's own S lock (an S->X upgrade race)
    // is not deferred to: that would make a two-transaction cycle.
    if (std::find(wait.on.begin(), wait.on.end(), txn) != wait.on.end()) {
      continue;
    }
    blockers.push_back(waiter);
  }
  return blockers;
}

TxnId LockManager::detect_and_resolve_locked(TxnId start) {
  // DFS from `start` over waits-for edges looking for a path back to
  // `start`; the youngest transaction on that path is sacrificed.
  std::vector<TxnId> path{start};
  std::set<TxnId> visited{start};
  TxnId found_victim = 0;

  std::function<bool(TxnId)> dfs = [&](TxnId node) -> bool {
    const auto it = waiting_.find(node);
    if (it == waiting_.end()) return false;
    for (TxnId next : it->second.on) {
      if (next == start) return true;  // cycle closed
      if (visited.insert(next).second) {
        path.push_back(next);
        if (dfs(next)) return true;
        path.pop_back();
      }
    }
    return false;
  };

  if (!dfs(start)) return 0;
  found_victim = *std::max_element(
      path.begin(), path.end(), [&](TxnId lhs, TxnId rhs) {
        return seniority_locked(lhs) < seniority_locked(rhs);
      });
  victims_.insert(found_victim);
  ++deadlocks_;
  return found_victim;
}

Status LockManager::lock(TxnId txn, const std::string& key, LockMode mode,
                         TxnId age) {
  std::unique_lock lock(mutex_);
  for (;;) {
    ages_.try_emplace(txn, age == 0 ? txn : age);
    if (victims_.erase(txn) > 0) {
      waiting_.erase(txn);
      return {StatusCode::kAborted, "chosen as deadlock victim"};
    }
    KeyLock& entry = keys_[key];
    std::vector<TxnId> blockers = blockers_locked(txn, key, entry, mode);
    if (blockers.empty()) {
      waiting_.erase(txn);
      if (mode == LockMode::kShared) {
        if (!entry.has_exclusive) {
          entry.sharers.insert(txn);
        }
        // else: txn already owns X, which subsumes S.
      } else {
        entry.sharers.erase(txn);  // upgrade consumes the S lock
        entry.has_exclusive = true;
        entry.exclusive_owner = txn;
      }
      return Status::ok();
    }

    // Record wait edges, look for a cycle, then sleep.
    waiting_.insert_or_assign(txn, Wait{key, mode, std::move(blockers)});
    const TxnId victim = detect_and_resolve_locked(txn);
    if (victim == txn) {
      victims_.erase(txn);
      waiting_.erase(txn);
      return {StatusCode::kAborted, "chosen as deadlock victim"};
    }
    if (victim != 0) {
      changed_.notify_all();  // wake the victim so it can observe its fate
    }
    changed_.wait(lock);
  }
}

void LockManager::unlock_all(TxnId txn) {
  std::unique_lock lock(mutex_);
  for (auto it = keys_.begin(); it != keys_.end();) {
    KeyLock& entry = it->second;
    entry.sharers.erase(txn);
    if (entry.has_exclusive && entry.exclusive_owner == txn) {
      entry.has_exclusive = false;
      entry.exclusive_owner = 0;
    }
    if (entry.sharers.empty() && !entry.has_exclusive) {
      it = keys_.erase(it);
    } else {
      ++it;
    }
  }
  waiting_.erase(txn);
  ages_.erase(txn);
  victims_.erase(txn);
  lock.unlock();
  changed_.notify_all();
}

std::uint64_t LockManager::deadlocks_detected() const {
  std::scoped_lock lock(mutex_);
  return deadlocks_;
}

bool LockManager::holds(TxnId txn, const std::string& key) const {
  std::scoped_lock lock(mutex_);
  const auto it = keys_.find(key);
  if (it == keys_.end()) return false;
  return it->second.sharers.count(txn) > 0 ||
         (it->second.has_exclusive && it->second.exclusive_owner == txn);
}

}  // namespace pdc::db
