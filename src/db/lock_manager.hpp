// Key-granularity lock manager with deadlock detection.
//
// Table I places "transactions processing", "scheduling concurrent
// transactions", "transaction locks", and "deadlocks" in the database
// course. This lock manager grants shared/exclusive locks per key,
// supports S->X upgrade, and — before any requester sleeps — runs cycle
// detection on the waits-for graph, aborting the youngest transaction of
// the cycle (the victim observes kAborted from its pending lock call).
// Youth is by age, not id: a retry passes the id of its first attempt as
// its age, so a transaction that keeps losing grows older until it is the
// oldest on every cycle and can no longer be chosen. A requester also
// queues behind older waiters on the key with a conflicting mode (a
// waits-for edge like any other), so an aborted
// victim's immediate retry cannot barge back in ahead of the transaction
// it lost to. Together these make the oldest transaction always progress.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "support/status.hpp"

namespace pdc::db {

using TxnId = std::uint64_t;

enum class LockMode : std::uint8_t { kShared, kExclusive };

class LockManager {
 public:
  LockManager() = default;
  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades) a lock for `txn` on `key`. Blocks while
  /// conflicting. Returns kAborted when this transaction was chosen as a
  /// deadlock victim while waiting (its locks remain; the caller's abort
  /// path must call unlock_all). `age` orders victims: the largest age on
  /// a cycle is aborted, ties broken by the larger id. 0 means age == txn;
  /// a transaction's age is fixed by its first lock call.
  support::Status lock(TxnId txn, const std::string& key, LockMode mode,
                       TxnId age = 0);

  /// Releases every lock held by `txn` and wakes waiters (strict 2PL
  /// release at commit/abort).
  void unlock_all(TxnId txn);

  /// Deadlock victims chosen so far.
  [[nodiscard]] std::uint64_t deadlocks_detected() const;

  /// Diagnostic: does `txn` hold a lock on `key` (any mode)?
  [[nodiscard]] bool holds(TxnId txn, const std::string& key) const;

 private:
  struct KeyLock {
    std::set<TxnId> sharers;
    TxnId exclusive_owner = 0;
    bool has_exclusive = false;
  };

  /// A blocked lock() call: what it asks for and the transactions it waits
  /// on (its waits-for edges).
  struct Wait {
    std::string key;
    LockMode mode;
    std::vector<TxnId> on;
  };

  /// Transactions holding `entry` in a mode that conflicts with `mode`.
  static std::vector<TxnId> conflicting_holders(const KeyLock& entry,
                                                TxnId txn, LockMode mode);

  /// Transactions `txn` must wait on before taking `mode` on `key`: the
  /// conflicting holders and the older waiters on the key with a
  /// conflicting mode. Empty means grant now. Caller holds mutex_.
  std::vector<TxnId> blockers_locked(TxnId txn, const std::string& key,
                                     const KeyLock& entry, LockMode mode) const;

  /// (age, id): the order in which victims are chosen, youngest largest.
  std::pair<TxnId, TxnId> seniority_locked(TxnId txn) const;

  /// Runs cycle detection from `txn`; if a cycle exists, aborts the
  /// youngest (largest age, then largest id) transaction on it and returns
  /// it. Caller holds mutex_.
  TxnId detect_and_resolve_locked(TxnId txn);

  mutable std::mutex mutex_;
  std::condition_variable changed_;
  std::map<std::string, KeyLock> keys_;
  std::map<TxnId, Wait> waiting_;  // one entry per blocked lock() call
  std::map<TxnId, TxnId> ages_;  // every txn that has called lock()
  std::set<TxnId> victims_;  // chosen, not yet observed
  std::uint64_t deadlocks_ = 0;
};

}  // namespace pdc::db
