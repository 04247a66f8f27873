// Transactional key-value database with strict two-phase locking.
//
// The storage engine behind the Table-I database-course topics: begin/
// get/put/commit/abort with S/X locks held to transaction end (strict
// 2PL), undo-based rollback, and deadlock-victim aborts surfaced as
// kAborted statuses the caller retries — the structure of every
// transactional workload in bench/perf_txn_sched.
#pragma once

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "db/lock_manager.hpp"
#include "db/serializability.hpp"
#include "support/status.hpp"

namespace pdc::db {

class Database;

/// Handle for one transaction. Move-only; must end in commit() or abort()
/// (destruction of an active transaction aborts it).
class Txn {
 public:
  Txn(Txn&& other) noexcept;
  Txn& operator=(Txn&&) = delete;
  Txn(const Txn&) = delete;
  Txn& operator=(const Txn&) = delete;
  ~Txn();

  [[nodiscard]] TxnId id() const { return id_; }
  /// Deadlock-victim priority: the id of the logical transaction's first
  /// attempt (equal to id() unless begun as a retry).
  [[nodiscard]] TxnId age() const { return age_; }
  [[nodiscard]] bool active() const { return active_; }

  /// Reads `key` under a shared lock (kNotFound when absent; kAborted when
  /// this transaction became a deadlock victim — it is rolled back).
  support::Result<std::string> get(const std::string& key);

  /// Writes `key` under an exclusive lock; kAborted as above.
  support::Status put(const std::string& key, const std::string& value);

  /// Deletes `key` under an exclusive lock.
  support::Status erase(const std::string& key);

  /// Commits: publishes writes (already in place) and releases all locks.
  support::Status commit();

  /// Rolls back every write and releases all locks.
  void abort();

 private:
  friend class Database;
  Txn(Database* db, TxnId id, TxnId age) : db_(db), id_(id), age_(age) {}

  /// Applies deadlock-victim handling to a failed lock acquisition.
  support::Status on_lock_failure(support::Status status);

  struct UndoEntry {
    std::string key;
    std::optional<std::string> previous;  // nullopt: key did not exist
  };

  Database* db_;
  TxnId id_;
  TxnId age_;
  bool active_ = true;
  std::vector<UndoEntry> undo_;
};

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Starts a new transaction. A retry of an aborted transaction passes
  /// the first attempt's age() so it keeps its deadlock-victim priority;
  /// 0 starts a fresh transaction whose age is its own id.
  Txn begin(TxnId age = 0);

  /// Non-transactional read of committed state (test/diagnostic use).
  [[nodiscard]] std::optional<std::string> peek(const std::string& key) const;

  struct Stats {
    std::uint64_t begun = 0;
    std::uint64_t committed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t deadlock_aborts = 0;
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const LockManager& locks() const { return locks_; }

  /// Enables execution-history recording: every get/put/erase is logged in
  /// real interleaved order. Used to *verify* the scheduler: the history
  /// restricted to committed transactions must be conflict-serializable
  /// (strict 2PL guarantees it; db_test asserts it property-style).
  void record_history(bool enabled);

  /// The recorded schedule, restricted to transactions that committed.
  [[nodiscard]] Schedule committed_history() const;

 private:
  friend class Txn;

  mutable std::mutex data_mutex_;  // guards map structure only; key access
                                   // is serialized by the lock manager
  std::map<std::string, std::string> data_;

  void log_op(TxnId txn, OpType type, const std::string& key);
  void log_commit(TxnId txn);

  LockManager locks_;
  std::atomic<TxnId> next_txn_{1};
  std::atomic<std::uint64_t> committed_{0};
  std::atomic<std::uint64_t> aborted_{0};
  std::atomic<std::uint64_t> deadlock_aborts_{0};

  mutable std::mutex history_mutex_;
  bool history_enabled_ = false;
  Schedule history_;
  std::vector<TxnId> history_committed_;
};

}  // namespace pdc::db
