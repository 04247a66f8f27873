#include "db/transaction.hpp"

#include <set>

#include "support/check.hpp"

namespace pdc::db {

using support::Status;
using support::StatusCode;

Txn::Txn(Txn&& other) noexcept
    : db_(other.db_), id_(other.id_), age_(other.age_), active_(other.active_),
      undo_(std::move(other.undo_)) {
  other.active_ = false;
}

Txn::~Txn() {
  if (active_) abort();
}

Status Txn::on_lock_failure(Status status) {
  if (status.code() == StatusCode::kAborted) {
    ++db_->deadlock_aborts_;
    abort();
  }
  return status;
}

support::Result<std::string> Txn::get(const std::string& key) {
  PDC_CHECK_MSG(active_, "get() on a finished transaction");
  if (auto status = db_->locks_.lock(id_, key, LockMode::kShared, age_);
      !status.is_ok()) {
    return on_lock_failure(status);
  }
  db_->log_op(id_, OpType::kRead, key);
  std::scoped_lock lock(db_->data_mutex_);
  const auto it = db_->data_.find(key);
  if (it == db_->data_.end()) {
    return Status{StatusCode::kNotFound, "no value for '" + key + "'"};
  }
  return it->second;
}

Status Txn::put(const std::string& key, const std::string& value) {
  PDC_CHECK_MSG(active_, "put() on a finished transaction");
  if (auto status = db_->locks_.lock(id_, key, LockMode::kExclusive, age_);
      !status.is_ok()) {
    return on_lock_failure(status);
  }
  db_->log_op(id_, OpType::kWrite, key);
  std::scoped_lock lock(db_->data_mutex_);
  const auto it = db_->data_.find(key);
  undo_.push_back({key, it == db_->data_.end()
                            ? std::nullopt
                            : std::optional<std::string>(it->second)});
  db_->data_[key] = value;
  return Status::ok();
}

Status Txn::erase(const std::string& key) {
  PDC_CHECK_MSG(active_, "erase() on a finished transaction");
  if (auto status = db_->locks_.lock(id_, key, LockMode::kExclusive, age_);
      !status.is_ok()) {
    return on_lock_failure(status);
  }
  db_->log_op(id_, OpType::kWrite, key);
  std::scoped_lock lock(db_->data_mutex_);
  const auto it = db_->data_.find(key);
  if (it == db_->data_.end()) return Status::ok();  // idempotent
  undo_.push_back({key, it->second});
  db_->data_.erase(it);
  return Status::ok();
}

Status Txn::commit() {
  PDC_CHECK_MSG(active_, "commit() on a finished transaction");
  active_ = false;
  undo_.clear();
  db_->log_commit(id_);
  db_->locks_.unlock_all(id_);
  ++db_->committed_;
  return Status::ok();
}

void Txn::abort() {
  PDC_CHECK_MSG(active_, "abort() on a finished transaction");
  active_ = false;
  {
    std::scoped_lock lock(db_->data_mutex_);
    // Undo newest-first so repeated writes to one key restore correctly.
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      if (it->previous.has_value()) {
        db_->data_[it->key] = *it->previous;
      } else {
        db_->data_.erase(it->key);
      }
    }
  }
  undo_.clear();
  db_->locks_.unlock_all(id_);
  ++db_->aborted_;
}

Txn Database::begin(TxnId age) {
  const TxnId id = next_txn_.fetch_add(1);
  return Txn(this, id, age == 0 ? id : age);
}

std::optional<std::string> Database::peek(const std::string& key) const {
  std::scoped_lock lock(data_mutex_);
  const auto it = data_.find(key);
  if (it == data_.end()) return std::nullopt;
  return it->second;
}

void Database::record_history(bool enabled) {
  std::scoped_lock lock(history_mutex_);
  history_enabled_ = enabled;
  if (enabled) {
    history_.clear();
    history_committed_.clear();
  }
}

void Database::log_op(TxnId txn, OpType type, const std::string& key) {
  std::scoped_lock lock(history_mutex_);
  if (!history_enabled_) return;
  history_.push_back({static_cast<std::size_t>(txn), type, key});
}

void Database::log_commit(TxnId txn) {
  std::scoped_lock lock(history_mutex_);
  if (!history_enabled_) return;
  history_committed_.push_back(txn);
}

Schedule Database::committed_history() const {
  std::scoped_lock lock(history_mutex_);
  std::set<std::size_t> committed(history_committed_.begin(),
                                  history_committed_.end());
  Schedule filtered;
  for (const ScheduleOp& op : history_) {
    if (committed.count(op.txn)) filtered.push_back(op);
  }
  return filtered;
}

Database::Stats Database::stats() const {
  Stats stats;
  stats.begun = next_txn_.load() - 1;
  stats.committed = committed_.load();
  stats.aborted = aborted_.load();
  stats.deadlock_aborts = deadlock_aborts_.load();
  return stats;
}

}  // namespace pdc::db
