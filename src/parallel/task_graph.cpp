#include "parallel/task_graph.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <queue>

#include "obs/obs.hpp"
#include "support/check.hpp"

namespace pdc::parallel {

TaskId TaskGraph::add_task(std::string name, double cost, Task fn) {
  PDC_CHECK_MSG(cost >= 0.0, "task cost must be non-negative");
  tasks_.push_back(Node{std::move(name), cost, std::move(fn), {}, 0});
  return tasks_.size() - 1;
}

void TaskGraph::add_dependency(TaskId before, TaskId after) {
  PDC_CHECK(before < tasks_.size());
  PDC_CHECK(after < tasks_.size());
  PDC_CHECK_MSG(before != after, "a task cannot depend on itself");
  tasks_[before].successors.push_back(after);
  ++tasks_[after].predecessor_count;
}

const std::string& TaskGraph::name(TaskId id) const {
  PDC_CHECK(id < tasks_.size());
  return tasks_[id].name;
}

double TaskGraph::cost(TaskId id) const {
  PDC_CHECK(id < tasks_.size());
  return tasks_[id].cost;
}

std::vector<TaskId> TaskGraph::topo_order() const {
  std::vector<std::size_t> in_degree(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    in_degree[i] = tasks_[i].predecessor_count;
  }
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (in_degree[i] == 0) ready.push_back(i);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.back();
    ready.pop_back();
    order.push_back(id);
    for (TaskId next : tasks_[id].successors) {
      if (--in_degree[next] == 0) ready.push_back(next);
    }
  }
  if (order.size() != tasks_.size()) order.clear();  // cycle
  return order;
}

bool TaskGraph::is_acyclic() const {
  return tasks_.empty() || !topo_order().empty();
}

double TaskGraph::work() const {
  double total = 0.0;
  for (const auto& t : tasks_) total += t.cost;
  return total;
}

std::vector<double> TaskGraph::earliest_finish() const {
  const auto order = topo_order();
  PDC_CHECK_MSG(tasks_.empty() || !order.empty(),
                "span/critical_path require an acyclic graph");
  std::vector<double> finish(tasks_.size(), 0.0);
  for (TaskId id : order) {
    // Predecessor finishes were finalized earlier in topological order,
    // so start = max over preds is already folded into finish[id].
    finish[id] += tasks_[id].cost;
    for (TaskId next : tasks_[id].successors) {
      finish[next] = std::max(finish[next], finish[id]);
    }
  }
  return finish;
}

double TaskGraph::span() const {
  if (tasks_.empty()) return 0.0;
  const auto finish = earliest_finish();
  return *std::max_element(finish.begin(), finish.end());
}

double TaskGraph::parallelism() const {
  const double s = span();
  if (s == 0.0) return 0.0;
  return work() / s;
}

std::vector<TaskId> TaskGraph::critical_path() const {
  if (tasks_.empty()) return {};
  const auto finish = earliest_finish();
  // Walk backwards from the globally latest-finishing task, at each step
  // choosing the predecessor whose finish time equals our start time.
  std::vector<std::vector<TaskId>> predecessors(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    for (TaskId next : tasks_[i].successors) predecessors[next].push_back(i);
  }
  TaskId current = static_cast<TaskId>(std::distance(
      finish.begin(), std::max_element(finish.begin(), finish.end())));
  std::vector<TaskId> path{current};
  for (;;) {
    // The chain continues through any predecessor whose finish time equals
    // our start time. Termination: each step follows a DAG edge backwards.
    const double start = finish[current] - tasks_[current].cost;
    bool extended = false;
    for (TaskId pred : predecessors[current]) {
      if (finish[pred] == start) {
        current = pred;
        path.push_back(current);
        extended = true;
        break;
      }
    }
    if (!extended) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

double TaskGraph::simulated_makespan(std::size_t processors) const {
  PDC_CHECK(processors >= 1);
  if (tasks_.empty()) return 0.0;
  const auto order = topo_order();
  PDC_CHECK_MSG(!order.empty(), "simulated_makespan requires an acyclic graph");

  // Event-driven greedy list scheduling: at each step start as many ready
  // tasks as idle processors allow, then advance time to the next finish.
  std::vector<std::size_t> remaining_preds(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    remaining_preds[i] = tasks_[i].predecessor_count;
  }
  std::vector<TaskId> ready;
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (remaining_preds[i] == 0) ready.push_back(i);
  }
  std::sort(ready.begin(), ready.end());

  struct Running {
    double finish;
    TaskId id;
    bool operator>(const Running& other) const {
      return finish > other.finish || (finish == other.finish && id > other.id);
    }
  };
  std::priority_queue<Running, std::vector<Running>, std::greater<>> running;
  double now = 0.0;
  std::size_t completed = 0;

  while (completed < tasks_.size()) {
    while (!ready.empty() && running.size() < processors) {
      const TaskId id = ready.front();
      ready.erase(ready.begin());
      running.push(Running{now + tasks_[id].cost, id});
    }
    PDC_CHECK_MSG(!running.empty(), "scheduler stalled with work pending");
    const Running done = running.top();
    running.pop();
    now = done.finish;
    ++completed;
    for (TaskId next : tasks_[done.id].successors) {
      if (--remaining_preds[next] == 0) {
        ready.insert(std::upper_bound(ready.begin(), ready.end(), next), next);
      }
    }
  }
  return now;
}

support::Status TaskGraph::run(ThreadPool& pool) {
  if (tasks_.empty()) return support::Status::ok();
  if (!is_acyclic()) {
    return {support::StatusCode::kFailedPrecondition,
            "task graph contains a dependency cycle"};
  }

  struct RunState {
    std::vector<std::atomic<std::size_t>> remaining;
    // Accepted posts not yet finished, plus one hold by run() itself while
    // it posts the roots. Every task posts its ready successors before it
    // counts itself out, so 0 means nothing more can run — whether every
    // task ran or the pool refused some of them.
    std::atomic<std::size_t> in_flight{1};
    std::mutex mutex;
    std::condition_variable all_done;
    std::vector<TaskId> completion_order;
    std::exception_ptr first_error;
    std::function<void(TaskId)> execute;
    explicit RunState(std::size_t n) : remaining(n) {}

    void finish_one() {
      if (in_flight.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::scoped_lock lock(mutex);
        all_done.notify_all();
      }
    }
  };
  auto state = std::make_shared<RunState>(tasks_.size());
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    state->remaining[i].store(tasks_[i].predecessor_count,
                              std::memory_order_relaxed);
  }

  // Posts one ready task; false when the pool refused it (shut down). A
  // refused task and everything behind it never runs.
  const auto post = [&pool](const std::shared_ptr<RunState>& state,
                            TaskId id) {
    state->in_flight.fetch_add(1, std::memory_order_acq_rel);
    if (pool.post([state, id] { state->execute(id); }).is_ok()) return true;
    state->finish_one();
    return false;
  };

  // Each task, when finished, decrements its successors' counters and
  // schedules those that become ready — the standard dataflow execution.
  // The closure lives inside RunState and every posted task holds shared
  // ownership, so the state (and the closure itself) outlive the caller's
  // stack frame no matter who finishes last; `execute` captures the state
  // weakly to avoid an ownership cycle. The completion notify happens
  // under the lock: the waiter may destroy its reference the instant the
  // predicate holds, and the CV must not die mid-notify.
  state->execute = [this, post,
                    weak = std::weak_ptr<RunState>(state)](TaskId id) {
    auto state = weak.lock();
    PDC_CHECK(state != nullptr);
    auto& task = tasks_[id];  // non-const: Task::operator() is mutable
    PDC_OBS_COUNT("pdc.taskgraph.run");
    try {
      // Literal span name: task.name is a std::string whose lifetime the
      // trace ring cannot extend; the task id rides in the span arg.
      obs::ScopedSpan span("taskgraph.task", id);
      if (task.fn) task.fn();
    } catch (...) {
      std::scoped_lock lock(state->mutex);
      if (!state->first_error) state->first_error = std::current_exception();
    }
    {
      std::scoped_lock lock(state->mutex);
      state->completion_order.push_back(id);
    }
    for (TaskId next : task.successors) {
      if (state->remaining[next].fetch_sub(1, std::memory_order_acq_rel) == 1) {
        post(state, next);
      }
    }
    state->finish_one();
  };

  // Once a root is refused the pool is closed and refuses every later
  // post too; what was accepted before still runs, so wait for that.
  for (std::size_t i = 0; i < tasks_.size(); ++i) {
    if (tasks_[i].predecessor_count == 0 && !post(state, i)) break;
  }
  state->finish_one();  // release run()'s own hold

  {
    const auto finished = [&] {
      return state->in_flight.load(std::memory_order_acquire) == 0;
    };
    // A worker of this pool helps instead of blocking (the ready tasks
    // may sit in its own deque); other callers sleep on the CV.
    if (pool.inside_worker()) pool.help_while(finished);
    std::unique_lock lock(state->mutex);
    state->all_done.wait(lock, finished);
    completion_order_ = state->completion_order;
  }
  if (state->first_error) std::rethrow_exception(state->first_error);
  // Every task that ran is in the completion order; a shorter order means
  // the pool refused a root or a successor.
  if (completion_order_.size() != tasks_.size()) {
    return {support::StatusCode::kClosed,
            "thread pool shut down before every task ran"};
  }
  return support::Status::ok();
}

std::vector<TaskId> TaskGraph::last_completion_order() const {
  return completion_order_;
}

}  // namespace pdc::parallel
