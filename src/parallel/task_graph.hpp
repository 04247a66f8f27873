// Task DAG with dependency-driven parallel execution and critical-path
// analysis.
//
// CC2020's PDC competencies name the critical path explicitly; this module
// makes it measurable: `work()` is the total cost of all tasks, `span()`
// the longest cost-weighted dependency chain, and work/span the maximum
// achievable speedup (Brent's bound) — compared against measured speedup in
// bench/perf_amdahl_speedup.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "support/status.hpp"

namespace pdc::parallel {

using TaskId = std::size_t;

class TaskGraph {
 public:
  /// Adds a task. `cost` is its abstract work (seconds, flops, any unit —
  /// only ratios matter for the analysis); `fn` may be empty for
  /// analysis-only graphs.
  TaskId add_task(std::string name, double cost = 1.0, Task fn = {});

  /// Declares that `after` cannot start until `before` finished.
  void add_dependency(TaskId before, TaskId after);

  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] const std::string& name(TaskId id) const;
  [[nodiscard]] double cost(TaskId id) const;

  /// True when the dependency graph has no cycle.
  [[nodiscard]] bool is_acyclic() const;

  /// Total work: sum of task costs.
  [[nodiscard]] double work() const;

  /// Span (critical-path length): cost of the heaviest dependency chain.
  /// Requires an acyclic graph.
  [[nodiscard]] double span() const;

  /// Inherent parallelism work/span (the speedup ceiling regardless of
  /// processor count). Requires an acyclic graph.
  [[nodiscard]] double parallelism() const;

  /// Task ids along one critical path, in execution order.
  [[nodiscard]] std::vector<TaskId> critical_path() const;

  /// Makespan of greedy list scheduling on `processors` identical
  /// processors (earliest-ready, ties by id). Bounded below by
  /// max(work/p, span) and above by work/p + span (Graham/Brent); used to
  /// compare measured parallel speedup against the structural limit
  /// independent of the host's core count.
  [[nodiscard]] double simulated_makespan(std::size_t processors) const;

  /// Executes every task on `pool`, respecting dependencies; independent
  /// tasks run concurrently. Fails with kFailedPrecondition on a cyclic
  /// graph (nothing runs). Task exceptions propagate to the caller.
  /// Returns kClosed when `pool` refused a task because it was shut down;
  /// the tasks it had accepted still run, and run() returns after them.
  /// Callable from a task on `pool`: the caller helps run tasks while it
  /// waits.
  support::Status run(ThreadPool& pool);

  /// The order in which tasks completed in the last run (diagnostic;
  /// a valid topological order of the DAG).
  [[nodiscard]] std::vector<TaskId> last_completion_order() const;

 private:
  // Named Node, not Task: parallel::Task is the type-erased callable the
  // node carries.
  struct Node {
    std::string name;
    double cost;
    Task fn;
    std::vector<TaskId> successors;
    std::size_t predecessor_count = 0;
  };

  /// Topological order via Kahn's algorithm; empty when cyclic and the
  /// graph is nonempty.
  [[nodiscard]] std::vector<TaskId> topo_order() const;

  /// earliest finish time per task under infinite processors.
  [[nodiscard]] std::vector<double> earliest_finish() const;

  std::vector<Node> tasks_;
  std::vector<TaskId> completion_order_;
};

}  // namespace pdc::parallel
