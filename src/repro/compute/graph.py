"""Task graphs: the unit of work the compute layer schedules.

A :class:`TaskGraph` is a DAG of :class:`TaskSpec` nodes joined by two
kinds of edges:

* **control dependencies** (``deps``) — task B runs only after task A
  succeeded;
* **data dependencies** (``inputs``) — task B reads the object key task A
  produced (or a graph-level input registered with :meth:`add_data`).
  Naming another task's output implicitly adds the control edge.

Every task declares its *simulated* execution cost (``cost_s``), the size
of the object it produces (``output_bytes``, what locality-aware
placement and transfer accounting see), and whether it is **idempotent**
— safe to re-execute after a worker crash.  The graph itself is inert:
validation (:meth:`validate`) checks ids, input keys, and acyclicity, and
the scheduler consumes the returned topological order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError

# A task function receives the resolved values of its declared inputs
# (key -> value) and returns the value of its output object.
TaskFn = Callable[[Dict[str, Any]], Any]

DEFAULT_TASK_COST_S = 0.010
DEFAULT_OUTPUT_BYTES = 64 * 1024


@dataclass(frozen=True)
class DataObject:
    """A graph-level input object, resident on the driver at submit."""

    key: str
    value: Any
    nbytes: int


@dataclass(frozen=True)
class TaskSpec:
    """One schedulable task: function, edges, and simulated shape."""

    task_id: str
    fn: TaskFn
    deps: Tuple[str, ...] = ()
    inputs: Tuple[str, ...] = ()
    output: str = ""                      # object key produced; default task_id
    cost_s: float = DEFAULT_TASK_COST_S
    output_bytes: int = DEFAULT_OUTPUT_BYTES
    idempotent: bool = True

    @property
    def output_key(self) -> str:
        return self.output if self.output else self.task_id


class TaskGraph:
    """A named DAG of tasks plus the input objects they consume."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.tasks: Dict[str, TaskSpec] = {}
        self.data: Dict[str, DataObject] = {}
        self._producers: Optional[Dict[str, str]] = None

    # -- construction --------------------------------------------------------

    def add_data(self, key: str, value: Any,
                 nbytes: int = DEFAULT_OUTPUT_BYTES) -> DataObject:
        """Register a graph input object (lives on the driver node)."""
        if key in self.data:
            raise ConfigurationError(f"graph {self.name}: data {key!r} "
                                     f"already registered")
        if nbytes < 0:
            raise ConfigurationError(f"data {key!r}: negative size")
        obj = DataObject(key, value, nbytes)
        self.data[key] = obj
        return obj

    def add_task(self, task_id: str, fn: TaskFn, *,
                 deps: Tuple[str, ...] = (),
                 inputs: Tuple[str, ...] = (),
                 output: Optional[str] = None,
                 cost_s: float = DEFAULT_TASK_COST_S,
                 output_bytes: int = DEFAULT_OUTPUT_BYTES,
                 idempotent: bool = True) -> TaskSpec:
        """Append a task; input keys naming task outputs add dep edges."""
        if task_id in self.tasks:
            raise ConfigurationError(f"graph {self.name}: task {task_id!r} "
                                     f"already added")
        if cost_s < 0:
            raise ConfigurationError(f"task {task_id!r}: negative cost")
        spec = TaskSpec(task_id=task_id, fn=fn, deps=tuple(deps),
                        inputs=tuple(inputs),
                        output=output if output is not None else "",
                        cost_s=cost_s, output_bytes=output_bytes,
                        idempotent=idempotent)
        if spec.output_key in self.data:
            raise ConfigurationError(
                f"task {task_id!r} output {spec.output_key!r} collides "
                f"with a graph input")
        self.tasks[task_id] = spec
        self._producers = None
        return spec

    # -- queries -------------------------------------------------------------

    @property
    def producers(self) -> Dict[str, str]:
        """Object key -> task id that produces it, built once per graph
        shape (:meth:`add_task` drops it) and shared: do not mutate."""
        if self._producers is not None:
            return self._producers
        out: Dict[str, str] = {}
        for task in self.tasks.values():
            if task.output_key in out:
                raise ConfigurationError(
                    f"graph {self.name}: output {task.output_key!r} produced "
                    f"by both {out[task.output_key]!r} and {task.task_id!r}")
            out[task.output_key] = task.task_id
        self._producers = out
        return out

    def dependencies(self, task_id: str) -> Tuple[str, ...]:
        """Effective control deps: explicit ``deps`` + input producers."""
        task = self.tasks[task_id]
        producers = self.producers
        effective = list(task.deps)
        for key in task.inputs:
            producer = producers.get(key)
            if producer is not None and producer not in effective:
                effective.append(producer)
        return tuple(effective)

    def validate(self) -> List[str]:
        """Check edges and acyclicity; returns a topological order.

        Raises :class:`ConfigurationError` for unknown dep ids, input
        keys produced by no task and absent from the graph data, and for
        dependency cycles (named in the error).
        """
        producers = self.producers
        effective: Dict[str, Tuple[str, ...]] = {}
        for task_id, task in self.tasks.items():
            for dep in task.deps:
                if dep not in self.tasks:
                    raise ConfigurationError(
                        f"task {task_id!r} depends on unknown task {dep!r}")
            for key in task.inputs:
                if key not in producers and key not in self.data:
                    raise ConfigurationError(
                        f"task {task_id!r} reads {key!r}, which no task "
                        f"produces and no graph data provides")
            effective[task_id] = self.dependencies(task_id)

        # Kahn's algorithm over the effective edges, sorted for determinism.
        indegree = {task_id: len(deps) for task_id, deps in effective.items()}
        dependents: Dict[str, List[str]] = {t: [] for t in self.tasks}
        for task_id, deps in effective.items():
            for dep in deps:
                dependents[dep].append(task_id)
        ready = sorted(t for t, d in indegree.items() if d == 0)
        order: List[str] = []
        while ready:
            task_id = ready.pop(0)
            order.append(task_id)
            added = False
            for dependent in dependents[task_id]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    ready.append(dependent)
                    added = True
            if added:
                ready.sort()
        if len(order) != len(self.tasks):
            cyclic = sorted(t for t, d in indegree.items() if d > 0)
            raise ConfigurationError(
                f"graph {self.name}: dependency cycle through {cyclic}")
        return order

    def describe(self) -> Dict[str, Any]:
        """Serializable summary for status responses and benchmarks."""
        return {
            "name": self.name,
            "tasks": len(self.tasks),
            "data_objects": len(self.data),
            "total_cost_s": round(sum(t.cost_s for t in self.tasks.values()),
                                  9),
        }
