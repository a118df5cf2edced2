"""Analytics authoring workspace (Section III-A).

"The analytics platform offers tools for performing different operations,
including authoring tools like Jupyter and version control tools such as
git."

:class:`AnalysisWorkspace` captures what those tools provide for a
compliant platform: notebook-style **cells** executed in order against a
shared namespace, an execution log suitable for audit, and **versioned,
content-addressed artifacts** with a git-like commit chain — so any
published model can be traced to the exact code and inputs that produced
it, and re-running a workspace reproduces artifacts bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import ModelLifecycleError, NotFoundError

CellFn = Callable[[Dict[str, Any]], Any]


@dataclass
class CellExecution:
    """One audited cell run."""

    cell_index: int
    name: str
    output_repr: str
    output_hash: str


@dataclass(frozen=True)
class ArtifactVersion:
    """A committed artifact version (content-addressed, chained)."""

    name: str
    version: int
    content_hash: str
    parent_hash: str
    message: str
    commit_hash: str


class AnalysisWorkspace:
    """Ordered cells + shared namespace + versioned artifact store."""

    GENESIS = "0" * 64

    def __init__(self, name: str) -> None:
        self.name = name
        self._cells: List[Tuple[str, CellFn]] = []
        self.namespace: Dict[str, Any] = {}
        self._prefetched: Dict[str, Dict[Any, Any]] = {}
        self.execution_log: List[CellExecution] = []
        self._artifacts: Dict[str, List[ArtifactVersion]] = {}
        self._artifact_blobs: Dict[str, bytes] = {}

    # -- notebook surface ------------------------------------------------------

    def prefetch(self, source: Any, keys: List[Any],
                 into: str = "prefetched") -> Dict[Any, Any]:
        """Warm the namespace with one bulk read before cells run.

        ``source`` is anything with a batched ``get_many`` — a
        :class:`~repro.caching.hierarchy.CacheHierarchy`, a plain
        :class:`~repro.caching.policies.Cache` — so the whole working set
        costs one hierarchy walk instead of a per-key lookup per cell.
        Results land under ``namespace[into]`` and are returned.
        """
        batch = source.get_many(list(keys))
        values = batch if isinstance(batch, dict) else dict(batch.values)
        self._prefetched.setdefault(into, {}).update(values)
        self.namespace.setdefault(into, {}).update(values)
        return values

    def add_cell(self, name: str, fn: CellFn) -> int:
        """Append a cell; returns its index."""
        self._cells.append((name, fn))
        return len(self._cells) - 1

    def _record(self, index: int, name: str, output: Any) -> CellExecution:
        """The one place a cell's output becomes an execution record.

        The repr is hashed in full and truncated only for display, and
        both :meth:`run_all` and :meth:`run_cell` go through here — so
        the reproducibility check always compares like with like, even
        for outputs longer than the 200-char display cut.
        """
        rendered = repr(output)
        return CellExecution(
            cell_index=index,
            name=name,
            output_repr=rendered[:200],
            output_hash=hashlib.sha256(rendered.encode()).hexdigest(),
        )

    def _execute(self, index: int, name: str, fn: CellFn) -> CellExecution:
        output = fn(self.namespace)
        self.namespace[name] = output
        execution = self._record(index, name, output)
        self.execution_log.append(execution)
        return execution

    def run_all(self, scheduler: Optional[Any] = None) -> List[CellExecution]:
        """Execute every cell in order against the shared namespace.

        Prefetched data survives the reset, so a re-run (e.g. the
        reproducibility check) sees the same warmed inputs.

        With a :class:`~repro.compute.scheduler.Scheduler`, the cells are
        submitted as a chained :class:`~repro.compute.graph.TaskGraph`
        job instead of running inline — same ordering (each cell depends
        on its predecessor), same execution log, but the run is placed,
        traced, and accounted by the compute layer.
        """
        self.namespace = {into: dict(values)
                          for into, values in self._prefetched.items()}
        self.execution_log = []
        if scheduler is not None:
            return self._run_scheduled(scheduler)
        for index, (name, fn) in enumerate(self._cells):
            self._execute(index, name, fn)
        return list(self.execution_log)

    def _run_scheduled(self, scheduler: Any) -> List[CellExecution]:
        """Submit the cells as one chained compute job and drive it."""
        from ..compute.graph import TaskGraph

        graph = TaskGraph(f"workspace:{self.name}")
        previous: Optional[str] = None
        for index, (name, fn) in enumerate(self._cells):
            task_id = f"cell-{index:03d}"

            def cell_task(_inputs: Dict[str, Any], _i: int = index,
                          _n: str = name, _f: CellFn = fn) -> str:
                return self._execute(_i, _n, _f).output_hash

            # Cells mutate the shared namespace, so they chain (each
            # depends on its predecessor) and must not be replayed after
            # a crash: idempotent=False fails the job instead of
            # silently double-appending to the execution log.
            graph.add_task(task_id, cell_task,
                           deps=(previous,) if previous else (),
                           idempotent=False)
            previous = task_id
        job = scheduler.submit(graph, submitted_by=f"workspace:{self.name}")
        scheduler.run(job.job_id)
        scheduler.result(job.job_id)     # raises the job's typed error
        return list(self.execution_log)

    def run_cell(self, index: int) -> CellExecution:
        """Execute one cell (out-of-order exploration)."""
        if not 0 <= index < len(self._cells):
            raise NotFoundError(f"no cell {index}")
        name, fn = self._cells[index]
        return self._execute(index, name, fn)

    # -- versioned artifacts -------------------------------------------------------

    def commit_artifact(self, name: str, content: bytes,
                        message: str) -> ArtifactVersion:
        """Commit an artifact version (git-style chained history)."""
        history = self._artifacts.setdefault(name, [])
        content_hash = hashlib.sha256(content).hexdigest()
        parent = history[-1].commit_hash if history else self.GENESIS
        payload = json.dumps([name, len(history) + 1, content_hash, parent,
                              message]).encode()
        commit_hash = hashlib.sha256(payload).hexdigest()
        version = ArtifactVersion(
            name=name, version=len(history) + 1,
            content_hash=content_hash, parent_hash=parent,
            message=message, commit_hash=commit_hash)
        history.append(version)
        self._artifact_blobs[content_hash] = content
        return version

    def checkout(self, name: str, version: Optional[int] = None) -> bytes:
        """Fetch an artifact's content at a version (latest by default)."""
        history = self._artifacts.get(name)
        if not history:
            raise NotFoundError(f"artifact {name!r} has no versions")
        target = history[-1] if version is None else None
        if version is not None:
            if not 1 <= version <= len(history):
                raise NotFoundError(f"artifact {name!r} has no v{version}")
            target = history[version - 1]
        assert target is not None
        return self._artifact_blobs[target.content_hash]

    def log(self, name: str) -> List[ArtifactVersion]:
        """Commit history of one artifact."""
        return list(self._artifacts.get(name, []))

    def verify_history(self, name: str) -> bool:
        """Re-walk the commit chain; raises on tampering."""
        parent = self.GENESIS
        for i, version in enumerate(self._artifacts.get(name, []), start=1):
            if version.version != i or version.parent_hash != parent:
                raise ModelLifecycleError(
                    f"artifact {name!r} history broken at v{i}")
            payload = json.dumps([name, i, version.content_hash, parent,
                                  version.message]).encode()
            if hashlib.sha256(payload).hexdigest() != version.commit_hash:
                raise ModelLifecycleError(
                    f"artifact {name!r} commit hash mismatch at v{i}")
            parent = version.commit_hash
        return True

    # -- reproducibility ---------------------------------------------------------------

    def reproducibility_check(self) -> bool:
        """Re-run all cells; outputs must hash identically.

        The compliance requirement behind it: a published model must be
        regenerable from its workspace.  Non-deterministic cells fail here.
        """
        first = [e.output_hash for e in self.run_all()]
        second = [e.output_hash for e in self.run_all()]
        return first == second
