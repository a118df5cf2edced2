"""Analytics model lifecycle management (Section III-A).

"The Analytics platform supports various lifecycle stages of analytics
models, namely i) data cleaning, ii) initial model generation iii) model
testing iv) model deployment and v) model update."

:class:`ModelRegistry` tracks each model through those stages, enforcing
legal transitions (a model cannot deploy before its test metrics pass the
registered acceptance criteria), keeps version history on update, and
marks deployed models as *approved for enhanced clients* — "Customized
client services could also take approved and compliant models and push
them to enhanced clients" (Section II-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Optional

from ..core.errors import ModelLifecycleError, NotFoundError


class ModelStage(Enum):
    """The five lifecycle stages, in order."""

    DATA_CLEANING = "data_cleaning"
    GENERATED = "generated"
    TESTED = "tested"
    DEPLOYED = "deployed"
    RETIRED = "retired"


_ALLOWED_TRANSITIONS = {
    ModelStage.DATA_CLEANING: {ModelStage.GENERATED},
    ModelStage.GENERATED: {ModelStage.TESTED, ModelStage.RETIRED},
    ModelStage.TESTED: {ModelStage.DEPLOYED, ModelStage.GENERATED,
                        ModelStage.RETIRED},
    ModelStage.DEPLOYED: {ModelStage.RETIRED},
    ModelStage.RETIRED: set(),
}


@dataclass
class ModelRecord:
    """One version of one model."""

    name: str
    version: int
    stage: ModelStage
    artifact: Any = None                      # the fitted model object
    test_metrics: Dict[str, float] = field(default_factory=dict)
    acceptance: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    @property
    def approved_for_clients(self) -> bool:
        """Only deployed (tested-and-passing) models go to enhanced clients."""
        return self.stage is ModelStage.DEPLOYED


class ModelRegistry:
    """Stage-enforcing registry of analytics models."""

    def __init__(self) -> None:
        self._models: Dict[str, List[ModelRecord]] = {}

    # -- lifecycle -----------------------------------------------------------

    def start(self, name: str,
              acceptance: Optional[Dict[str, float]] = None) -> ModelRecord:
        """Begin a new model (or a new version of an existing one)."""
        versions = self._models.setdefault(name, [])
        record = ModelRecord(
            name=name,
            version=len(versions) + 1,
            stage=ModelStage.DATA_CLEANING,
            acceptance=dict(acceptance or {}),
        )
        versions.append(record)
        return record

    def mark_generated(self, name: str, artifact: Any) -> ModelRecord:
        """Attach the trained artifact; data cleaning -> generated."""
        record = self.latest(name)
        self._transition(record, ModelStage.GENERATED)
        record.artifact = artifact
        return record

    def record_test(self, name: str,
                    metrics: Dict[str, float]) -> ModelRecord:
        """Record test metrics; generated -> tested."""
        record = self.latest(name)
        self._transition(record, ModelStage.TESTED)
        record.test_metrics = dict(metrics)
        return record

    def deploy(self, name: str) -> ModelRecord:
        """Deploy, enforcing the acceptance criteria against test metrics."""
        record = self.latest(name)
        failures = [
            f"{metric} = {record.test_metrics.get(metric)!r} < {minimum}"
            for metric, minimum in record.acceptance.items()
            if record.test_metrics.get(metric, float("-inf")) < minimum
        ]
        if failures:
            raise ModelLifecycleError(
                f"model {name} v{record.version} fails acceptance: "
                + "; ".join(failures))
        self._transition(record, ModelStage.DEPLOYED)
        return record

    def update(self, name: str,
               acceptance: Optional[Dict[str, float]] = None) -> ModelRecord:
        """Model update: retire the current version, start the next one."""
        current = self.latest(name)
        if current.stage is not ModelStage.RETIRED:
            self._transition(current, ModelStage.RETIRED)
        return self.start(name, acceptance=acceptance
                          if acceptance is not None else current.acceptance)

    def retire(self, name: str) -> ModelRecord:
        record = self.latest(name)
        self._transition(record, ModelStage.RETIRED)
        return record

    # -- queries ---------------------------------------------------------------

    def latest(self, name: str) -> ModelRecord:
        versions = self._models.get(name)
        if not versions:
            raise NotFoundError(f"model {name!r} not registered")
        return versions[-1]

    def version(self, name: str, version: int) -> ModelRecord:
        versions = self._models.get(name)
        if not versions or not 1 <= version <= len(versions):
            raise NotFoundError(f"model {name!r} v{version} not found")
        return versions[version - 1]

    def history(self, name: str) -> List[ModelRecord]:
        return list(self._models.get(name, []))

    def deployed_models(self) -> List[ModelRecord]:
        """Everything currently approved for clients."""
        return [versions[-1] for versions in self._models.values()
                if versions and versions[-1].stage is ModelStage.DEPLOYED]

    def _transition(self, record: ModelRecord, target: ModelStage) -> None:
        allowed = _ALLOWED_TRANSITIONS[record.stage]
        if target not in allowed:
            raise ModelLifecycleError(
                f"model {record.name} v{record.version}: illegal transition "
                f"{record.stage.value} -> {target.value}")
        record.stage = target
