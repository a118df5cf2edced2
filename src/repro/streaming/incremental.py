"""Incremental analytics operators: O(delta) instead of O(n²).

The batch analytics rebuild every similarity matrix with a full
``_pairwise`` pass — n(n-1)/2 feature evaluations per source — and re-fit
HbA1c baselines over the whole cohort on each refresh.  At steady state
one arriving event changes one entity, so the honest cost is one matrix
*row*: n-1 pair evaluations per affected source.  This module implements
exactly that:

* :class:`RunningMoments` — Welford's online mean/variance, numerically
  equivalent to a full ``np.mean``/``np.var`` re-fit;
* :class:`RunningBaselines` — per-patient + cohort HbA1c moments plus an
  incremental top-k of patient activity via the healthplane's
  space-saving sketch;
* :class:`IncrementalSimilarityEngine` — row-wise updates to all six
  similarity matrices.  Mutations write through to the knowledge bases,
  so a from-scratch builder rebuild over the same KBs is the ground
  truth the property tests compare against (bit for bit for the four
  Tanimoto/Jaccard sources, atol 1e-9 otherwise).  The engine keeps
  one :class:`~repro.analytics.similarity.BitMatrix` per Tanimoto/Jaccard
  source and rewrites only the changed entity's bits, so a row patch
  never re-reads the other entities' features.  Updated matrices are
  primed into the builders' caches, and touched entities land in a dirty
  set whose :meth:`refresh_job` re-enqueues only the affected downstream
  rows through the :mod:`repro.compute` scheduler;
* :class:`StreamingAnalytics` — the per-event dispatch facade the
  pipeline calls, returning each update's simulated cost.

Cost model: every pairwise feature evaluation (tanimoto, jaccard,
ontology prefix, phenotype distance) costs :data:`PAIR_EVAL_COST_S` of
simulated time; a baseline/sketch update costs
:data:`BASELINE_UPDATE_COST_S`.  The phenotype kernel's bandwidth is
adaptive (median pairwise distance), so the engine maintains the full
distance matrix incrementally — a row of distances is O(n) feature work —
and re-applies the shared vectorised kernel, which costs no pair
evaluations.  The bit-matrix kernel computes a Tanimoto/Jaccard row in
one vectorised pass, but the row is still charged its n-1 pair
evaluations, so simulated time does not depend on how fast the host
computes it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analytics.baselines import combined_similarity
from ..analytics.similarity import (DiseaseSimilarityBuilder,
                                    DrugSimilarityBuilder,
                                    ontology_path_similarity,
                                    phenotype_kernel)
from ..cloudsim.healthplane.accounting import SpaceSavingSketch
from ..compute.graph import TaskGraph

PAIR_EVAL_COST_S = 25e-6        # one feature-pair evaluation
BASELINE_UPDATE_COST_S = 2e-6   # one Welford / sketch update

DRUG_SOURCES = ("chemical", "target", "side_effect")
DISEASE_SOURCES = ("phenotype", "ontology", "disease_gene")
BIT_SOURCES = ("chemical", "target", "side_effect", "disease_gene")


class RunningMoments:
    """Welford's online algorithm for mean and variance."""

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)

    @property
    def variance(self) -> float:
        """Population variance (matches ``np.var`` over the same values)."""
        if self.count == 0:
            return 0.0
        return self._m2 / self.count

    @property
    def sample_variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


class RunningBaselines:
    """Streaming HbA1c baselines: per-patient + cohort moments, top-k."""

    def __init__(self, sketch_capacity: int = 128) -> None:
        self.cohort = RunningMoments()
        self._patients: Dict[str, RunningMoments] = {}
        self.activity = SpaceSavingSketch(capacity=sketch_capacity)
        self.observations = 0

    def observe(self, patient_id: str, value: float) -> None:
        """Fold one lab observation into every running statistic."""
        moments = self._patients.get(patient_id)
        if moments is None:
            moments = self._patients[patient_id] = RunningMoments()
        moments.update(value)
        self.cohort.update(value)
        self.activity.offer(patient_id)
        self.observations += 1

    def patient(self, patient_id: str) -> RunningMoments:
        try:
            return self._patients[patient_id]
        except KeyError:
            raise KeyError(f"no observations for {patient_id}") from None

    @property
    def patient_ids(self) -> List[str]:
        return sorted(self._patients)

    def top_active(self, k: int = 8) -> List[Tuple[str, float]]:
        """The k most active patients (incremental heavy hitters)."""
        return [(h.key, h.estimate) for h in self.activity.top(k)]

    def describe(self) -> Dict:
        return {
            "observations": self.observations,
            "patients": len(self._patients),
            "cohort_mean": round(self.cohort.mean, 6),
            "cohort_std": round(self.cohort.std, 6),
            "sketch_exact": self.activity.exact,
        }


class IncrementalSimilarityEngine:
    """Row-wise O(n) maintenance of the six similarity matrices.

    Construction pays one full build per source (the builders cache it);
    thereafter every mutation costs one matrix row per affected source.
    All mutations write through to the underlying knowledge bases first,
    so rebuilding a fresh builder over the same KBs reproduces these
    matrices exactly — that is the property-test contract.
    """

    def __init__(self, drug_builder: DrugSimilarityBuilder,
                 disease_builder: DiseaseSimilarityBuilder) -> None:
        self.drugs = drug_builder
        self.diseases = disease_builder
        self.matrices: Dict[str, np.ndarray] = {}
        self.matrices.update(drug_builder.all_sources())
        self.matrices.update(disease_builder.all_sources())
        self._bits = {source: self._builder_for(source).bit_matrix(source)
                      for source in BIT_SOURCES}
        # Phenotype bandwidth is global (median pairwise distance), so the
        # distance matrix itself is the incrementally maintained state.
        profiles = np.stack([disease_builder.disgenet.phenotype(d)
                             for d in disease_builder.disease_ids])
        self._profiles = profiles.astype(float).copy()
        squared = ((profiles[:, None, :] - profiles[None, :, :]) ** 2).sum(-1)
        self._distances = np.sqrt(squared)
        self.pair_evals = 0            # cumulative O(delta) work actually paid
        self.updates = 0
        self.dirty_drugs: Set[str] = set()
        self.dirty_diseases: Set[str] = set()
        self.epoch = 0
        for source, matrix in self.matrices.items():
            self._builder_for(source).prime(source, matrix)

    def _builder_for(self, source: str):
        return self.drugs if source in DRUG_SOURCES else self.diseases

    # -- cost accounting --------------------------------------------------------

    def full_rebuild_pair_evals(self) -> int:
        """What one from-scratch rebuild of all six matrices would cost."""
        nd = len(self.drugs.drug_ids)
        nz = len(self.diseases.disease_ids)
        return (len(DRUG_SOURCES) * nd * (nd - 1) // 2
                + len(DISEASE_SOURCES) * nz * (nz - 1) // 2)

    # -- drug updates -----------------------------------------------------------

    def update_drug(self, drug_id: str, *,
                    fingerprint: Optional[np.ndarray] = None,
                    targets: Optional[Set[str]] = None,
                    side_effects: Optional[Set[str]] = None) -> int:
        """Write features through to the KBs, patch one row per source.

        Returns the pair evaluations spent (n-1 per touched source).
        """
        index = self.drugs.drug_ids.index(drug_id)
        spent = 0
        if fingerprint is not None:
            self.drugs.pubchem.set_fingerprint(drug_id, fingerprint)
            spent += self._patch_bits("chemical", index, fingerprint)
        if targets is not None:
            self.drugs.drugbank.set_targets(drug_id, targets)
            spent += self._patch_bits("target", index, targets)
        if side_effects is not None:
            self.drugs.sider.set_side_effects(drug_id, side_effects)
            spent += self._patch_bits("side_effect", index, side_effects)
        if spent:
            self.updates += 1
            self.dirty_drugs.add(drug_id)
        return spent

    def add_drug(self, drug_id: str, *, fingerprint: np.ndarray,
                 targets: Set[str], side_effects: Set[str]) -> int:
        """Insert a brand-new drug: grow each matrix by one row/column."""
        # Registering the id first rejects a duplicate before any write.
        index = self.drugs.add_drug_id(drug_id)   # invalidates builder cache
        self.drugs.pubchem.set_fingerprint(drug_id, fingerprint)
        self.drugs.drugbank.set_targets(drug_id, targets)
        self.drugs.sider.set_side_effects(drug_id, side_effects)
        spent = self._patch_bits("chemical", index, fingerprint, grow=True)
        spent += self._patch_bits("target", index, targets, grow=True)
        spent += self._patch_bits("side_effect", index, side_effects,
                                  grow=True)
        self.updates += 1
        self.dirty_drugs.add(drug_id)
        return spent

    # -- disease updates --------------------------------------------------------

    def update_disease(self, disease_id: str, *,
                       phenotype: Optional[np.ndarray] = None,
                       ontology_path: Optional[Sequence[str]] = None,
                       genes: Optional[Set[str]] = None) -> int:
        """Write features through to the KBs, patch one row per source."""
        ids = self.diseases.disease_ids
        index = ids.index(disease_id)
        spent = 0
        if phenotype is not None:
            self.diseases.disgenet.set_phenotype(disease_id, phenotype)
            spent += self._patch_phenotype(index)
        if ontology_path is not None:
            self.diseases.disgenet.set_ontology_path(disease_id,
                                                     ontology_path)
            paths = [self.diseases.disgenet.ontology_path(d) for d in ids]
            spent += self._patch_row("ontology", index, paths,
                                     ontology_path_similarity)
        if genes is not None:
            self.diseases.disgenet.set_genes(disease_id, genes)
            spent += self._patch_bits("disease_gene", index, genes)
        if spent:
            self.updates += 1
            self.dirty_diseases.add(disease_id)
        return spent

    def add_disease(self, disease_id: str, *, phenotype: np.ndarray,
                    ontology_path: Sequence[str], genes: Set[str]) -> int:
        """Insert a brand-new disease: grow each matrix by one row/column."""
        # Registering the id first rejects a duplicate before any write.
        index = self.diseases.add_disease_id(disease_id)
        self.diseases.disgenet.set_phenotype(disease_id, phenotype)
        self.diseases.disgenet.set_ontology_path(disease_id, ontology_path)
        self.diseases.disgenet.set_genes(disease_id, genes)
        ids = self.diseases.disease_ids
        n = len(ids)
        grown = np.zeros((n, n))
        grown[:n - 1, :n - 1] = self._distances
        self._distances = grown
        profile = np.asarray(phenotype, dtype=float)
        self._profiles = np.vstack([self._profiles, profile[None, :]])
        spent = self._patch_phenotype(index, grow=True)
        self._grow("ontology")
        paths = [self.diseases.disgenet.ontology_path(d) for d in ids]
        spent += self._patch_row("ontology", index, paths,
                                 ontology_path_similarity)
        spent += self._patch_bits("disease_gene", index, genes, grow=True)
        self.updates += 1
        self.dirty_diseases.add(disease_id)
        return spent

    # -- row surgery ------------------------------------------------------------

    def _install_row(self, source: str, index: int, row: np.ndarray) -> int:
        """Write row/column ``index`` of one matrix: n-1 pair evals."""
        matrix = self.matrices[source]
        matrix[index, :] = row
        matrix[:, index] = row
        n = len(row)
        self.pair_evals += n - 1
        self._builder_for(source).prime(source, matrix)
        return n - 1

    def _patch_bits(self, source: str, index: int, features,
                    grow: bool = False) -> int:
        """Re-encode one entity's bits (a new row when ``grow``), then
        recompute its row with the bit-matrix kernel."""
        bits = self._bits[source]
        if grow:
            bits.append(features)
            self._grow(source)
        else:
            bits.set_row(index, features)
        return self._install_row(source, index, bits.row(index))

    def _patch_row(self, source: str, index: int, features: List,
                   fn) -> int:
        """Recompute row ``index`` one pair at a time (ontology paths)."""
        row = np.array([fn(features[index], other) for other in features])
        row[index] = 1.0
        return self._install_row(source, index, row)

    def _grow(self, source: str) -> None:
        """Extend a matrix by one row/column with a unit diagonal."""
        old = self.matrices[source]
        n = len(old) + 1
        grown = np.eye(n)
        grown[:n - 1, :n - 1] = old
        self.matrices[source] = grown

    def _patch_phenotype(self, index: int, grow: bool = False) -> int:
        """O(n) distance-row update, then re-apply the shared kernel.

        The kernel's bandwidth is the median of *all* pairwise distances,
        so patching one row still shifts every entry — but only the n-1
        distance evaluations are feature work; the kernel re-application
        is a vectorised elementwise pass with no pair evaluations.
        """
        if not grow:
            profile = np.asarray(
                self.diseases.disgenet.phenotype(
                    self.diseases.disease_ids[index]), dtype=float)
            self._profiles[index] = profile
        row = np.sqrt(
            ((self._profiles - self._profiles[index]) ** 2).sum(axis=1))
        self._distances[index, :] = row
        self._distances[:, index] = row
        self._distances[index, index] = 0.0
        similarity = phenotype_kernel(self._distances)
        self.matrices["phenotype"] = similarity
        n = self._profiles.shape[0]
        self.pair_evals += n - 1
        self.diseases.prime("phenotype", similarity)
        return n - 1

    # -- dirty-set refresh through the compute scheduler ------------------------

    def refresh_job(self, scheduler, *, tenant_id: str = "internal",
                    submitted_by: str = "streaming") -> Optional[object]:
        """Re-enqueue only the dirty entities' fused rows as compute tasks.

        Builds a :class:`TaskGraph` with one task per dirty drug/disease
        (its fused combined-similarity row) plus a fan-in summary task,
        submits it through the PR 8 scheduler, clears the dirty sets and
        advances the epoch.  Returns the scheduler's ``Job`` (or None when
        nothing is dirty).
        """
        if not self.dirty_drugs and not self.dirty_diseases:
            return None
        self.epoch += 1
        graph = TaskGraph(f"streaming-refresh-{self.epoch:04d}")
        fused_drugs = combined_similarity(
            {s: self.matrices[s] for s in DRUG_SOURCES})
        fused_diseases = combined_similarity(
            {s: self.matrices[s] for s in DISEASE_SOURCES})
        graph.add_data("fused_drugs", fused_drugs,
                       nbytes=fused_drugs.nbytes)
        graph.add_data("fused_diseases", fused_diseases,
                       nbytes=fused_diseases.nbytes)
        row_tasks = []
        for drug_id in sorted(self.dirty_drugs):
            index = self.drugs.drug_ids.index(drug_id)
            task_id = f"row-{drug_id}"
            graph.add_task(
                task_id,
                lambda inputs, i=index: inputs["fused_drugs"][i].tolist(),
                inputs=("fused_drugs",), output=f"row.{drug_id}",
                cost_s=len(self.drugs.drug_ids) * PAIR_EVAL_COST_S)
            row_tasks.append(task_id)
        for disease_id in sorted(self.dirty_diseases):
            index = self.diseases.disease_ids.index(disease_id)
            task_id = f"row-{disease_id}"
            graph.add_task(
                task_id,
                lambda inputs, i=index: inputs["fused_diseases"][i].tolist(),
                inputs=("fused_diseases",), output=f"row.{disease_id}",
                cost_s=len(self.diseases.disease_ids) * PAIR_EVAL_COST_S)
            row_tasks.append(task_id)
        graph.add_task(
            "summary",
            lambda inputs: {"rows": len(inputs)},
            inputs=tuple(f"row.{e}" for e in
                         sorted(self.dirty_drugs | self.dirty_diseases)),
            output="summary")
        self.dirty_drugs.clear()
        self.dirty_diseases.clear()
        return scheduler.submit(graph, tenant_id=tenant_id,
                                submitted_by=submitted_by)

    def describe(self) -> Dict:
        return {
            "updates": self.updates,
            "pair_evals": self.pair_evals,
            "full_rebuild_pair_evals": self.full_rebuild_pair_evals(),
            "dirty_drugs": len(self.dirty_drugs),
            "dirty_diseases": len(self.dirty_diseases),
            "epoch": self.epoch,
        }


class StreamingAnalytics:
    """Per-event dispatch: fold one :class:`StreamEvent` into the state.

    Returns the simulated cost of the update so the pipeline can advance
    the clock by exactly the work done — the O(delta) bill, not the
    O(n²) one.
    """

    def __init__(self, engine: IncrementalSimilarityEngine,
                 baselines: Optional[RunningBaselines] = None) -> None:
        self.engine = engine
        self.baselines = (baselines if baselines is not None
                          else RunningBaselines())
        self.events_by_class: Dict[str, int] = {}
        self.cost_s = 0.0

    def apply(self, event) -> float:
        """Apply one event; returns its simulated update cost in seconds."""
        payload = event.payload
        cost = BASELINE_UPDATE_COST_S
        if event.event_class == "lab.hba1c":
            self.baselines.observe(event.patient_id, float(payload["value"]))
        elif event.event_class == "adt.census":
            self.baselines.activity.offer(f"ward:{payload['ward']}")
        elif event.event_class == "drug.update":
            cost = self._apply_drug_mutation(payload["entity_id"],
                                             payload["mutation"])
        elif event.event_class == "disease.update":
            cost = self._apply_disease_mutation(payload["entity_id"],
                                                payload["mutation"])
        else:
            raise ValueError(f"unknown event class {event.event_class}")
        self.events_by_class[event.event_class] = (
            self.events_by_class.get(event.event_class, 0) + 1)
        self.cost_s += cost
        return cost

    def _apply_drug_mutation(self, drug_id: str, mutation: Dict) -> float:
        kwargs = {}
        if "flip_bits" in mutation:
            fingerprint = np.array(
                self.engine.drugs.pubchem.fingerprint(drug_id))
            for bit in mutation["flip_bits"]:
                fingerprint[bit] = 1 - fingerprint[bit]
            kwargs["fingerprint"] = fingerprint
        if "add_targets" in mutation or "drop_targets" in mutation:
            targets = set(self.engine.drugs.drugbank.targets(drug_id))
            targets |= set(mutation.get("add_targets", ()))
            targets -= set(mutation.get("drop_targets", ()))
            kwargs["targets"] = targets
        if ("add_side_effects" in mutation
                or "drop_side_effects" in mutation):
            effects = set(self.engine.drugs.sider.side_effects(drug_id))
            effects |= set(mutation.get("add_side_effects", ()))
            effects -= set(mutation.get("drop_side_effects", ()))
            kwargs["side_effects"] = effects
        spent = self.engine.update_drug(drug_id, **kwargs)
        return spent * PAIR_EVAL_COST_S

    def _apply_disease_mutation(self, disease_id: str,
                                mutation: Dict) -> float:
        kwargs = {}
        if "phenotype_delta" in mutation:
            phenotype = np.array(
                self.engine.diseases.disgenet.phenotype(disease_id),
                dtype=float)
            phenotype = phenotype + np.asarray(mutation["phenotype_delta"],
                                               dtype=float)
            kwargs["phenotype"] = phenotype
        if "add_genes" in mutation or "drop_genes" in mutation:
            genes = set(
                self.engine.diseases.disgenet.genes_for_disease(disease_id))
            genes |= set(mutation.get("add_genes", ()))
            genes -= set(mutation.get("drop_genes", ()))
            kwargs["genes"] = genes
        if "ontology_path" in mutation:
            kwargs["ontology_path"] = tuple(mutation["ontology_path"])
        spent = self.engine.update_disease(disease_id, **kwargs)
        return spent * PAIR_EVAL_COST_S

    def describe(self) -> Dict:
        return {
            "events_by_class": dict(sorted(self.events_by_class.items())),
            "update_cost_s": round(self.cost_s, 9),
            "baselines": self.baselines.describe(),
            "similarity": self.engine.describe(),
        }
