"""Synthetic EMR generator (substitute for Explorys/Truven, Section V-B1).

The paper's RWE data — Explorys SuperMart (50M patients) and Truven
MarketScan — is proprietary.  This generator produces longitudinal lab
histories with exactly the phenomena DELT models and its baseline trips
over:

* patient-specific baselines ``alpha_i`` ("patients in EMRs have extremely
  diverse HbA1c level profiles");
* aging/comorbidity confounders: a per-patient linear drift plus optional
  step changes (diagnosis events) in the lab trajectory;
* **joint exposures**: drug prescriptions are correlated (co-medication),
  so marginal methods mis-attribute effects;
* a known subset of drugs with planted lab-lowering effects — the ground
  truth E9 scores recovery against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analytics.delt import PatientSeries


@dataclass
class EmrCohort:
    """A generated cohort plus its hidden ground truth."""

    patients: List[PatientSeries]
    true_effects: np.ndarray          # per-drug effect on the lab value
    drug_names: List[str]
    confounders_enabled: bool

    @property
    def n_drugs(self) -> int:
        return len(self.drug_names)


def generate_emr_cohort(n_patients: int = 500, n_drugs: int = 40,
                        n_lowering: int = 6, effect_size: float = -0.8,
                        measurements_per_patient: Tuple[int, int] = (8, 20),
                        observation_days: float = 1460.0,
                        baseline_range: Tuple[float, float] = (5.0, 9.0),
                        confounders: bool = True,
                        comedication_strength: float = 0.5,
                        noise_sd: float = 0.25,
                        seed: int = 0) -> EmrCohort:
    """Generate a cohort of HbA1c-like lab series with planted drug effects.

    ``n_lowering`` drugs receive effect ``effect_size`` (lab-lowering);
    two additional drugs receive a *raising* effect of ``-effect_size/2``
    so sign recovery is also exercised.  With ``confounders`` on, patients
    get individual aging drift and mid-observation comorbidity shocks, and
    prescriptions are correlated through a latent "sickness" factor that
    also raises the lab value — the classic confounding-by-indication trap
    for marginal methods.
    """
    rng = np.random.default_rng(seed)
    true_effects = np.zeros(n_drugs)
    n_lowering = min(n_lowering, max(1, n_drugs - 2))
    lowering = rng.choice(n_drugs, size=n_lowering, replace=False)
    true_effects[lowering] = effect_size
    remaining = [d for d in range(n_drugs) if d not in set(lowering.tolist())]
    raising = rng.choice(remaining, size=min(2, len(remaining)), replace=False)
    true_effects[raising] = -effect_size / 2.0

    # Base prescription propensity per drug (some drugs are common).
    prevalence = rng.uniform(0.05, 0.30, size=n_drugs)

    patients: List[PatientSeries] = []
    for i in range(n_patients):
        m = int(rng.integers(measurements_per_patient[0],
                             measurements_per_patient[1] + 1))
        times = np.sort(rng.uniform(0.0, observation_days, size=m))
        alpha = rng.uniform(*baseline_range)

        sickness = rng.uniform(0.0, 1.0)  # latent severity
        drift = (rng.normal(loc=0.0008 * sickness, scale=0.0003)
                 if confounders else 0.0)
        shock_time = rng.uniform(0.2, 0.8) * observation_days
        shock = (rng.choice([0.0, rng.uniform(0.2, 0.6)], p=[0.6, 0.4])
                 if confounders else 0.0)

        # Exposure windows: each prescribed drug covers a random interval.
        exposures = np.zeros((m, n_drugs))
        # Sickness-driven co-medication: sicker patients take more drugs,
        # and co-medication clusters pair drugs together.
        take_probability = prevalence * (1.0 + (comedication_strength
                                                * sickness * 2.0
                                                if confounders else 0.0))
        taken = rng.random(n_drugs) < np.clip(take_probability, 0.0, 0.9)
        # Co-medication clusters: taking drug 2k pulls in drug 2k+1 — the
        # joint-exposure trap for marginal methods (an effect drug's
        # cluster partner inherits its apparent effect marginally).
        if confounders:
            for d in range(0, n_drugs - 1, 2):
                if taken[d] and rng.random() < comedication_strength:
                    taken[d + 1] = True
                elif taken[d + 1] and rng.random() < comedication_strength:
                    taken[d] = True
        for d in np.nonzero(taken)[0]:
            if confounders:
                # Prescriptions start late in the record (conditions are
                # diagnosed as patients age), so exposed measurements are
                # also drift-inflated — the time-varying-baseline trap.
                start = rng.uniform(0.35, 0.7) * observation_days
            else:
                start = rng.uniform(0.0, observation_days * 0.7)
            duration = rng.uniform(observation_days * 0.2,
                                   observation_days * 0.6)
            window = (times >= start) & (times <= start + duration)
            exposures[window, d] = 1.0

        values = alpha + exposures @ true_effects
        values = values + drift * times
        if confounders:
            values = values + shock * (times >= shock_time)
            values = values + 0.5 * sickness  # severity raises the lab value
        values = values + rng.normal(scale=noise_sd, size=m)
        patients.append(PatientSeries(
            patient_id=f"pt-{i:05d}", times=times, values=values,
            exposures=exposures))

    drug_names = [f"drug-{d:03d}" for d in range(n_drugs)]
    return EmrCohort(patients=patients, true_effects=true_effects,
                     drug_names=drug_names, confounders_enabled=confounders)


def cohort_to_tabular(cohort: EmrCohort,
                      rng: Optional[np.random.Generator] = None
                      ) -> List[Dict[str, object]]:
    """Flatten a cohort into demographic rows for the privacy experiments.

    Ages/zips/diagnoses are synthesised per patient so the A2 ablation has
    quasi-identifiers to generalize.
    """
    rng = rng if rng is not None else np.random.default_rng(1234)
    rows: List[Dict[str, object]] = []
    for idx, patient in enumerate(cohort.patients):
        rows.append({
            "patient_id": patient.patient_id,
            "age": int(rng.integers(18, 95)),
            "zip": f"{int(rng.integers(10000, 10050)):05d}",
            "gender": "female" if rng.random() < 0.5 else "male",
            "mean_lab": float(patient.values.mean()),
            "n_drugs": int((patient.exposures.max(axis=0) > 0).sum()),
        })
    return rows
