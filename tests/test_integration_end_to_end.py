"""Integration tests: the full platform story across subsystems.

Covers the paper's end-to-end narratives: (1) trusted ingestion to
analytics to export; (2) enhanced-client edge workflow against a live
platform; (3) trusted intercloud workload transfer feeding the analytics
pipeline; (4) compromise detection across layers.
"""

import numpy as np
import pytest

from repro import HealthCloudPlatform
from repro.analytics import (
    DeltModel,
    DrugSimilarityBuilder,
    JointMatrixFactorization,
    MarginalSccs,
    effect_recovery,
)
from repro.analytics.similarity import DiseaseSimilarityBuilder
from repro.client.connection import PlatformConnection
from repro.client.enhanced import EnhancedClient
from repro.cloudsim.network import standard_topology
from repro.fhir.resources import Bundle, Observation, Patient
from repro.ingestion.pipeline import encrypt_bundle_for_upload
from repro.knowledge import generate_universe
from repro.rbac.model import Action, Permission, Scope, ScopeKind
from repro.workloads import generate_emr_cohort


@pytest.fixture(scope="module")
def loaded_platform():
    """Platform with a 12-patient study ingested end to end."""
    platform = HealthCloudPlatform(seed=101)
    context = platform.register_tenant("mercy-health")
    group = platform.rbac.create_group(context.tenant.tenant_id,
                                       "hba1c-study")
    registration = platform.ingestion.register_client("ehr-bridge")
    rng = np.random.default_rng(5)
    for i in range(12):
        pid = f"pt-{i:03d}"
        platform.consent.grant(pid, group.group_id)
        bundle = Bundle(id=f"bundle-{i}")
        bundle.add(Patient(id=pid, name={"family": f"Fam{i}"},
                           birthDate=f"19{50 + i % 40}-06-15",
                           gender="female" if i % 2 else "male",
                           address={"state": "MA"}))
        for j in range(3):
            bundle.add(Observation(
                id=f"{pid}-obs-{j}", code={"text": "HbA1c"},
                subject=f"Patient/{pid}",
                effectiveDateTime=f"2024-0{j + 1}-10",
                valueQuantity={"value": float(5.5 + rng.random() * 3),
                               "unit": "%"}))
        envelope = encrypt_bundle_for_upload(bundle, registration)
        platform.ingestion.upload("ehr-bridge", envelope, group.group_id)
    platform.run_ingestion()
    return platform, context, group


class TestIngestionToExport:
    def test_all_jobs_stored(self, loaded_platform):
        platform, _, _ = loaded_platform
        assert platform.monitoring.metrics.counter("ingestion.stored") == 12
        assert platform.datalake.record_count == 24

    def test_provenance_complete_per_job(self, loaded_platform):
        platform, _, _ = loaded_platform
        from repro.blockchain.audit import AuditorView
        view = AuditorView(platform.blockchain)
        stored = view.search_events(event="stored")
        assert len(stored) == 12
        # Batched or not, every event's integrity anchor verifies.
        assert all(view.verify_event(finding) for finding in stored)
        assert view.verify_integrity()

    def test_analyst_roundtrip(self, loaded_platform):
        platform, context, group = loaded_platform
        analyst = platform.rbac.register_user(context.tenant.tenant_id,
                                              "analyst")
        tenant_scope = Scope(ScopeKind.TENANT, context.tenant.tenant_id)
        platform.rbac.define_role("analyst", [
            Permission(Action.READ, "anonymized-data", tenant_scope)])
        platform.rbac.bind_role(analyst.user_id, context.default_org.org_id,
                                context.default_env.env_id, "analyst")
        platform.rbac.add_group_member(group.group_id, analyst.user_id)
        export = platform.export.export_anonymized(
            analyst.user_id, group.group_id, context.default_org.org_id,
            context.default_env.env_id)
        assert len(export.bundles) == 12
        assert export.achieved_k >= 5
        # No PHI leaks in the anonymized export.
        for bundle in export.bundles:
            payload = bundle.to_json()
            assert "Fam" not in payload
            assert "pt-0" not in payload

    def test_audit_pass_clean(self, loaded_platform):
        platform, _, _ = loaded_platform
        report = platform.audit.run_audit()
        assert report.clean
        assert report.log_chain_valid
        assert report.ledger_valid


class TestModelLifecycleToEdge:
    def test_train_deploy_push_run(self, loaded_platform):
        platform, _, _ = loaded_platform
        # Train DELT on a synthetic cohort (the RWE analytics story).
        cohort = generate_emr_cohort(n_patients=150, n_drugs=16, seed=33)
        platform.models.start("delt-hba1c", acceptance={"f1": 0.8})
        model = DeltModel(n_drugs=16, ridge=1.0)
        result = model.fit(cohort.patients)
        platform.models.mark_generated("delt-hba1c", artifact=result)
        recovery = effect_recovery(result.effects, cohort.true_effects, 0.8)
        platform.models.record_test("delt-hba1c", {"f1": recovery["f1"]})
        record = platform.models.deploy("delt-hba1c")
        assert record.approved_for_clients

        # Push the approved model to an enhanced client at the edge.
        fabric = standard_topology()
        connection = PlatformConnection(fabric, "client", "cloud-a")
        client = EnhancedClient(connection)
        effects = record.artifact.effects
        client.install_model(
            "delt-hba1c",
            lambda payload: float(np.dot(effects, payload["exposures"])),
            approved=record.approved_for_clients)
        exposure = np.zeros(16)
        exposure[int(np.argmin(cohort.true_effects))] = 1.0
        predicted_change = client.run_model("delt-hba1c",
                                            {"exposures": exposure})
        assert predicted_change < -0.3  # the lowering drug lowers
        assert client.local_model_runs == 1

    def test_underperforming_model_blocked(self, loaded_platform):
        platform, _, _ = loaded_platform
        platform.models.start("weak-model", acceptance={"auc": 0.9})
        platform.models.mark_generated("weak-model", artifact=object())
        platform.models.record_test("weak-model", {"auc": 0.55})
        from repro.core.errors import ModelLifecycleError
        with pytest.raises(ModelLifecycleError):
            platform.models.deploy("weak-model")


class TestRepositioningPipeline:
    def test_kb_to_jmf_pipeline(self):
        universe = generate_universe(n_drugs=50, n_diseases=35, seed=55)
        drug_sources = DrugSimilarityBuilder(universe).all_sources()
        disease_sources = DiseaseSimilarityBuilder(universe).all_sources()
        model = JointMatrixFactorization(rank=8, seed=2, max_iterations=80)
        result = model.fit(universe.association_matrix.astype(float),
                           drug_sources, disease_sources)
        scores = result.scores()
        known = scores[universe.association_matrix == 1].mean()
        unknown = scores[universe.association_matrix == 0].mean()
        assert known > unknown * 1.5

    def test_delt_vs_marginal_story(self, emr_cohort):
        delt = DeltModel(n_drugs=emr_cohort.n_drugs).fit(emr_cohort.patients)
        marginal = MarginalSccs(emr_cohort.n_drugs).fit(emr_cohort.patients)
        delt_f1 = effect_recovery(delt.effects, emr_cohort.true_effects,
                                  0.8)["f1"]
        marginal_f1 = effect_recovery(marginal, emr_cohort.true_effects,
                                      0.8)["f1"]
        assert delt_f1 > marginal_f1


class TestGdprEndToEnd:
    def test_erasure_cascades(self, loaded_platform):
        platform, _, group = loaded_platform
        target = "pt-005"
        receipt = platform.gdpr.erase_subject(target)
        assert receipt.record_versions_destroyed == 2
        # Consent revoked -> patient no longer in the study.
        assert target not in platform.consent.active_patients_in(
            group.group_id)
        # Data unreadable.
        reference = platform.deidentifier.reference_id(target)
        from repro.core.errors import KeyManagementError
        for record in platform.datalake.records_for_patient(reference):
            with pytest.raises(KeyManagementError):
                platform.datalake.retrieve(record.record_id)
        # Erasure is on the ledger.
        events = platform.gdpr.subject_access(target).provenance_events
        assert events[-1]["event"] == "deleted"
        # Other patients unaffected.
        other_ref = platform.deidentifier.reference_id("pt-006")
        records = platform.datalake.records_for_patient(other_ref)
        assert platform.datalake.retrieve(records[0].record_id)
