"""Tests for the report/dashboard service."""

import pytest

from repro import HealthCloudPlatform
from repro.cloudsim.monitoring import MonitoringService
from repro.core.metering import MeteringService
from repro.core.reports import ReportService


class TestOperationsReport:
    def test_counts_reflected(self):
        monitoring = MonitoringService()
        monitoring.metrics.incr("ingestion.uploads", 10)
        monitoring.metrics.incr("ingestion.stored", 8)
        monitoring.metrics.incr("ingestion.rejected", 2)
        monitoring.metrics.observe("ingestion.latency", 0.075)
        report = ReportService(monitoring).operations_report()
        assert report.body["stored"] == 8
        assert "rejected: 2" in report.text
        assert "latency p50" in report.text

    def test_empty_platform(self):
        report = ReportService(MonitoringService()).operations_report()
        assert report.body["uploads"] == 0

    def test_given_jobs_count_only_themselves(self):
        from repro.ingestion.pipeline import IngestionJob, IngestionStatus
        monitoring = MonitoringService()
        monitoring.metrics.incr("ingestion.uploads", 10)
        monitoring.metrics.observe("ingestion.latency", 9.0)
        stored, rejected = IngestionStatus.STORED, IngestionStatus.REJECTED
        jobs = [IngestionJob("j1", "c", "g", None, stored, latency_s=0.02),
                IngestionJob("j2", "c", "g", None, stored, latency_s=0.04),
                IngestionJob("j3", "c", "g", None, rejected),
                IngestionJob("j4", "c", "g", None)]
        body = ReportService(monitoring).operations_report(jobs).body
        assert (body["uploads"], body["stored"], body["rejected"]) == (
            4.0, 2.0, 1.0)
        assert body["latency"]["count"] == 2
        assert body["latency"]["max"] == 0.04


class TestComplianceReport:
    def test_coverage_and_audit(self):
        platform = HealthCloudPlatform(seed=4, use_blockchain=False)
        report = platform.reports.compliance_report()
        assert 0.0 < report.body["coverage"]["HIPAA"] <= 1.0
        assert report.body["coverage"]["GDPR"] == 1.0
        assert report.body["audit_clean"] is True
        assert "CLEAN" in report.text

    def test_requires_registry(self):
        service = ReportService(MonitoringService())
        with pytest.raises(ValueError):
            service.compliance_report()


class TestBillingReport:
    def test_invoice_rendered(self):
        monitoring = MonitoringService()
        metering = MeteringService()
        metering.record("t1", "ingestion.bundle", 100)
        metering.record("t1", "api.call", 2000)
        service = ReportService(monitoring, metering=metering)
        report = service.billing_report("t1")
        assert report.body["total"] == pytest.approx(100 * 0.02
                                                     + 2000 * 0.0005)
        assert "TOTAL" in report.text

    def test_requires_metering(self):
        service = ReportService(MonitoringService())
        with pytest.raises(ValueError):
            service.billing_report("t1")


class TestStudySummary:
    def test_summarizes_cohort(self):
        service = ReportService(MonitoringService())
        cohort = [
            {"gender": "female", "state": "MA"},
            {"gender": "female", "state": "NY"},
            {"gender": "male", "state": "MA"},
        ]
        report = service.study_summary("study-1", cohort)
        assert report.body["n"] == 3
        assert report.body["by_gender"] == {"female": 2, "male": 1}
        assert report.body["by_state"] == {"MA": 2, "NY": 1}
        assert "participants: 3" in report.text


class TestPlatformIntegration:
    def test_platform_exposes_reports_and_metering(self):
        platform = HealthCloudPlatform(seed=6, use_blockchain=False)
        context = platform.register_tenant("acme")
        platform.metering.record(context.tenant.tenant_id,
                                 "ingestion.bundle", 5)
        billing = platform.reports.billing_report(context.tenant.tenant_id)
        assert billing.body["total"] == pytest.approx(0.10)
        operations = platform.reports.operations_report()
        assert operations.title == "Operations"
