"""Customized dashboards and report generation (Fig. 1, Section II-C).

"Clients could develop customized dashboards and use custom report
generation tools either by using the analytics cloud provided by the
platform or by exporting anonymized data to their own environment."

:class:`ReportService` assembles tenant-facing reports from the
platform's own services — operations (monitoring metrics), compliance
(control coverage + audit verdicts), usage/billing (metering), and study
summaries over anonymized cohort tables — each rendered both as
structured data and as a plain-text dashboard block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence

from ..cloudsim.monitoring import MonitoringService, summarize
from ..compliance.audit import AuditService
from ..compliance.hipaa import HipaaControlRegistry
from ..core.metering import MeteringService
from ..ingestion.pipeline import IngestionJob, IngestionStatus


@dataclass
class Report:
    """One generated report: structured body + rendered text."""

    title: str
    body: Dict[str, Any]
    text: str


def _render(title: str, rows: Sequence[str]) -> str:
    width = max([len(title)] + [len(r) for r in rows]) if rows else len(title)
    bar = "=" * width
    return "\n".join([bar, title, bar, *rows])


class ReportService:
    """Builds the standard report set for dashboards."""

    def __init__(self, monitoring: MonitoringService,
                 controls: Optional[HipaaControlRegistry] = None,
                 audit: Optional[AuditService] = None,
                 metering: Optional[MeteringService] = None) -> None:
        self.monitoring = monitoring
        self.controls = controls
        self.audit = audit
        self.metering = metering

    def operations_report(
            self, jobs: Optional[Sequence[IngestionJob]] = None) -> Report:
        """Ingestion/throughput/latency snapshot.

        Platform-wide, from the ``ingestion.*`` metrics; given ``jobs``
        (one tenant's), the same figures over those jobs only.
        """
        if jobs is None:
            metrics = self.monitoring.metrics
            body = {
                "uploads": metrics.counter("ingestion.uploads"),
                "stored": metrics.counter("ingestion.stored"),
                "rejected": metrics.counter("ingestion.rejected"),
                "latency": metrics.summary("ingestion.latency"),
            }
        else:
            stored = [job for job in jobs
                      if job.status is IngestionStatus.STORED]
            body = {
                "uploads": float(len(jobs)),
                "stored": float(len(stored)),
                "rejected": float(sum(
                    job.status is IngestionStatus.REJECTED for job in jobs)),
                "latency": summarize(job.latency_s for job in stored),
            }
        latency = body["latency"]
        rows = [
            f"uploads:  {body['uploads']:.0f}",
            f"stored:   {body['stored']:.0f}",
            f"rejected: {body['rejected']:.0f}",
        ]
        if latency.get("count"):
            rows.append(f"latency p50/p95: {latency['p50'] * 1e3:.1f} / "
                        f"{latency['p95'] * 1e3:.1f} ms (simulated)")
        return Report("Operations", body, _render("Operations", rows))

    def compliance_report(self, tenant_id: Optional[str] = None) -> Report:
        """Control coverage per regulation + latest audit verdict.

        With ``tenant_id``, the audit counts only that tenant's users'
        access decisions.
        """
        if self.controls is None:
            raise ValueError("no control registry wired")
        body: Dict[str, Any] = {
            "coverage": {
                regulation: self.controls.coverage(regulation=regulation)
                for regulation in ("HIPAA", "GDPR", "GxP")
            },
            "gaps": [c.control_id for c in self.controls.gaps()],
        }
        rows = [f"{regulation}: {coverage:.0%} of controls implemented"
                for regulation, coverage in body["coverage"].items()]
        if self.audit is not None:
            audit_report = self.audit.run_audit(tenant_id=tenant_id)
            body["audit_clean"] = audit_report.clean
            body["findings"] = audit_report.findings
            rows.append(f"audit: {'CLEAN' if audit_report.clean else 'FINDINGS'}"
                        f" ({audit_report.access_denials} denials / "
                        f"{audit_report.access_checks} checks)")
        if body["gaps"]:
            rows.append("open gaps: " + ", ".join(body["gaps"][:4])
                        + ("..." if len(body["gaps"]) > 4 else ""))
        return Report("Compliance", body, _render("Compliance", rows))

    def billing_report(self, tenant_id: str) -> Report:
        """Current-period invoice for a tenant."""
        if self.metering is None:
            raise ValueError("no metering service wired")
        invoice = self.metering.invoice(tenant_id)
        body = {
            "tenant": tenant_id,
            "lines": [{"service": service, "units": units, "amount": amount}
                      for service, units, amount in invoice.lines],
            "total": invoice.total,
        }
        rows = [f"{line['service']:<24} {line['units']:>10.1f} units  "
                f"{line['amount']:>8.2f}" for line in body["lines"]]
        rows.append(f"{'TOTAL':<24} {'':>10}        {invoice.total:>8.2f}")
        return Report(f"Billing — {tenant_id}", body,
                      _render(f"Billing — {tenant_id}", rows))

    def study_summary(self, group_id: str,
                      cohort_table: Sequence[Dict[str, Any]]) -> Report:
        """Descriptive summary of an anonymized study cohort."""
        by_gender: Dict[str, int] = {}
        by_state: Dict[str, int] = {}
        for row in cohort_table:
            gender = str(row.get("gender", "unknown"))
            by_gender[gender] = by_gender.get(gender, 0) + 1
            state = str(row.get("state", ""))
            if state:
                by_state[state] = by_state.get(state, 0) + 1
        body = {
            "group": group_id,
            "n": len(cohort_table),
            "by_gender": by_gender,
            "by_state": by_state,
        }
        rows = [f"participants: {body['n']}"]
        rows += [f"gender {gender}: {count}"
                 for gender, count in sorted(by_gender.items())]
        rows += [f"state {state}: {count}"
                 for state, count in sorted(by_state.items())]
        return Report(f"Study — {group_id}", body,
                      _render(f"Study — {group_id}", rows))
