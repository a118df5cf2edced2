"""Auditability as a service (Section IV-E).

"External and internal teams may be able to audit the data usage and
processing as well as security, privacy and compliance enforcements.
Moreover, users need to be audited ...  Log analytics systems are used for
audit and forensic purposes."

:class:`AuditService` unifies the three evidence sources the paper names:
the scrubbed hash-chained platform logs, the RBAC decision log, and the
blockchain auditor view — and runs the log-analytics queries an audit team
asks (who touched what, failed accesses, per-actor activity, integrity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..blockchain.audit import AuditorView
from ..cloudsim.monitoring import MonitoringService
from ..core.errors import IntegrityError
from ..rbac.engine import AccessDecision, RbacEngine


@dataclass
class AuditReport:
    """Output of a full platform audit pass."""

    log_entries: int
    log_chain_valid: bool
    ledger_valid: Optional[bool]
    access_checks: int
    access_denials: int
    denial_ratio: float
    actors: Dict[str, int]
    findings: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


class AuditService:
    """Cross-source audit queries and the periodic audit pass."""

    def __init__(self, monitoring: MonitoringService,
                 rbac: Optional[RbacEngine] = None,
                 auditor_view: Optional[AuditorView] = None) -> None:
        self.monitoring = monitoring
        self.rbac = rbac
        self.auditor_view = auditor_view

    # -- log analytics ---------------------------------------------------------

    def search_logs(self, stream: Optional[str] = None,
                    level: Optional[str] = None,
                    contains: Optional[str] = None) -> List[str]:
        """Filtered log search, returning rendered lines."""
        entries = self.monitoring.logs.entries(stream=stream, level=level)
        if contains is not None:
            entries = [e for e in entries if contains in e.message]
        return [f"[{e.timestamp:.3f}] {e.stream}/{e.level}: {e.message}"
                for e in entries]

    def _decisions(self, tenant_id: Optional[str]
                   ) -> List[AccessDecision]:
        """The RBAC decision log, or only its ``tenant_id`` users' part."""
        if self.rbac is None:
            return []
        log = self.rbac.decision_log()
        if tenant_id is None:
            return log
        users = self.rbac.users
        return [d for d in log if users[d.user_id].tenant_id == tenant_id]

    def activity_by_actor(self, tenant_id: Optional[str] = None
                          ) -> Dict[str, int]:
        """RBAC decision counts per user (the "users need to be audited")."""
        counts: Dict[str, int] = {}
        for decision in self._decisions(tenant_id):
            counts[decision.user_id] = counts.get(decision.user_id, 0) + 1
        return counts

    # -- the audit pass ----------------------------------------------------------

    def run_audit(self, denial_ratio_threshold: float = 0.5,
                  tenant_id: Optional[str] = None) -> AuditReport:
        """Verify every integrity chain and flag anomalies.

        With ``tenant_id``, the access figures count only that tenant's
        users' decisions; the integrity checks stay platform-wide.
        """
        findings: List[str] = []
        try:
            chain_valid = self.monitoring.logs.verify_chain()
        except IntegrityError as exc:
            chain_valid = False
            findings.append(f"log chain broken: {exc}")

        ledger_valid: Optional[bool] = None
        if self.auditor_view is not None:
            try:
                ledger_valid = self.auditor_view.verify_integrity()
                if not ledger_valid:
                    findings.append("blockchain peers diverged")
            except IntegrityError as exc:
                ledger_valid = False
                findings.append(f"ledger integrity failure: {exc}")
            except Exception as exc:  # LedgerError subclasses HealthCloudError
                ledger_valid = False
                findings.append(f"ledger verification error: {exc}")

        decisions = self._decisions(tenant_id)
        denials = [d for d in decisions if not d.allowed]
        denial_ratio = len(denials) / len(decisions) if decisions else 0.0
        if decisions and denial_ratio > denial_ratio_threshold:
            findings.append(
                f"denial ratio {denial_ratio:.0%} exceeds threshold "
                f"{denial_ratio_threshold:.0%} — possible probing")

        return AuditReport(
            log_entries=len(self.monitoring.logs),
            log_chain_valid=chain_valid,
            ledger_valid=ledger_valid,
            access_checks=len(decisions),
            access_denials=len(denials),
            denial_ratio=denial_ratio,
            actors=self.activity_by_actor(tenant_id),
            findings=findings,
        )
