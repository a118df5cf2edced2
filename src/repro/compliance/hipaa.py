"""HIPAA control registry (Section IV-D, Fig. 8).

"The HIPAA controls are categorized into four pillars: administrative,
physical, technical and policies and documentation."  The registry holds a
representative control set per pillar, tracks each control's
implementation status and the platform component satisfying it, and
renders the compliance report auditors consume.  GDPR adds its stricter
privacy controls on top ("more stringent in privacy requirements than
HIPAA").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..core.errors import ComplianceError


class Pillar(Enum):
    """Fig. 8's four pillars."""

    ADMINISTRATIVE = "administrative"
    PHYSICAL = "physical"
    TECHNICAL = "technical"
    POLICIES_AND_DOCUMENTATION = "policies_and_documentation"


class ControlStatus(Enum):
    NOT_IMPLEMENTED = "not_implemented"
    IMPLEMENTED = "implemented"
    VERIFIED = "verified"     # implemented + audit-checked


@dataclass
class Control:
    """One regulatory control."""

    control_id: str
    pillar: Pillar
    description: str
    regulation: str = "HIPAA"    # "HIPAA" | "GDPR" | "GxP"
    status: ControlStatus = ControlStatus.NOT_IMPLEMENTED
    satisfied_by: Optional[str] = None   # platform component name


# Representative control set; ids loosely follow 45 CFR 164 subsections.
STANDARD_CONTROLS: List[Tuple[str, Pillar, str, str]] = [
    ("164.308-risk", Pillar.ADMINISTRATIVE,
     "Risk analysis and management process", "HIPAA"),
    ("164.308-access", Pillar.ADMINISTRATIVE,
     "Workforce authorization via role-based access control", "HIPAA"),
    ("164.308-training", Pillar.ADMINISTRATIVE,
     "Security awareness and change-management discipline", "HIPAA"),
    ("164.310-facility", Pillar.PHYSICAL,
     "Facility access controls (attested hardware root of trust)", "HIPAA"),
    ("164.310-device", Pillar.PHYSICAL,
     "Device and media controls with secure disposal", "HIPAA"),
    ("164.312-access", Pillar.TECHNICAL,
     "Unique user identification and authentication", "HIPAA"),
    ("164.312-audit", Pillar.TECHNICAL,
     "Audit controls recording PHI access", "HIPAA"),
    ("164.312-integrity", Pillar.TECHNICAL,
     "PHI integrity verification mechanisms", "HIPAA"),
    ("164.312-transmission", Pillar.TECHNICAL,
     "Encryption of PHI in transit and at rest", "HIPAA"),
    ("164.316-policies", Pillar.POLICIES_AND_DOCUMENTATION,
     "Written policies, retention, and documentation updates", "HIPAA"),
    ("gdpr-17-erasure", Pillar.TECHNICAL,
     "Right to erasure (crypto-deletion of subject data)", "GDPR"),
    ("gdpr-7-consent", Pillar.ADMINISTRATIVE,
     "Demonstrable, revocable consent with provenance", "GDPR"),
    ("gdpr-30-records", Pillar.POLICIES_AND_DOCUMENTATION,
     "Records of processing activities (ledger-backed)", "GDPR"),
    ("gxp-change", Pillar.ADMINISTRATIVE,
     "Controlled, approved, attested deployment changes", "GxP"),
]


class HipaaControlRegistry:
    """Tracks control implementation across the platform."""

    def __init__(self, include_standard: bool = True) -> None:
        self._controls: Dict[str, Control] = {}
        if include_standard:
            for control_id, pillar, description, regulation in STANDARD_CONTROLS:
                self._controls[control_id] = Control(
                    control_id, pillar, description, regulation)

    def add_control(self, control: Control) -> None:
        if control.control_id in self._controls:
            raise ComplianceError(f"control {control.control_id} exists")
        self._controls[control.control_id] = control

    def mark_implemented(self, control_id: str, component: str) -> Control:
        control = self._get(control_id)
        control.status = ControlStatus.IMPLEMENTED
        control.satisfied_by = component
        return control

    def mark_verified(self, control_id: str) -> Control:
        control = self._get(control_id)
        if control.status is ControlStatus.NOT_IMPLEMENTED:
            raise ComplianceError(
                f"control {control_id} cannot be verified before "
                "implementation")
        control.status = ControlStatus.VERIFIED
        return control

    def controls(self, pillar: Optional[Pillar] = None,
                 regulation: Optional[str] = None) -> List[Control]:
        out = list(self._controls.values())
        if pillar is not None:
            out = [c for c in out if c.pillar is pillar]
        if regulation is not None:
            out = [c for c in out if c.regulation == regulation]
        return sorted(out, key=lambda c: c.control_id)

    def coverage(self, regulation: Optional[str] = None) -> float:
        """Fraction of controls implemented or verified."""
        controls = self.controls(regulation=regulation)
        if not controls:
            return 0.0
        satisfied = sum(1 for c in controls
                        if c.status is not ControlStatus.NOT_IMPLEMENTED)
        return satisfied / len(controls)

    def gaps(self) -> List[Control]:
        """Controls still unimplemented — the compliance to-do list."""
        return [c for c in self._controls.values()
                if c.status is ControlStatus.NOT_IMPLEMENTED]

    def report(self) -> Dict[str, Dict[str, int]]:
        """Pillar -> status counts, the shape of Fig. 8 as numbers."""
        out: Dict[str, Dict[str, int]] = {}
        for control in self._controls.values():
            pillar = out.setdefault(control.pillar.value, {})
            pillar[control.status.value] = pillar.get(
                control.status.value, 0) + 1
        return out

    def _get(self, control_id: str) -> Control:
        try:
            return self._controls[control_id]
        except KeyError:
            raise ComplianceError(f"unknown control {control_id}") from None
