"""Tenant metering and billing (Section II-B, "Registration Service").

"The platform supports an idea of tenant, which is equivalent to an
account at an enterprise level for metering and billing of various
services."

:class:`MeteringService` accumulates per-tenant usage of named services
against a price book and renders invoices per billing period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..cloudsim.clock import SimClock
from ..core.errors import ConfigurationError, NotFoundError

# Default price book: service -> price per unit (arbitrary currency).
DEFAULT_PRICES: Dict[str, float] = {
    "ingestion.bundle": 0.02,
    "export.anonymized": 0.50,
    "export.full": 2.00,
    "analytics.model_run": 0.10,
    "analytics.model_train": 5.00,
    "storage.record_month": 0.001,
    "api.call": 0.0005,
    "blockchain.transaction": 0.01,
}


@dataclass(frozen=True)
class UsageRecord:
    """One metered event."""

    tenant_id: str
    service: str
    units: float
    at: float


@dataclass
class Invoice:
    """A billing-period statement for one tenant."""

    tenant_id: str
    period_start: float
    period_end: float
    lines: List[Tuple[str, float, float]]  # (service, units, amount)

    @property
    def total(self) -> float:
        return sum(amount for _, _, amount in self.lines)


class MeteringService:
    """Per-tenant usage accumulation and invoicing."""

    def __init__(self, prices: Optional[Dict[str, float]] = None,
                 clock: Optional[SimClock] = None) -> None:
        self._prices = dict(prices if prices is not None else DEFAULT_PRICES)
        self.clock = clock if clock is not None else SimClock()
        self._usage: List[UsageRecord] = []

    def set_price(self, service: str, price_per_unit: float) -> None:
        if price_per_unit < 0:
            raise ConfigurationError("price cannot be negative")
        self._prices[service] = price_per_unit

    def price_of(self, service: str) -> float:
        try:
            return self._prices[service]
        except KeyError:
            raise NotFoundError(f"service {service!r} has no price") from None

    def record(self, tenant_id: str, service: str,
               units: float = 1.0) -> UsageRecord:
        """Meter one usage event."""
        if units < 0:
            raise ConfigurationError("usage units cannot be negative")
        self.price_of(service)  # validate the service is billable
        record = UsageRecord(tenant_id, service, units, self.clock.now)
        self._usage.append(record)
        return record

    def usage_for(self, tenant_id: str,
                  service: Optional[str] = None) -> float:
        """Total units a tenant has consumed (optionally one service)."""
        return sum(r.units for r in self._usage
                   if r.tenant_id == tenant_id
                   and (service is None or r.service == service))

    def invoice(self, tenant_id: str, period_start: float = 0.0,
                period_end: Optional[float] = None) -> Invoice:
        """Statement of all usage inside a period, priced."""
        end = period_end if period_end is not None else self.clock.now
        per_service: Dict[str, float] = {}
        for record in self._usage:
            if record.tenant_id != tenant_id:
                continue
            if not period_start <= record.at <= end:
                continue
            per_service[record.service] = (
                per_service.get(record.service, 0.0) + record.units)
        lines = [(service, units, units * self._prices[service])
                 for service, units in sorted(per_service.items())]
        return Invoice(tenant_id, period_start, end, lines)

    def top_consumers(self, service: str, k: int = 5) -> List[Tuple[str, float]]:
        """Tenants ranked by consumption of one service."""
        totals: Dict[str, float] = {}
        for record in self._usage:
            if record.service == service:
                totals[record.tenant_id] = (
                    totals.get(record.tenant_id, 0.0) + record.units)
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])
        return ranked[:k]
