"""Simulated IaaS substrate: clock, network, nodes, monitoring, provisioning.

Implements Section II-A's infrastructure cloud as a deterministic
simulation so that the paper's placement/latency/attestation claims can be
measured on a laptop.
"""

from .clock import (
    INTER_REGION_ROUND_TRIP,
    LAN_ROUND_TRIP,
    LOCAL_MEMORY_ACCESS,
    SimClock,
    WAN_ROUND_TRIP,
)
from .faults import (
    AvailabilityDipFault,
    FaultPlan,
    FaultWindow,
    LatencySpikeFault,
    LinkDropFault,
    NodeCrashFault,
)
from .monitoring import (
    LEVEL_RANKS,
    LogEntry,
    LogStore,
    MetricsRegistry,
    MonitoringService,
    scrub,
    scrub_value,
)
from .healthplane import (
    Alert,
    BurnRateRule,
    EventBus,
    HealthPlane,
    HealthReport,
    HeavyHitter,
    PlatformEvent,
    SloEvaluator,
    SloObjective,
    SpaceSavingSketch,
    Subscription,
    TimeSeriesStore,
    UsageAccountant,
    WindowAggregate,
)
from .network import Link, NetworkFabric, TransferRecord, standard_topology
from .tracing import (
    CriticalPath,
    PathSegment,
    Span,
    SpanEvent,
    TraceContext,
    Tracer,
    maybe_span,
)
from .nodes import (
    Container,
    Datacenter,
    Host,
    NodeState,
    SoftwareComponent,
    VirtualMachine,
    measure,
)
from .provisioning import ProvisionRequest, ResourceProvisioningService

__all__ = [
    "AvailabilityDipFault",
    "FaultPlan",
    "FaultWindow",
    "LatencySpikeFault",
    "LinkDropFault",
    "NodeCrashFault",
    "SimClock",
    "LOCAL_MEMORY_ACCESS",
    "LAN_ROUND_TRIP",
    "WAN_ROUND_TRIP",
    "INTER_REGION_ROUND_TRIP",
    "LEVEL_RANKS",
    "LogEntry",
    "LogStore",
    "MetricsRegistry",
    "MonitoringService",
    "scrub",
    "scrub_value",
    "Alert",
    "BurnRateRule",
    "EventBus",
    "HealthPlane",
    "HealthReport",
    "HeavyHitter",
    "PlatformEvent",
    "SloEvaluator",
    "SloObjective",
    "SpaceSavingSketch",
    "Subscription",
    "TimeSeriesStore",
    "UsageAccountant",
    "WindowAggregate",
    "CriticalPath",
    "PathSegment",
    "Span",
    "SpanEvent",
    "TraceContext",
    "Tracer",
    "maybe_span",
    "Link",
    "NetworkFabric",
    "TransferRecord",
    "standard_topology",
    "Container",
    "Datacenter",
    "Host",
    "NodeState",
    "SoftwareComponent",
    "VirtualMachine",
    "measure",
    "ProvisionRequest",
    "ResourceProvisioningService",
]
