"""API and API Management (Section II-B).

"The platform exposes secure APIs for all its capabilities.  The API
management system first authenticates the user requesting the APIs, and
once successfully authenticated, it consults the Privacy Management
system and allows API access accordingly."

:class:`ApiGateway` is that front door: token authentication through the
federated identity service, per-route RBAC requirements consulted on
every call, per-tenant (and optional per-route) rate limiting, audit
logging of every request, and metering hooks for billing.

Requests travel as a typed :class:`ApiRequest` envelope through
:meth:`ApiGateway.dispatch`; handlers receive a :class:`RequestContext`
(authenticated user, tenant, request id, deadline) plus the request's
parameters.  Failures are raised as exceptions anywhere in the stack and
mapped to HTTP statuses by the single table in
:mod:`repro.core.errors` (:func:`~repro.core.errors.http_status_for`) —
no per-branch response construction.  Routes are versioned
(``/v1/...``); unversioned paths resolve against the default version.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from ..cloudsim.clock import SimClock
from ..cloudsim.monitoring import MonitoringService
from ..cloudsim.tracing import TraceContext, Tracer, maybe_span
from ..core.errors import (
    ConfigurationError,
    DeadlineExceededError,
    NotFoundError,
    RateLimitError,
    http_status_for,
)
from ..rbac.engine import RbacEngine
from ..rbac.federation import FederatedIdentityService, IdentityToken
from ..rbac.model import Action, Scope, ScopeKind, User

Handler = Callable[..., Any]

DEFAULT_API_VERSION = "v1"


@dataclass(frozen=True)
class RouteSpec:
    """One exposed API route and its access requirement.

    ``version`` prefixes the wire path (``/v1/billing``); requests using
    the bare path resolve against :data:`DEFAULT_API_VERSION`.  A route
    may carry its own rate limit (requests per ``rate_window_s`` per
    tenant) on top of the gateway-wide one.
    """

    path: str
    handler: Handler
    action: Action
    resource_type: str
    scope_kind: ScopeKind   # scope entity id comes from the request
    description: str = ""
    version: str = DEFAULT_API_VERSION
    rate_limit: Optional[int] = None
    rate_window_s: Optional[float] = None

    @property
    def versioned_path(self) -> str:
        return f"/{self.version}{self.path}"


@dataclass
class RateLimiter:
    """Fixed-window per-key rate limiter on the simulated clock.

    Bounded: expired windows are pruned and the number of tracked keys is
    capped (LRU eviction), so a million distinct tenants cannot grow the
    limiter without bound.
    """

    limit: int
    window_s: float
    clock: SimClock
    max_keys: int = 4096
    _windows: "OrderedDict[str, Tuple[float, int]]" = field(
        default_factory=OrderedDict)

    def allow(self, key: str) -> bool:
        now = self.clock.now
        window_start, count = self._windows.get(key, (now, 0))
        if now - window_start >= self.window_s:
            window_start, count = now, 0
        allowed = count < self.limit
        if allowed:
            count += 1
        self._windows[key] = (window_start, count)
        self._windows.move_to_end(key)
        if len(self._windows) > self.max_keys:
            self.prune()
        return allowed

    def prune(self) -> None:
        """Drop expired windows; evict least-recent keys past the cap."""
        now = self.clock.now
        expired = [key for key, (start, _) in self._windows.items()
                   if now - start >= self.window_s]
        for key in expired:
            del self._windows[key]
        while len(self._windows) > self.max_keys:
            self._windows.popitem(last=False)

    @property
    def tracked_keys(self) -> int:
        return len(self._windows)


@dataclass(frozen=True)
class ApiRequest:
    """The typed request envelope every gateway call travels in.

    ``deadline_s`` is an absolute simulated time; a request whose
    deadline has passed (before dispatch or after the handler ran) gets
    a 504 instead of a body.
    """

    path: str
    token: IdentityToken
    scope_entity_id: str
    org_id: str
    env_id: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deadline_s: Optional[float] = None


@dataclass(frozen=True)
class RequestContext:
    """What an authenticated request looks like from inside a handler."""

    user: User
    tenant_id: str
    request_id: str
    deadline_s: Optional[float] = None
    # Propagation handle for request-path tracing: handlers pass it (or
    # just run under the gateway's tracer) so downstream spans join the
    # dispatch's trace tree.  None when the gateway is untraced.
    trace: Optional[TraceContext] = None


@dataclass(frozen=True)
class ApiResponse:
    """Uniform response envelope."""

    status: int
    body: Any
    request_id: str


class ApiGateway:
    """Authenticating, authorizing, rate-limited, audited API front door."""

    def __init__(self, rbac: RbacEngine,
                 federation: FederatedIdentityService,
                 monitoring: Optional[MonitoringService] = None,
                 clock: Optional[SimClock] = None,
                 rate_limit: int = 100, rate_window_s: float = 60.0,
                 meter: Optional[Callable[[str, str], None]] = None,
                 tracer: Optional[Tracer] = None) -> None:
        self.rbac = rbac
        self.federation = federation
        self.tracer = tracer
        self.clock = clock if clock is not None else SimClock()
        self.monitoring = (monitoring if monitoring is not None
                           else MonitoringService(self.clock))
        self._routes: Dict[str, RouteSpec] = {}   # keyed by versioned path
        self._limiter = RateLimiter(rate_limit, rate_window_s, self.clock)
        self._route_limiters: Dict[str, RateLimiter] = {}
        self._meter = meter
        self._request_counter = 0

    def register_route(self, route: RouteSpec) -> None:
        """Expose a capability behind an access requirement."""
        key = route.versioned_path
        if key in self._routes:
            raise ConfigurationError(f"route {key!r} already registered")
        self._routes[key] = route
        if route.rate_limit is not None:
            self._route_limiters[key] = RateLimiter(
                route.rate_limit,
                route.rate_window_s if route.rate_window_s is not None
                else self._limiter.window_s,
                self.clock)

    def routes(self) -> List[str]:
        return sorted(self._routes)

    # -- the typed front door ------------------------------------------------

    def dispatch(self, request: ApiRequest) -> ApiResponse:
        """One API request through the full management stack.

        Order mirrors the paper: authenticate first, then consult the
        Privacy Management (RBAC) system, then dispatch.  Every outcome
        is audited; rate limits apply per authenticated tenant; any
        exception maps to its HTTP status through
        :data:`~repro.core.errors.HTTP_STATUS_BY_ERROR`.
        """
        self._request_counter += 1
        request_id = f"req-{self._request_counter:08d}"
        started = self.clock.now
        # Request identity for health accounting; _handle refines these
        # once the route resolves and the caller authenticates (a 401 or
        # 404 never learns the tenant).
        observed = {"tenant": "unauthenticated", "route": request.path}
        with maybe_span(self.tracer, "api.dispatch", "gateway",
                        path=request.path, request_id=request_id) as span:
            try:
                body = self._handle(request, request_id, observed)
            except Exception as exc:
                status = http_status_for(exc)
                span.set_attribute("http.status", status)
                span.set_status("ERROR", f"{type(exc).__name__}: {exc}")
                self.monitoring.log(
                    "api", f"{request_id} {status} {request.path}: {exc}",
                    level="ERROR" if status >= 500 else "WARN",
                    trace=span.trace_id)
                self.monitoring.metrics.incr(f"api.status.{status}")
                self.monitoring.metrics.observe(
                    "api.latency", self.clock.now - started,
                    trace_id=span.trace_id)
                self._observe_health(observed, status,
                                     self.clock.now - started, span.trace_id)
                return ApiResponse(status, {"error": str(exc)}, request_id)
            span.set_attribute("http.status", 200)
            self.monitoring.metrics.incr("api.status.200")
            self.monitoring.metrics.observe(
                "api.latency", self.clock.now - started,
                trace_id=span.trace_id)
            self._observe_health(observed, 200, self.clock.now - started,
                                 span.trace_id)
            return ApiResponse(200, body, request_id)

    def _observe_health(self, observed: Dict[str, str], status: int,
                        latency_s: float,
                        trace_id: Optional[str]) -> None:
        """Feed the health plane, when one is attached to monitoring."""
        plane = self.monitoring.healthplane
        if plane is not None:
            plane.observe_request(tenant=observed["tenant"],
                                  route=observed["route"], status=status,
                                  latency_s=latency_s, trace_id=trace_id)

    def _handle(self, request: ApiRequest, request_id: str,
                observed: Dict[str, str]) -> Any:
        route = self._resolve(request.path)
        observed["route"] = route.path

        # 1. Authentication (federated identity).
        user: User = self.federation.authenticate(request.token)
        observed["tenant"] = user.tenant_id

        # 2. Rate limiting per tenant — gateway-wide, then per-route.
        if not self._limiter.allow(user.tenant_id):
            raise RateLimitError("rate limit exceeded")
        route_limiter = self._route_limiters.get(route.versioned_path)
        if route_limiter is not None and not route_limiter.allow(
                user.tenant_id):
            raise RateLimitError(
                f"rate limit exceeded for {route.versioned_path}")

        # 3. Authorization via the Privacy Management system.
        scope = Scope(route.scope_kind, request.scope_entity_id)
        self.rbac.require(user.user_id, route.action, route.resource_type,
                          scope, request.org_id, request.env_id)

        # 4. Deadline, dispatch, meter, audit.
        self._check_deadline(request, "before dispatch")
        trace = (self.tracer.current_context()
                 if self.tracer is not None else None)
        context = RequestContext(user=user, tenant_id=user.tenant_id,
                                 request_id=request_id,
                                 deadline_s=request.deadline_s,
                                 trace=trace)
        body = route.handler(context, **dict(request.params))
        self._check_deadline(request, "after handler")
        if self._meter is not None:
            self._meter(user.tenant_id, route.path)
        self.monitoring.log(
            "api", f"{request_id} 200 {request.path} user {user.user_id}",
            trace=trace.trace_id if trace is not None else None)
        self.monitoring.metrics.incr(f"api.{route.path}.200")
        return body

    def _resolve(self, path: str) -> RouteSpec:
        route = self._routes.get(path)
        if route is None:  # unversioned path: default version
            route = self._routes.get(f"/{DEFAULT_API_VERSION}{path}")
        if route is None:
            raise NotFoundError(f"no route {path}")
        return route

    def _check_deadline(self, request: ApiRequest, when: str) -> None:
        if (request.deadline_s is not None
                and self.clock.now > request.deadline_s):
            raise DeadlineExceededError(
                f"deadline {request.deadline_s:.3f}s passed {when} "
                f"(now {self.clock.now:.3f}s)")
