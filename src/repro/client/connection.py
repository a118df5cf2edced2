"""Client-platform connection over the simulated network (Fig. 4).

Models the HTTPS (REST) surface of Section III-A as a request/response
facade across the :class:`~repro.cloudsim.network.NetworkFabric`: each
call charges the round-trip for its payload sizes, and raises
:class:`DisconnectedError` when the client endpoint is partitioned —
which is what the enhanced client's offline queue absorbs.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from ..cloudsim.network import NetworkFabric
from ..core.errors import DisconnectedError, NotFoundError

Handler = Callable[[Dict[str, Any]], Any]


def _payload_size(obj: Any) -> int:
    """Approximate wire size of a request/response body."""
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    try:
        return len(json.dumps(obj, default=str).encode())
    except TypeError:
        return 1024


class PlatformConnection:
    """One client's view of the platform's REST API."""

    def __init__(self, fabric: NetworkFabric, client_endpoint: str,
                 server_endpoint: str) -> None:
        self.fabric = fabric
        self.client_endpoint = client_endpoint
        self.server_endpoint = server_endpoint
        self._handlers: Dict[str, Handler] = {}
        self.requests_sent = 0

    def register_handler(self, route: str, handler: Handler) -> None:
        """Install a server-side handler for a route."""
        self._handlers[route] = handler

    @property
    def online(self) -> bool:
        return self.fabric.is_reachable(self.client_endpoint,
                                        self.server_endpoint)

    def request(self, route: str, body: Optional[Dict[str, Any]] = None) -> Any:
        """POST ``body`` to ``route``; charges simulated network time."""
        if not self.online:
            raise DisconnectedError(
                f"{self.client_endpoint} cannot reach {self.server_endpoint}")
        handler = self._handlers.get(route)
        if handler is None:
            raise NotFoundError(f"no handler for route {route!r}")
        body = body if body is not None else {}
        self.fabric.transfer(self.client_endpoint, self.server_endpoint,
                             _payload_size(body))
        response = handler(body)
        self.fabric.transfer(self.server_endpoint, self.client_endpoint,
                             _payload_size(response))
        self.requests_sent += 1
        return response

    def go_offline(self) -> None:
        """Partition the client from the network (travel, dead zone...)."""
        self.fabric.partition(self.client_endpoint)

    def go_online(self) -> None:
        self.fabric.heal(self.client_endpoint)
