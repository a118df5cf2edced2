"""Enhanced and basic clients (Sections I, II-C, III-A; Fig. 4).

"We provide enhanced clients which offer additional functionality for
client machines ... features such as caching, data analytics, and
encryption."  The enhanced client:

* **caches** platform/KB responses locally (orders-of-magnitude cheaper
  than a WAN fetch — experiment E3/E10);
* **encrypts and anonymizes at the client** before upload ("highly
  confidential data can be analyzed and encrypted or anonymized at clients
  before being sent to servers");
* runs **approved models locally** (edge execution — models pushed from
  the platform per Section II-C);
* keeps working **offline**: uploads queue while disconnected and drain on
  reconnect ("clients can also perform processing and analysis while
  disconnected from servers").

:class:`BasicClient` is the thin baseline: every operation is a remote
call, nothing is cached, uploads fail while offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..caching.policies import Cache, LruCache
from ..core.errors import DisconnectedError, ModelLifecycleError
from ..crypto.rsa import HybridCiphertext
from ..fhir.resources import Bundle
from ..ingestion.pipeline import ClientRegistration, encrypt_bundle_for_upload
from ..privacy.deidentify import Deidentifier
from .connection import PlatformConnection


class BasicClient:
    """Baseline thin client: no cache, no edge compute, no offline queue."""

    def __init__(self, connection: PlatformConnection) -> None:
        self.connection = connection

    def fetch(self, route: str, key: str) -> Any:
        """Remote fetch, every time."""
        return self.connection.request(route, {"key": key})

    def fetch_many(self, route: str, keys: List[str]) -> Dict[str, Any]:
        """Per-key round trips — the baseline the batched client beats."""
        return {key: self.connection.request(route, {"key": key})
                for key in keys}

    def run_model(self, model_name: str, payload: Dict[str, Any]) -> Any:
        """Analytics always execute server-side."""
        return self.connection.request("/analytics/run",
                                       {"model": model_name, **payload})

    def upload(self, route: str, body: Dict[str, Any]) -> Any:
        return self.connection.request(route, body)


@dataclass
class _QueuedUpload:
    route: str
    body: Dict[str, Any]


class EnhancedClient:
    """The paper's enhanced client: cache + crypto + edge models + offline."""

    def __init__(self, connection: PlatformConnection,
                 registration: Optional[ClientRegistration] = None,
                 anonymizer: Optional[Deidentifier] = None,
                 cache: Optional[Cache] = None,
                 local_compute_cost_s: float = 0.0) -> None:
        self.connection = connection
        self.registration = registration
        self.anonymizer = anonymizer
        self.cache: Cache = cache if cache is not None else LruCache(1024)
        self.local_compute_cost_s = local_compute_cost_s
        self._models: Dict[str, Callable[[Dict[str, Any]], Any]] = {}
        self._queue: List[_QueuedUpload] = []
        self.local_model_runs = 0
        self.remote_model_runs = 0

    # -- caching ----------------------------------------------------------------

    def fetch(self, route: str, key: str) -> Any:
        """Cache-first fetch; misses go to the platform."""
        hit, value = self.cache.lookup((route, key))
        if hit:
            return value
        value = self.connection.request(route, {"key": key})
        self.cache.put((route, key), value)
        return value

    def fetch_many(self, route: str, keys: List[str]) -> Dict[str, Any]:
        """Bulk cache-first fetch: residual misses go as *one* request.

        The server handler for ``route`` receives ``{"keys": [...]}`` and
        must answer with a dict keyed by those keys; hits never leave the
        client.
        """
        results: Dict[str, Any] = {}
        misses: List[str] = []
        for key in keys:
            if key in results or key in misses:
                continue   # duplicate within the batch
            hit, value = self.cache.lookup((route, key))
            if hit:
                results[key] = value
            else:
                misses.append(key)
        if misses:
            fetched = self.connection.request(route, {"keys": misses})
            for key in misses:
                value = fetched[key]
                self.cache.put((route, key), value)
                results[key] = value
        return {key: results[key] for key in keys}

    # -- edge analytics --------------------------------------------------------------

    def install_model(self, name: str,
                      fn: Callable[[Dict[str, Any]], Any],
                      approved: bool = True) -> None:
        """Accept a model pushed from the platform (must be approved)."""
        if not approved:
            raise ModelLifecycleError(
                f"refusing unapproved model {name!r} on enhanced client")
        self._models[name] = fn

    def run_model(self, model_name: str, payload: Dict[str, Any]) -> Any:
        """Run locally when the model is installed; else fall back remote."""
        model = self._models.get(model_name)
        if model is not None:
            if self.local_compute_cost_s:
                self.connection.fabric.clock.advance(self.local_compute_cost_s)
            self.local_model_runs += 1
            return model(payload)
        self.remote_model_runs += 1
        return self.connection.request("/analytics/run",
                                       {"model": model_name, **payload})

    # -- privacy-preserving upload ---------------------------------------------------

    def prepare_bundle(self, bundle: Bundle,
                       anonymize: bool = False) -> HybridCiphertext:
        """Client-side anonymization (optional), then sealing under the
        registration's upload session."""
        if self.registration is None:
            raise ModelLifecycleError(
                "client is not registered with the platform")
        if anonymize:
            if self.anonymizer is None:
                raise ModelLifecycleError("no anonymizer configured")
            bundle, _ = self.anonymizer.deidentify_bundle(bundle)
        return encrypt_bundle_for_upload(bundle, self.registration)

    # -- offline operation ---------------------------------------------------------------

    def upload(self, route: str, body: Dict[str, Any]) -> Optional[Any]:
        """Upload now if online, otherwise queue; returns None when queued."""
        if not self.connection.online:
            self._queue.append(_QueuedUpload(route, body))
            return None
        return self.connection.request(route, body)

    @property
    def queued_uploads(self) -> int:
        return len(self._queue)

    def drain_queue(self) -> List[Any]:
        """On reconnect: replay queued uploads in order."""
        if not self.connection.online:
            raise DisconnectedError("cannot drain queue while offline")
        responses = []
        while self._queue:
            item = self._queue.pop(0)
            responses.append(self.connection.request(item.route, item.body))
        return responses
