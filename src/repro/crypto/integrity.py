"""HMAC-based integrity for graph-structured HCLS data (Section IV-B1, ref [30]).

"Graph-based HCLS data can also be verified using HMACs."  A patient's
record is naturally a graph (encounters -> observations -> medications);
this module authenticates nodes and edges with per-element HMACs plus an
aggregate tag, supporting verification of a full graph or a vertex-induced
subgraph shared with a partner.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Any, Dict, Tuple

import networkx as nx

from ..core.canonical import canonical_json
from ..core.errors import IntegrityError


def _tag(key: bytes, kind: bytes, payload: bytes) -> bytes:
    return hmac.new(key, kind + b"\x00" + payload, hashlib.sha256).digest()


@dataclass(frozen=True)
class GraphAuthTag:
    """Authentication material for a graph: per-element tags + aggregate."""

    node_tags: Dict[str, bytes]
    edge_tags: Dict[Tuple[str, str], bytes]
    aggregate: bytes


class GraphAuthenticator:
    """Computes and verifies HMAC integrity tags over networkx DiGraphs."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ValueError("authentication key too short")
        self._key = key

    def _node_tag(self, node: str, attrs: Dict[str, Any]) -> bytes:
        return _tag(self._key, b"node",
                    node.encode() + b"\x00" + canonical_json(attrs))

    def _edge_tag(self, u: str, v: str, attrs: Dict[str, Any]) -> bytes:
        payload = (u.encode() + b"\x00" + v.encode() + b"\x00"
                   + canonical_json(attrs))
        return _tag(self._key, b"edge", payload)

    def _aggregate(self, node_tags: Dict[str, bytes],
                   edge_tags: Dict[Tuple[str, str], bytes]) -> bytes:
        h = hashlib.sha256()
        for node in sorted(node_tags):
            h.update(node_tags[node])
        for edge in sorted(edge_tags):
            h.update(edge_tags[edge])
        return hmac.new(self._key, h.digest(), hashlib.sha256).digest()

    def authenticate(self, graph: nx.DiGraph) -> GraphAuthTag:
        """Produce tags for every node and edge plus an aggregate."""
        node_tags = {n: self._node_tag(n, dict(graph.nodes[n]))
                     for n in graph.nodes}
        edge_tags = {(u, v): self._edge_tag(u, v, dict(graph.edges[u, v]))
                     for u, v in graph.edges}
        return GraphAuthTag(node_tags, edge_tags,
                            self._aggregate(node_tags, edge_tags))

    def verify(self, graph: nx.DiGraph, tags: GraphAuthTag) -> bool:
        """Verify a complete graph against its tags."""
        if set(graph.nodes) != set(tags.node_tags):
            return False
        if {(u, v) for u, v in graph.edges} != set(tags.edge_tags):
            return False
        for n in graph.nodes:
            if not hmac.compare_digest(
                    self._node_tag(n, dict(graph.nodes[n])), tags.node_tags[n]):
                return False
        for u, v in graph.edges:
            if not hmac.compare_digest(
                    self._edge_tag(u, v, dict(graph.edges[u, v])),
                    tags.edge_tags[(u, v)]):
                return False
        recomputed = self._aggregate(tags.node_tags, tags.edge_tags)
        return hmac.compare_digest(recomputed, tags.aggregate)

    def verify_subgraph(self, subgraph: nx.DiGraph, tags: GraphAuthTag) -> bool:
        """Verify a vertex-induced subgraph shared in parts.

        Every node/edge present must carry a valid tag; elements of the
        original graph that are absent are simply not checked (that is the
        point of sharing in parts).
        """
        for n in subgraph.nodes:
            if n not in tags.node_tags:
                return False
            if not hmac.compare_digest(
                    self._node_tag(n, dict(subgraph.nodes[n])), tags.node_tags[n]):
                return False
        for u, v in subgraph.edges:
            if (u, v) not in tags.edge_tags:
                return False
            if not hmac.compare_digest(
                    self._edge_tag(u, v, dict(subgraph.edges[u, v])),
                    tags.edge_tags[(u, v)]):
                return False
        return True

    def require(self, graph: nx.DiGraph, tags: GraphAuthTag) -> None:
        if not self.verify(graph, tags):
            raise IntegrityError("graph integrity verification failed")
