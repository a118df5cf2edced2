"""Canonical JSON for hashed and signed structures.

Sorted keys and no whitespace, so equal values give equal bytes in every
process, which hashes and signatures over them need.  One module-level
encoder serves every call; it is the encoder ``json.dumps(obj,
sort_keys=True, separators=(",", ":"))`` would build per call, so the
bytes are the same.
"""

from __future__ import annotations

import json
from typing import Any

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> bytes:
    """Canonical JSON bytes of ``obj``; raises ``TypeError`` or
    ``ValueError`` as ``json.dumps`` does for values JSON cannot hold."""
    return _ENCODER.encode(obj).encode()
