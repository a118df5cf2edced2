"""The benchmark's workloads, imported lazily by name.

Each workload class builds its platform and inputs from a seed in its
constructor (the set-up phase), drives a closed loop with one client in
``run(seconds, recorder)`` and takes its sim digest after a fixed number
of ops, checks the outputs in ``check()``, and reports the library's own
counters in ``counts(ops)``.
"""

import importlib

WORKLOADS = {
    "ingest": ("ingest", "IngestWorkload"),
    "query": ("query", "QueryWorkload"),
    "stream": ("stream", "StreamWorkload"),
}


def load(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(f"{__name__}.{module}"), cls)
