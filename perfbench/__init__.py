"""Wall-clock benchmark of the platform; run it with ``perfbench/run.py``."""
