"""Check the committed simulated outputs of the P1 and P3–P10 benchmarks.

Reruns each bench in ``--quick`` mode into a temporary file and
byte-compares it with its committed copy under ``benchmarks/baselines/``.
Every field that differs is printed as a dotted path with the committed
and the fresh value, and the script exits non-zero on any difference or
on a bench that fails.  A change that moves simulated output regenerates
the committed files in the same commit, so ``git diff`` records what
moved::

    PYTHONPATH=src python benchmarks/check_baselines.py
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINES = HERE / "baselines"
SRC = HERE.parent / "src"

# bench script -> the JSON it writes with ``--quick``.
BENCHES = (
    ("bench_p1_provenance_fastpath", "BENCH_provenance.json"),
    ("bench_p3_chaos", "BENCH_chaos.json"),
    ("bench_p4_readpath", "BENCH_readpath.json"),
    ("bench_p5_tracing", "BENCH_tracing.json"),
    ("bench_p6_writepath", "BENCH_writepath.json"),
    ("bench_p7_healthplane", "BENCH_healthplane.json"),
    ("bench_p8_compute", "BENCH_compute.json"),
    ("bench_p9_streaming", "BENCH_streaming.json"),
    ("bench_p10_federation", "BENCH_federation.json"),
)


def field_diffs(committed, fresh, path="$"):
    """``(path, committed, fresh)`` for every leaf where the two differ."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        diffs = []
        for key in sorted(set(committed) | set(fresh)):
            where = f"{path}.{key}"
            if key not in fresh:
                diffs.append((where, committed[key], "<missing>"))
            elif key not in committed:
                diffs.append((where, "<missing>", fresh[key]))
            else:
                diffs.extend(field_diffs(committed[key], fresh[key], where))
        return diffs
    if (isinstance(committed, list) and isinstance(fresh, list)
            and len(committed) == len(fresh)):
        diffs = []
        for index, (old, new) in enumerate(zip(committed, fresh)):
            diffs.extend(field_diffs(old, new, f"{path}[{index}]"))
        return diffs
    if committed == fresh and type(committed) is type(fresh):
        return []
    return [(path, committed, fresh)]


def check(bench, output, workdir):
    """Run one bench; return the lines describing how it differs."""
    fresh_path = Path(workdir) / output
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, str(HERE / f"{bench}.py"), "--quick",
         "--output", str(fresh_path)],
        cwd=workdir, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    if run.returncode != 0:
        return [f"exited {run.returncode}:", run.stdout[-2000:]]
    committed_bytes = (BASELINES / output).read_bytes()
    fresh_bytes = fresh_path.read_bytes()
    if committed_bytes == fresh_bytes:
        return []
    diffs = field_diffs(json.loads(committed_bytes), json.loads(fresh_bytes))
    if not diffs:
        return ["same fields, different bytes (formatting or key order)"]
    return [f"{where}: {old!r} -> {new!r}" for where, old, new in diffs]


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as workdir:
        for bench, output in BENCHES:
            lines = check(bench, output, workdir)
            print(f"{bench}: {'differs' if lines else 'identical'}",
                  flush=True)
            for line in lines:
                print(f"    {line}")
            failed += bool(lines)
    if failed:
        print(f"{failed} of {len(BENCHES)} outputs differ from "
              f"{BASELINES.relative_to(HERE.parent)}/")
        return 1
    print(f"all {len(BENCHES)} outputs match their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
