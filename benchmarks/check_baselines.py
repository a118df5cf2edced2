"""Check the committed simulated outputs of the benchmarks.

Reruns each of the P1 and P3–P10 benches in ``--quick`` mode into a
temporary file and byte-compares it with its committed copy under
``benchmarks/baselines/``.  Every field that differs is printed as a
dotted path with the committed and the fresh value.  Then runs each
``perfbench`` workload to its sim digest, on the seed recorded in
``baselines/perfbench_digests.json``, and compares the digest that
``perfbench/run.py`` prints with the committed one.  Last, runs each
``examples/*.py`` script and byte-compares its stdout with
``baselines/examples/<name>.txt``, printing the first line that differs.
The script exits non-zero on any difference or on a run that fails.  A
change that moves simulated output regenerates the committed files in the
same commit, so ``git diff`` records what moved::

    PYTHONPATH=src python benchmarks/check_baselines.py
"""

import json
import os
import re
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BASELINES = HERE / "baselines"
ROOT = HERE.parent
SRC = ROOT / "src"
PERFBENCH_DIGESTS = BASELINES / "perfbench_digests.json"
EXAMPLES = ROOT / "examples"

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


def source_env():
    """The environment with ``src/`` first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def check(bench, output, workdir):
    """Run one bench; return the lines describing how it differs."""
    fresh_path = Path(workdir) / output
    run = subprocess.run(
        [sys.executable, str(HERE / f"{bench}.py"), "--quick",
         "--output", str(fresh_path)],
        cwd=workdir, env=source_env(), stdout=subprocess.PIPE,
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


def check_perfbench(workload, seed, committed):
    """Run one perfbench workload up to its sim digest (``--seconds 0``
    stops right after it); return the lines describing how it differs."""
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if run.returncode != 0:
        return [f"exited {run.returncode}:", run.stdout[-2000:]]
    printed = re.search(r"; sim digest (\w+)$", run.stdout, re.MULTILINE)
    if printed is None:
        return ["printed no sim digest"]
    if printed.group(1) != committed:
        return [f"sim digest (seed {seed}): {committed!r} -> "
                f"{printed.group(1)!r}"]
    return []


def check_example(script):
    """Run one example; return the lines describing how its stdout
    differs from the committed copy: the first line that differs."""
    run = subprocess.run([sys.executable, str(script)], cwd=ROOT,
                         env=source_env(), stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE)
    if run.returncode != 0:
        return [f"exited {run.returncode}:",
                run.stderr.decode(errors="replace")[-2000:]]
    committed_path = BASELINES / "examples" / f"{script.stem}.txt"
    if not committed_path.exists():
        return [f"no committed stdout at {committed_path.relative_to(ROOT)}"]
    committed = committed_path.read_bytes()
    if committed == run.stdout:
        return []
    pairs = zip_longest(committed.decode().splitlines(),
                        run.stdout.decode(errors="replace").splitlines())
    for number, (old, new) in enumerate(pairs, start=1):
        if old != new:
            return [f"line {number}: {old!r} -> {new!r}"]
    return ["same lines, different bytes (line endings)"]


def report(name, lines):
    """Print one output's verdict and its differences; True if it differs."""
    print(f"{name}: {'differs' if lines else 'identical'}", flush=True)
    for line in lines:
        print(f"    {line}")
    return bool(lines)


def main():
    perfbench = json.loads(PERFBENCH_DIGESTS.read_text())
    verdicts = []
    with tempfile.TemporaryDirectory() as workdir:
        for bench, output in BENCHES:
            verdicts.append(report(bench, check(bench, output, workdir)))
    for workload, digest in perfbench["digests"].items():
        verdicts.append(report(f"perfbench {workload}", check_perfbench(
            workload, perfbench["seed"], digest)))
    for script in sorted(EXAMPLES.glob("*.py")):
        verdicts.append(report(f"example {script.stem}",
                               check_example(script)))
    failed = sum(verdicts)
    if failed:
        print(f"{failed} of {len(verdicts)} outputs differ from "
              f"{BASELINES.relative_to(ROOT)}/")
        return 1
    print(f"all {len(verdicts)} outputs match their baselines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
