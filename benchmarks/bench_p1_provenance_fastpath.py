"""P1: the provenance fast path (Merkle-batched endorsement + CRT RSA).

The seed measured E1's pipeline at ~11x slower with provenance on than
off: every per-stage event was its own endorsed transaction, and every
endorsement a schoolbook RSA signature.  This benchmark measures the two
fixes head-on:

* sweep the ingestion provenance batch size over {1, 4, 16, 64} and show
  the per-event endorsement cost collapsing into one Merkle-batched
  transaction per flush;
* three-prime CRT private-key operations (three third-size exponentiations
  and a two-step Garner recombination) against the schoolbook baseline at
  the platform's 1024-bit key size.

Standalone mode for CI::

    PYTHONPATH=src python benchmarks/bench_p1_provenance_fastpath.py --quick

It writes two files.  ``--output`` (``BENCH_provenance.json``) holds only
simulated fields, so two runs of one tree are byte-identical and the
``--quick`` file is committed under ``benchmarks/baselines/``.  The wall
timings go beside it, to the same name with a ``_wall`` suffix
(``BENCH_provenance_wall.json``), which is never committed.
"""

import argparse
import json
import time
from pathlib import Path

import pytest

from repro import HealthCloudPlatform
from repro.crypto.rsa import (
    generate_keypair,
    rsa_decrypt,
    rsa_encrypt,
    rsa_sign,
)
from repro.fhir import Bundle, Observation, Patient
from repro.ingestion import encrypt_bundle_for_upload

try:
    from conftest import show
except ImportError:  # standalone main(), outside pytest's conftest path
    def show(title, rows):
        print(f"\n=== {title}")
        for row in rows:
            print("   ", row)

N_BUNDLES = 40
BATCH_SIZES = (1, 4, 16, 64)
MAX_OVERHEAD_X = 3.0      # provenance-on must stay within 3x of off
MIN_CRT_SPEEDUP = 2.5     # CRT vs schoolbook at 1024 bits


def _build_platform(with_blockchain, batch_size, n_bundles=N_BUNDLES):
    platform = HealthCloudPlatform(seed=11, use_blockchain=with_blockchain,
                                   provenance_batch_size=batch_size)
    context = platform.register_tenant("bench")
    group = platform.rbac.create_group(context.tenant.tenant_id, "study")
    registration = platform.ingestion.register_client("bench-client")
    envelopes = []
    for i in range(n_bundles):
        pid = f"pt-{i:04d}"
        platform.consent.grant(pid, group.group_id)
        bundle = Bundle(id=f"b-{i}")
        bundle.add(Patient(id=pid, name={"family": f"F{i}"},
                           birthDate="1975-05-05", gender="female",
                           address={"state": "NY"}))
        bundle.add(Observation(id=f"{pid}-o", code={"text": "HbA1c"},
                               subject=f"Patient/{pid}",
                               valueQuantity={"value": 6.5, "unit": "%"}))
        envelopes.append(encrypt_bundle_for_upload(bundle, registration))
    return platform, group, envelopes


def _run_pipeline(with_blockchain, batch_size, n_bundles=N_BUNDLES):
    """One full build + ingest; returns (wall seconds, sim seconds, platform)."""
    start = time.perf_counter()
    platform, group, envelopes = _build_platform(with_blockchain, batch_size,
                                                 n_bundles)
    for envelope in envelopes:
        platform.ingestion.upload("bench-client", envelope, group.group_id)
    platform.run_ingestion()
    elapsed = time.perf_counter() - start
    assert platform.monitoring.metrics.counter(
        "ingestion.stored") == n_bundles
    return elapsed, platform.clock.now, platform


def _best_run(with_blockchain, batch_size, repeats, n_bundles=N_BUNDLES):
    """Best-of-N wall clock (robust against scheduler noise)."""
    walls, sims = [], []
    for _ in range(repeats):
        wall, sim, _ = _run_pipeline(with_blockchain, batch_size, n_bundles)
        walls.append(wall)
        sims.append(sim)
    return min(walls), min(sims)


def _best_of(runs, repeats):
    """Best-of-N seconds of each run in ``runs`` (name -> a function that
    returns the seconds it took), the runs taking turns.

    Every round runs each once, in the reverse order of the round
    before, so a change in host speed while they are measured reaches
    every side of a ratio alike instead of the side measured last.
    """
    best = dict.fromkeys(runs, float("inf"))
    order = list(runs)
    for _ in range(repeats):
        for name in order:
            best[name] = min(best[name], runs[name]())
        order.reverse()
    return best


def _timed(fn):
    """A run of ``fn`` that returns the seconds it took."""
    def run():
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    return run


def _crt_measurements(repeats):
    """Best-of-N sign/decrypt timings, CRT vs schoolbook, 1024-bit."""
    keypair = generate_keypair(bits=1024, seed=11)
    message = b"provenance fast path" * 8
    ciphertext = rsa_encrypt(keypair.public_key(), b"data-key-material-32b!!")
    return _best_of({
        "sign_crt_s": _timed(
            lambda: rsa_sign(keypair, message, use_crt=True)),
        "sign_schoolbook_s": _timed(
            lambda: rsa_sign(keypair, message, use_crt=False)),
        "decrypt_crt_s": _timed(
            lambda: rsa_decrypt(keypair, ciphertext, use_crt=True)),
        "decrypt_schoolbook_s": _timed(
            lambda: rsa_decrypt(keypair, ciphertext, use_crt=False)),
    }, repeats)


@pytest.mark.benchmark(group="p1-provenance-fastpath")
def test_p1_batch_size_sweep(benchmark):
    """Wall clock vs provenance batch size: the overhead collapses."""
    sweep = {bs: _best_run(True, bs, repeats=2) for bs in BATCH_SIZES}
    off_wall, _ = _best_run(False, 16, repeats=2)

    def run_default():
        return _run_pipeline(with_blockchain=True, batch_size=16)

    benchmark.pedantic(run_default, rounds=2, iterations=1)
    for bs, (wall, sim) in sweep.items():
        benchmark.extra_info[f"wall_s_batch_{bs}"] = wall
        benchmark.extra_info[f"sim_s_batch_{bs}"] = sim
    benchmark.extra_info["wall_s_provenance_off"] = off_wall
    show("P1: ingestion wall clock vs provenance batch size "
         f"({N_BUNDLES} bundles)",
         [f"batch={bs:>2}: wall {wall:.3f} s, simulated {sim * 1e3:.1f} ms, "
          f"overhead {wall / off_wall:.2f}x"
          for bs, (wall, sim) in sweep.items()]
         + [f"provenance off: wall {off_wall:.3f} s"])
    # Batching must actually pay: the fast path beats per-event txs.
    assert sweep[16][0] < sweep[1][0]
    # And the simulated consensus latency shrinks with batching too.
    assert sweep[16][1] < sweep[1][1]


@pytest.mark.benchmark(group="p1-provenance-fastpath")
def test_p1_fastpath_within_3x_of_provenance_off(benchmark):
    """Acceptance: batch=16 full pipeline stays within 3x provenance-off
    (the seed measured ~11x)."""
    sims = []

    def provenance_on():
        wall, sim, _ = _run_pipeline(True, 16)
        sims.append(sim)
        return wall

    walls = _best_of({"on": provenance_on,
                      "off": lambda: _run_pipeline(False, 16)[0]},
                     repeats=3)
    on_wall, off_wall, on_sim = walls["on"], walls["off"], min(sims)

    def run():
        return _run_pipeline(with_blockchain=True, batch_size=16)

    benchmark.pedantic(run, rounds=2, iterations=1)
    overhead = on_wall / off_wall
    benchmark.extra_info["overhead_x"] = overhead
    benchmark.extra_info["wall_s_on"] = on_wall
    benchmark.extra_info["wall_s_off"] = off_wall
    show("P1: provenance overhead (batch=16)",
         [f"with provenance: {on_wall:.3f} s (simulated {on_sim * 1e3:.1f} ms)",
          f"without:         {off_wall:.3f} s",
          f"overhead:        {overhead:.2f}x (budget {MAX_OVERHEAD_X}x)"])
    assert overhead <= MAX_OVERHEAD_X


@pytest.mark.benchmark(group="p1-provenance-fastpath")
def test_p1_crt_private_key_speedup(benchmark):
    """Acceptance: CRT sign/decrypt >= 2.5x schoolbook at 1024 bits."""
    timings = _crt_measurements(repeats=40)
    keypair = generate_keypair(bits=1024, seed=11)
    message = b"provenance fast path" * 8
    benchmark.pedantic(lambda: rsa_sign(keypair, message),
                       rounds=20, iterations=5)
    sign_speedup = timings["sign_schoolbook_s"] / timings["sign_crt_s"]
    decrypt_speedup = (timings["decrypt_schoolbook_s"]
                       / timings["decrypt_crt_s"])
    benchmark.extra_info["sign_speedup_x"] = sign_speedup
    benchmark.extra_info["decrypt_speedup_x"] = decrypt_speedup
    show("P1: three-prime CRT vs schoolbook RSA (1024-bit, best-of-40)",
         [f"sign:    {timings['sign_schoolbook_s'] * 1e3:.2f} ms -> "
          f"{timings['sign_crt_s'] * 1e3:.2f} ms ({sign_speedup:.2f}x)",
          f"decrypt: {timings['decrypt_schoolbook_s'] * 1e3:.2f} ms -> "
          f"{timings['decrypt_crt_s'] * 1e3:.2f} ms ({decrypt_speedup:.2f}x)"])
    assert sign_speedup >= MIN_CRT_SPEEDUP
    assert decrypt_speedup >= MIN_CRT_SPEEDUP


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Provenance fast-path benchmark (writes JSON for CI)")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, fewer repeats")
    parser.add_argument("--output", default="BENCH_provenance.json")
    args = parser.parse_args(argv)

    n_bundles = 10 if args.quick else N_BUNDLES
    repeats = 1 if args.quick else 3
    crt_repeats = 10 if args.quick else 40

    sim = {"n_bundles": n_bundles, "quick": args.quick, "batch_sizes": {}}
    wall = {"n_bundles": n_bundles, "quick": args.quick, "batch_sizes": {}}
    for bs in BATCH_SIZES:
        wall_s, sim_s = _best_run(True, bs, repeats, n_bundles)
        sim["batch_sizes"][str(bs)] = {"sim_s": round(sim_s, 6)}
        wall["batch_sizes"][str(bs)] = {"wall_s": round(wall_s, 4)}
        print(f"batch={bs:>2}: wall {wall_s:.3f} s, "
              f"simulated {sim_s * 1e3:.1f} ms")
    off_wall, _ = _best_run(False, 16, repeats, n_bundles)
    wall["provenance_off_wall_s"] = round(off_wall, 4)
    overhead = wall["batch_sizes"]["16"]["wall_s"] / off_wall
    wall["overhead_x_at_16"] = round(overhead, 3)
    print(f"provenance off: {off_wall:.3f} s -> overhead {overhead:.2f}x "
          f"at batch=16")

    timings = _crt_measurements(crt_repeats)
    wall["crt"] = {k: round(v, 6) for k, v in timings.items()}
    wall["crt"]["sign_speedup_x"] = round(
        timings["sign_schoolbook_s"] / timings["sign_crt_s"], 3)
    wall["crt"]["decrypt_speedup_x"] = round(
        timings["decrypt_schoolbook_s"] / timings["decrypt_crt_s"], 3)
    print(f"CRT sign speedup {wall['crt']['sign_speedup_x']}x, "
          f"decrypt speedup {wall['crt']['decrypt_speedup_x']}x")

    output = Path(args.output)
    wall_output = output.with_name(f"{output.stem}_wall{output.suffix}")
    for path, fields in ((output, sim), (wall_output, wall)):
        with open(path, "w") as handle:
            json.dump(fields, handle, indent=2, sort_keys=True)
        print(f"wrote {path}")
    return sim, wall


if __name__ == "__main__":
    main()
