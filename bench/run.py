"""Benchmark for the dualities library.

    python3 bench/run.py --workload search|algebra|cli --seed N --seconds S --trace 0|1

Run from the repository root.  One caller runs the workload's queries in
a closed loop, in rounds; each round visits every query once, in a seeded
shuffled order.  Only the library call is timed; every verdict and
witness is re-checked right after, outside the timed interval.  A query's
latency is the median of its rounds.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
rounds alternate and the per-layer metrics are printed instead.  A
results file with the run's environment goes to ``.bench_out/results``.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import collections
import gc
import itertools
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
MIN_ROUNDS = 3  # per mode; the per-query median needs at least three samples
# The host's speed drifts by up to 1.6x over seconds, and a pure-Python
# reference kernel drifts with it.  Every timing is therefore scaled by
# REF_S / (kernel time measured next to it): times are reported in seconds
# of a host on which the kernel takes REF_S, about this kernel's time on a
# quiet 2-vCPU x86-64 host with CPython 3.11.
REF_S = 0.0005


def load_library():
    """Import dualities from this checkout's src/, or exit with status 1."""
    src = ROOT / "src"
    if not (src / "dualities" / "__init__.py").is_file():
        sys.exit(f"bench: no dualities package under {src}")
    sys.path.insert(0, str(src))
    import dualities
    from dualities import algebras, cli, complexes, gf2, graphs, matroids

    if Path(dualities.__file__).resolve().parent != (src / "dualities").resolve():
        sys.exit(f"bench: imported dualities from {dualities.__file__}, not from {src}")
    return types.SimpleNamespace(
        matroids=matroids, graphs=graphs, complexes=complexes, gf2=gf2, algebras=algebras, cli=cli
    )


def setup(args):
    """Import, generate and write the inputs, build the named objects."""
    lib = load_library()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    queries = workloads.build(args.workload, args.seed, lib, str(workdir), tiny=args.tiny)
    return lib, queries, workdir


def setup_probe(args) -> float:
    """Seconds from the start of a fresh process to its first query."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--tiny"] if args.tiny else [])
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError("setup probe failed")
    return ready - start


def ref_kernel():
    """Fixed pure-Python work (bit masks, frozensets, a dict, Fractions),
    the same kinds of operations the library spends its time on."""
    seen = {}
    for combo in itertools.combinations(range(12), 4):
        m = 0
        for e in combo:
            m |= 1 << e
        seen[m] = frozenset(combo)
    t = Fraction(0)
    for i in range(1, 25):
        t += Fraction(i, 7) * Fraction(3, i + 1)
    return len(seen), t


def ref_time() -> float:
    start = time.perf_counter()
    ref_kernel()
    return time.perf_counter() - start


def run_round(queries, order, tracer, verdicts):
    """One pass over the queries.

    Returns (latencies, scales, kernel times, failures, undecided).
    ``scales[i]`` is REF_S over the reference kernel's time around query i:
    the median of the four kernel runs nearest to it, one taken between
    every two queries.
    """
    raw = [0.0] * len(queries)
    refs = [ref_time()]
    failed, undecided = [], 0
    clock = time.perf_counter
    for i in order:
        q = queries[i]
        args = q.prepare()
        start = clock()
        try:
            outcome = ("ok", q.call(*args) if tracer is None else tracer.run_query(i, q.call, args))
        except (Exception, SystemExit) as exc:
            outcome = ("raise", exc)
        raw[i] = clock() - start
        refs.append(ref_time())
        key = outcome if outcome[0] == "ok" else ("raise", type(outcome[1]).__name__, str(outcome[1]))
        seen = verdicts.get(i)
        if seen is not None and seen[0] == key:
            reason = seen[1]
        else:
            reason = q.check(outcome)
            verdicts[i] = (key, reason)
        if reason is not None:
            failed.append((i, q.kind, reason))
        undecided += bool(q.undecided(outcome))
    scales = [0.0] * len(queries)
    for k, i in enumerate(order):
        scales[i] = REF_S / statistics.median(refs[max(0, k - 1) : k + 3])
    return raw, scales, refs, failed, undecided


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="one query per shape (smoke test)")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_only:
        _, _, workdir = setup(args)
        print("ready", flush=True)
        shutil.rmtree(workdir, ignore_errors=True)
        return 0

    result = run(args)
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    lib, queries, workdir = setup(args)
    own_setup = time.perf_counter() - T0
    try:
        return measure(args, lib, queries, own_setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, lib, queries, own_setup) -> dict:
    """Run rounds until ``args.seconds`` is used up.

    Untraced runs also take setup samples between rounds, spread over the
    run.  Their median is scaled once, by the run's median kernel time,
    which follows the host's drift; scaling each sample by the kernel runs
    next to it instead tripled their spread."""
    import tracing

    tracer = tracing.Tracer(lib) if args.trace else None
    modes = ["plain", "traced"] if args.trace else ["plain"]
    rounds = {m: [] for m in modes}  # mode -> list of (scaled latencies, wall seconds)
    traced_rounds = []
    failures, undecided, attempted = [], 0, 0
    verdicts: dict = {}
    spans_path = None
    setup_samples: list[float] = []
    kernel_s: list[float] = []  # every reference-kernel time of the untraced rounds
    probes = SETUP_SAMPLES if args.trace == 0 else 0
    begin = time.perf_counter()
    deadline = begin + args.seconds
    n = 0
    while True:
        while len(setup_samples) < min(probes, 1 + probes * (time.perf_counter() - begin) / args.seconds):
            setup_samples.append(setup_probe(args))
        mode = modes[n % len(modes)]
        if all(len(rounds[m]) >= MIN_ROUNDS for m in modes):
            last = max(r[1] for m in modes for r in rounds[m][-1:])
            if time.perf_counter() + last > deadline:
                break
        order = list(range(len(queries)))
        random.Random(f"order:{args.seed}:{n}").shuffle(order)
        gc.collect()
        start = time.perf_counter()
        if mode == "traced":
            tracer.install()
            try:
                raw, scales, refs, failed, und = run_round(queries, order, tracer, verdicts)
            finally:
                tracer.uninstall()
            if spans_path is None:
                spans_path = OUT / "trace" / f"{args.workload}-seed{args.seed}.tsv"
                spans_path.parent.mkdir(parents=True, exist_ok=True)
                with open(spans_path, "w", encoding="utf-8") as fh:
                    fh.writelines(tracing.span_lines(tracer.spans))
            traced_rounds.append(tracer.take_round(scales))
        else:
            raw, scales, refs, failed, und = run_round(queries, order, None, verdicts)
            kernel_s += refs
        rounds[mode].append(([t * k for t, k in zip(raw, scales)], time.perf_counter() - start))
        failures += failed
        undecided += und
        attempted += len(queries)
        n += 1

    while len(setup_samples) < probes:
        setup_samples.append(setup_probe(args))
    plain = rounds["plain"]
    per_query = [statistics.median(r[0][i] for r in plain) for i in range(len(queries))]
    cuts = statistics.quantiles(per_query, n=10, method="inclusive")
    timed = [sum(r[0]) for r in plain]
    wrong = [f for f in failures if queries[f[0]].well_formed]
    e2e = {
        "setup_s": (statistics.median(setup_samples) * REF_S / statistics.median(kernel_s) if setup_samples else own_setup, "s"),
        "throughput_qps": (len(queries) / sum(per_query), "1/s"),
        "latency_p50_ms": (cuts[4] * 1e3, "ms"),
        "latency_p90_ms": (cuts[8] * 1e3, "ms"),
        "ok_share": (1 - len(failures) / attempted, "share"),
        "decided_share": (1 - undecided / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    if args.trace:
        traced_timed = [sum(r[0]) for r in rounds["traced"]]
        overhead = statistics.median(traced_timed) / statistics.median(timed) - 1
        metrics = tracing.summarize(traced_rounds, overhead)
    else:
        metrics = e2e

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "queries": len(queries),
        "queries_by_kind": dict(collections.Counter(q.kind for q in queries)),
        "rounds": {m: len(rounds[m]) for m in modes},
        "samples": {
            "setup_s": len(setup_samples) or 1,
            "latency per query": len(plain),
            "latency quantiles over queries": len(queries),
        },
        "setup_samples_s": setup_samples,
        "kernel_median_s": statistics.median(kernel_s),
        "own_setup_s": own_setup,
        "timed_s_by_round": {m: [sum(r[0]) for r in rounds[m]] for m in modes},
        "failed_share": len(failures) / attempted,
        "undecided_share": undecided / attempted,
        "failures": sorted({(k, r) for _, k, r in failures})[:40],
        "query_median_ms": [[q.kind, round(t * 1e3, 4)] for q, t in zip(queries, per_query)],
        "spans_file": str(spans_path.relative_to(ROOT)) if spans_path else None,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **metrics}.items()},
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1, default=str)
    print(
        f"{args.workload}: {len(queries)} queries x {info['rounds']} rounds, "
        f"failed_share={info['failed_share']:.4f} undecided_share={info['undecided_share']:.4f}",
        file=sys.stderr,
    )
    for kind, reason in info["failures"]:
        print(f"  failed {kind}: {reason}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
