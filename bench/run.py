"""spherig benchmark: end-to-end metrics untraced, per-layer metrics traced.

Run from the repository root:

    python3 bench/run.py --workload rank-queries --seed 7 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, untraced

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits 2 and prints no result.  Each workload
runs in this one process on one thread, and its times are scaled to nominal
machine speed (speed.py).  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 1 when a correctness check failed.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from spans import Recorder, Summary
from speed import SpeedSampler, slowdown_now
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"

DEFAULT_SEED = 20260823  # the acceptance gate's seed and the ROADMAP baseline's
DEFAULT_SECONDS = 20
# Fresh interpreters timed for setup_s, (fewest, most): more than the fewest
# only while their total stays under SETUP_BUDGET_S (verify-default and
# flip-walks set up in about 0.15 s, rank-queries in about 3 s).
SETUP_SAMPLES = (3, 7)
SETUP_BUDGET_S = 2.0
# Each query runs at least this often, so its median time ignores one slow
# moment of a shared machine.
MIN_PASSES = 3
CHILD_TIMEOUT = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

# The known counts of one verify-default pass at DEFAULT_SEED, taken at the
# commit that introduced this benchmark.  A traced run at that seed prints
# how its counts compare; later changes may move them on purpose, so the
# comparison is information, not a correctness check.
REFERENCE_COUNTS = {
    "rigidity.decide_rigidity.calls": 3653,
    "rigidity.decide_rigidity.distinct": 1525,
    "rigidity.rank_mod.calls": 4011,
    "complexes.missing_faces.calls": 145,
    "complexes.missing_faces.distinct": 45,
}
REFERENCE_VERDICTS = {"pass": 3033, "skip": 133}

# ROADMAP baseline: per check kind, records and the sum of record elapsed
# (untraced), next to the harness function that produces the kind.
ROADMAP_CHECK_KINDS = (
    ("minus_edge", 805, 1.86, "harness.verify_minus_edge"),
    ("missing_face", 319, 1.23, "harness.verify_missing_face_lemma"),
    ("star_rigidity", 1523, 0.92, "harness.verify_star_rigidity"),
    ("contraction", 488, 0.48, "harness.verify_contraction_reduction"),
    ("g2_stress", 31, 0.06, "harness.verify_g2_stress"),
)

# missing_faces self time by the complex's vertex count, (label, lowest, highest)
MISSING_FACES_BUCKETS = (("v0-7", 0, 7), ("v8-11", 8, 11), ("v12-14", 12, 14), ("v15plus", 15, math.inf))

SPAN_STATS = (
    ("rigidity.rank_mod", ("calls", "self_s")),
    ("rigidity.decide_rigidity", ("calls", "self_s")),
    ("rigidity.RigidityMatrix", ("calls", "self_s")),
    ("rigidity.random_embedding", ("calls", "self_s")),
    ("complexes.missing_faces", ("calls", "self_s")),
    ("complexes.has_face", ("calls",)),
    ("complexes.link", ("calls", "self_s")),
    ("complexes.faces_of_dim", ("calls", "self_s")),
    ("generators.random_flip_walk", ("calls", "self_s")),
    ("generators.legal_flips", ("calls", "self_s")),
    ("generators.bistellar_flip", ("calls", "self_s")),
    ("generators.cyclic_polytope_boundary", ("calls", "self_s")),
    ("graphs.graph_of", ("calls", "self_s")),
    ("graphs.Graph.remove_edge", ("calls", "self_s")),
    ("certificates.check", ("calls", "self_s")),
    ("certificates.certify_star_rigidity", ("calls", "self_s")),
    ("certificates.certify_missing_face_edge", ("calls", "self_s")),
    ("harness.verify_minus_edge", ("total_s", "self_s")),
    ("harness.verify_missing_face_lemma", ("total_s", "self_s")),
    ("harness.verify_star_rigidity", ("total_s", "self_s")),
    ("harness.verify_g2_stress", ("total_s", "self_s")),
    ("harness.verify_contraction_reduction", ("total_s", "self_s")),
    ("harness.build_corpus", ("total_s", "self_s")),
    ("harness.flip_walk_corpus", ("total_s", "self_s")),
    ("harness.run_suite", ("total_s", "self_s")),
    ("cli.main", ("self_s",)),
)


def import_spherig() -> None:
    """Put the checkout's src/ first on the path and import spherig from it."""
    if not (SRC / "spherig" / "__init__.py").is_file():
        fail_usage(f"no spherig package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import spherig

    if Path(spherig.__file__).resolve().parent != (SRC / "spherig").resolve():
        fail_usage(f"spherig was imported from {spherig.__file__}, not from {SRC}")


def fail_usage(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def child(workload: str, seed: int, phase: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--phase", phase],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
        check=True,
    )


def measure_setup(workload: str, seed: int) -> tuple[float, float, int]:
    """Seconds from a fresh interpreter to spherig imported and inputs built.

    Each child is timed whole and scaled by the machine's slowdown measured
    just before and just after it.  Returns the median at nominal speed, the
    raw median and the number of interpreters timed.
    """
    lo, hi = SETUP_SAMPLES
    raw: list[float] = []
    normalised: list[float] = []
    while len(raw) < lo or (len(raw) < hi and sum(raw) < SETUP_BUDGET_S):
        before = slowdown_now()
        t0 = time.perf_counter()
        child(workload, seed, "setup")
        raw.append(time.perf_counter() - t0)
        normalised.append(raw[-1] / ((before + slowdown_now()) / 2))
    return statistics.median(normalised), statistics.median(raw), len(raw)


def timed_passes(wl, inputs, seconds: float) -> tuple[list, list[list[float]]]:
    """Repeat passes while another one fits in `seconds`, at least MIN_PASSES.

    Returns the passes and, per pass, each query's machine slowdown.
    """
    passes, slowdowns = [], []
    elapsed = 0.0
    with SpeedSampler() as speed:
        while True:
            p = wl.run_pass(inputs, speed.clock)
            slowdowns.append(
                [speed.slowdown_around(t, t + lat) for t, lat in zip(p.starts, p.latencies)]
            )
            passes.append(p)
            elapsed += p.seconds
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
                return passes, slowdowns


def percentile(samples: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, -(-pct * len(ordered) // 100) - 1)]


def per_query_medians(passes, slowdowns=None) -> list[float]:
    """Each query's median time over the passes, divided by its slowdowns if given."""
    if slowdowns is None:
        slowdowns = [[1.0] * len(p.latencies) for p in passes]
    scaled = [[lat / f for lat, f in zip(p.latencies, fs)] for p, fs in zip(passes, slowdowns)]
    return [statistics.median(times) for times in zip(*scaled)]


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    setup_s, setup_raw, setup_samples = measure_setup(wl.name, seed)
    inputs = wl.setup(seed)
    passes, slowdowns = timed_passes(wl, inputs, seconds)
    attempted, failed, notes = wl.check(inputs, passes)
    per_query = per_query_medians(passes, slowdowns)
    raw = per_query_medians(passes)
    values = {
        "setup_s": setup_s,
        "items_per_s": passes[0].items / sum(per_query),
        "query_p50_ms": statistics.median(per_query) * 1e3,
        "query_p90_ms": percentile(per_query, 90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_ratio": (attempted - failed) / attempted,
    }
    notes = [
        f"{len(passes)} passes, {sum(p.seconds for p in passes):.2f} s timed, "
        f"{passes[0].items} items ({wl.item}) per pass; latency samples: {len(per_query)}, "
        f"each a {wl.query} timed as its median over the passes; "
        f"setup_s is the median of {setup_samples} fresh interpreters",
        "times are at nominal machine speed (see speed.py); mean machine slowdown per pass "
        + ", ".join(f"{statistics.fmean(fs):.3f}" for fs in slowdowns)
        + f"; raw wall-clock: setup_s {setup_raw:.4f}, items_per_s {passes[0].items / sum(raw):.4f}, "
        f"query_p50_ms {statistics.median(raw) * 1e3:.4f}, query_p90_ms {percentile(raw, 90) * 1e3:.4f}",
        *notes,
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, attempted, failed, notes


def traced_pass(wl, seed: int):
    """Set up and run one pass under a span recorder; returns (recorder, inputs, pass, wall)."""
    rec = Recorder()
    with rec:
        inputs = rec.span("bench.setup", wl.setup)(seed)
        t0 = time.perf_counter()
        result = rec.span("bench.pass", wl.run_pass)(inputs)
        wall = time.perf_counter() - t0
    return rec, inputs, result, wall


def layer_metrics(rec, overhead_ratio: float) -> tuple[dict, Summary]:
    s = Summary(rec)
    m: dict[str, tuple[float, str]] = {}
    for name, stats in SPAN_STATS:
        for stat in stats:
            if stat == "calls":
                m[f"{name}.calls"] = (s.calls[name], "count")
            elif stat == "self_s":
                m[f"{name}.self_s"] = (s.self_s(name), "s")
            else:
                m[f"{name}.total_s"] = (s.total_s(name), "s")

    ranks = s.indices("rigidity.rank_mod")
    decisions = s.indices("rigidity.decide_rigidity")
    distinct = len({rec.info[i] for i in decisions})
    m["rigidity.rank_mod.cells"] = (sum(rec.info[i] for i in ranks), "count")
    m["rigidity.decide_rigidity.distinct"] = (distinct, "count")
    m["rigidity.decide_rigidity.repeat_ratio"] = (
        1 - distinct / len(decisions) if decisions else 0.0,
        "ratio",
    )
    under_decision = sum(1 for i in ranks if s.ancestor(i, "rigidity.decide_rigidity") >= 0)
    m["rigidity.trials_past_first"] = (under_decision - len(decisions), "count")
    m["certificates.leaf_decisions"] = (
        sum(1 for i in decisions if s.ancestor(i, "certificates.check") >= 0),
        "count",
    )

    scans = s.indices("complexes.missing_faces")
    m["complexes.missing_faces.distinct"] = (len({rec.info[i][0] for i in scans}), "count")
    for label, lo, hi in MISSING_FACES_BUCKETS:
        bucket = [i for i in scans if lo <= rec.info[i][1] <= hi]
        m[f"complexes.missing_faces.calls.{label}"] = (len(bucket), "count")
        m[f"complexes.missing_faces.self_s.{label}"] = (
            sum(s.span_self_ns(i) for i in bucket) / 1e9,
            "s",
        )
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m, s


def count_metrics(metrics: dict) -> dict:
    """The metrics that must repeat exactly from one traced run to the next."""
    return {
        k: v
        for k, (v, unit) in metrics.items()
        if unit in ("count", "ratio") and not k.startswith("trace.")
    }


def per_layer(wl, seed: int) -> tuple[dict, int, int, list[str]]:
    rec, inputs, traced, traced_wall = traced_pass(wl, seed)
    untraced = wl.run_pass(inputs)
    attempted, failed, notes = wl.check(inputs, [traced, untraced])
    metrics, summary = layer_metrics(rec, traced_wall / untraced.seconds - 1)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{seed}.spans.tsv"
    rec.write(spans_path)
    notes.append(
        f"traced pass {traced_wall:.2f} s, untraced pass {untraced.seconds:.2f} s; "
        f"{len(rec.names)} spans written to {spans_path.relative_to(BENCH.parent)}"
    )

    counts = count_metrics(metrics)
    again = json.loads(child(wl.name, seed, "counts").stdout.splitlines()[-1])
    differing = sorted(k for k in counts if again.get(k) != counts[k])
    if differing:
        failed += 1
        notes.append("traced counts differ in a second traced run: " + ", ".join(differing))
    else:
        notes.append(f"all {len(counts)} traced counts repeat exactly in a second traced run")

    if wl.name == "verify-default":
        notes.extend(verify_notes(traced, summary, counts, seed))
    return metrics, attempted, failed, notes


def verify_notes(traced, summary, counts: dict, seed: int) -> list[str]:
    _, report = traced.outputs[0]
    lines = [line.split("\t") for line in report.splitlines()]
    kinds = Counter(fields[0] for fields in lines)
    notes = ["check kind     records  traced total_s  | ROADMAP records  time (untraced)"]
    for kind, roadmap_records, roadmap_s, fn in ROADMAP_CHECK_KINDS:
        notes.append(
            f"{kind:<14} {kinds[kind]:>7}  {summary.total_s(fn):>12.3f} s  |"
            f" {roadmap_records:>15}  {roadmap_s:>6.2f} s  ({fn})"
        )
    if seed == DEFAULT_SEED:
        verdicts = Counter(fields[2] for fields in lines)
        expected = {**REFERENCE_COUNTS, **{f"records.{v}": n for v, n in REFERENCE_VERDICTS.items()}}
        actual = {**counts, **{f"records.{v}": verdicts[v] for v in REFERENCE_VERDICTS}}
        for key, value in expected.items():
            state = "matches" if actual[key] == value else f"differs: {actual[key]}"
            notes.append(f"reference {key} = {value}: {state}")
    return notes


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=180)
        if not proc.stdout.strip():
            return proc.returncode or 1
        *body, last = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(body))
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="length of the timed phase of an untraced run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics from a traced run")
    parser.add_argument("--phase", choices=("run", "setup", "counts"), default="run",
                        help=argparse.SUPPRESS)  # setup and counts: child processes of a run
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    import_spherig()
    wl = WORKLOADS[args.workload]
    if args.phase == "setup":
        wl.setup(args.seed)
        return 0
    if args.phase == "counts":
        rec, _, _, _ = traced_pass(wl, args.seed)
        metrics, _ = layer_metrics(rec, 0.0)
        print(json.dumps(count_metrics(metrics)))
        return 0

    if args.trace:
        metrics, attempted, failed, notes = per_layer(wl, args.seed)
    else:
        metrics, attempted, failed, notes = end_to_end(wl, args.seed, args.seconds)
    print(f"workload {wl.name}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for note in notes:
        print(f"  {note}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
