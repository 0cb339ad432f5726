"""The physkernel benchmark: one workload per invocation.

Run from the root of a checkout::

    python3 bench/run.py --workload ring-stress --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

``corpus-eval``    one pass@1 ``run_eval`` of the bundled corpus per unit;
``ring-stress``    generated statements that exercise the ring engine;
``frontend-deep``  generated statements for the parser, dimension checker,
                   rewriting and evaluation (over-limit inputs: traced only);
``cli-cold``       one ``python -m physkernel.cli`` process per unit.

With ``--trace 0`` the run is split over three fresh interpreters, run one
after another with ``PYTHONHASHSEED`` 0, 1 and 2 (string hashing moves
single timings by up to a quarter).  The first measures whole blocks of
the designed mix of families for a third of ``--seconds``; the other two
measure as many blocks as it did, so every run pools the same mix of
families and of hash seeds.  ``setup_s`` is the median of their three
set-ups; the latency percentiles and ``stmts_per_s`` pool the units of all
three.  Failed units sort after every other unit.  Every time is CPU time
of the process doing the work, scaled to a host on which the speed probe
takes ``PROBE_REF_MS`` (``bench/worker.py`` says why): a time ``t``
measured while the probe's median was ``p`` is reported as
``t * PROBE_REF_MS / p``.  The run prints the unscaled values too.  The
run's length is wall-clock time.

With ``--trace 1`` one interpreter runs the traced run of
``bench/worker.py``, a fixed number of blocks, and every per-layer metric
is printed.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong answer exits with
code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("corpus-eval", "ring-stress", "frontend-deep", "cli-cold")
HASH_SEEDS = (0, 1, 2)
CHILD_TIMEOUT_S = 170
#: The speed probe's median CPU time on the 2-vCPU host (Intel Xeon,
#: 2.1 GHz) the first baseline was measured on.  A fixed constant: it sets
#: the scale of the reported times, and changing it changes them all.
PROBE_REF_MS = 60.0


class BenchError(Exception):
    pass


def _child(root: Path, env: dict, args: list[str]) -> dict:
    """Run the worker; echo its report lines and return its last line."""
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"worker exited with code {proc.returncode} "
                         "without a result") from None
    if proc.returncode != 0 and result.get("correct", False):
        raise BenchError(f"worker exited with code {proc.returncode}")
    return result


def summarise(parts: list[dict], seconds: float) -> tuple[dict, list[str]]:
    """End-to-end metrics of the pooled units of a run's parts."""
    samples = [s for part in parts for s in part["samples"]]
    by_family: dict[str, list] = {}
    for family, latency, ok, decided in samples:
        by_family.setdefault(family, []).append((latency, ok, decided))
    # A failed unit missed any latency limit: it ranks last.
    ranked = sorted(latency if ok else math.inf
                    for _, latency, ok, _ in samples)

    def percentile(pct: int) -> float:  # nearest rank
        latency = ranked[math.ceil(pct / 100 * len(ranked)) - 1]
        return 1000 * (seconds if latency == math.inf else latency)

    # Per-family medians keep a stray slow unit (a pause of the machine)
    # from moving the throughput.
    share = {f: len(u) / len(samples) for f, u in by_family.items()}
    mean_latency = sum(share[f] * statistics.median(u[0] for u in units)
                       for f, units in by_family.items())
    mean_decided = sum(share[f] * statistics.fmean(u[2] for u in units)
                       for f, units in by_family.items())
    p90 = percentile(90)
    beyond = sum(1 for latency in ranked if 1000 * latency > p90)
    failed = sum(not ok for _, _, ok, _ in samples)
    measured = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "latency_p50_ms": percentile(50),
        "latency_p90_ms": p90,
        "stmts_per_s": mean_decided / mean_latency,
    }
    probe_ms = 1000 * statistics.median(t for p in parts for t in p["probes"])
    scale = PROBE_REF_MS / probe_ms
    metrics = {name: value / scale if name == "stmts_per_s" else value * scale
               for name, value in measured.items()}
    metrics["peak_rss_mb"] = max(p["peak_rss_mb"] for p in parts)
    failures: dict[str, int] = {}
    for part in parts:
        for kind, count in part["failures"].items():
            failures[kind] = failures.get(kind, 0) + count
    lines = [
        f"units of work: {len(samples)}, {beyond} beyond p90; failed {failed}",
        f"the units used {sum(s[1] for s in samples):.2f} s of CPU time in "
        f"{sum(p['wall_s'] for p in parts):.2f} s of wall-clock time",
        f"speed probe: median {probe_ms:.3f} ms over "
        f"{sum(len(p['probes']) for p in parts)} probes (reference "
        f"{PROBE_REF_MS} ms); times scaled by {scale:.4f}",
        "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
        "mix (units per family): " + ", ".join(
            f"{f}={len(u)}" for f, u in sorted(by_family.items())),
    ] + [f"failures: {kind} x{count}"
         for kind, count in sorted(failures.items())]
    return metrics, lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    for needed in ("src/physkernel/__init__.py", "corpus/manifest.json",
                   "BENCHMARK.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a "
                  "physkernel checkout", file=sys.stderr)
            return 2
    spec = json.loads((root / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    parts = []
    try:
        for part, hash_seed in enumerate(HASH_SEEDS[:1] if args.trace
                                         else HASH_SEEDS):
            env["PYTHONHASHSEED"] = str(hash_seed)
            seconds = args.seconds if args.trace else (
                args.seconds / len(HASH_SEEDS))
            blocks = parts[0]["blocks"] if part else 0
            parts.append(_child(root, env, common + [
                "--part", str(part), "--seconds", str(seconds),
                "--blocks", str(blocks), "--trace", str(args.trace)]))
            if not parts[-1]["correct"]:
                print(json.dumps({"correct": False, "attempted": 0,
                                  "failed": 0, "metrics": {}}))
                return 1
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        raw, attempted, failed = (parts[0]["metrics"], parts[0]["attempted"],
                                  parts[0]["failed"])
    else:
        raw, lines = summarise(parts, args.seconds)
        for line in lines:
            print(line)
        attempted = sum(len(p["samples"]) for p in parts)
        failed = sum(not s[2] for p in parts for s in p["samples"])
    unknown = sorted(set(raw) - {m["name"] for m in wanted})
    missing = [m["name"] for m in wanted if m["name"] not in raw]
    if unknown or (missing and not args.trace):
        print(f"error: metrics not in BENCHMARK.json: {unknown}; "
              f"missing: {missing}", file=sys.stderr)
        return 1
    if missing:
        print(f"not measured on {args.workload} (reported as 0): "
              + ", ".join(missing))
    metrics = {}
    for m in wanted:
        value = raw.get(m["name"], 0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']}: {value:.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
