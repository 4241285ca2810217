"""aqm-lab benchmark: closed-loop CLI ops, end-to-end and per-layer metrics.

One client in one process calls ``aqm_lab.cli.main(argv)`` in a closed loop;
each op is one verb invocation at a fixed shape with seed ``seed + k`` that
writes its JSON report to a file, which is then read back and checked. Op 0
is a warm-up and is not timed. A fixed piece of reference work that is not
aqm_lab's is timed before and after every timed op, and the gated op metric
is op time over that reference time, which host load slows alike. At the end
the first timed op is run again and its payload must match byte for byte.

    python3 perfbench/run.py --workload curvature --seed 0 --seconds 22 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed. ``--trace 1`` runs each op untraced and then again with the span
wrappers of ``tracing.py`` installed, and prints the per-layer metrics.
The last stdout line is the JSON result; details go to stderr. ``meta.json``
defines every metric and records the environment and the layer map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing

# one BLAS thread: with the default pool a 12x12 matmul already runs on two
# threads and identical ops spread widely; this must precede the numpy import
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench_work"

# op shape per workload: the verb argv without --seed and --out
WORKLOADS: dict[str, tuple[str, ...]] = {
    "curvature": ("verify-curvature", "--n-draws", "4"),
    "linearization": ("verify-linearization", "--n-draws", "1"),
    "transport": ("trace", "--format", "json", "--n-draws", "2",
                  "--steps", "40"),
    "representations": ("verify-reps", "--n-draws", "1"),
}

MIN_OPS = 12           # untraced ops at least, so the tail has ten ops beyond it
COUNT_OPS = 4          # traced ops whose counts are reported (a fixed window)
MEASURE_CAP_S = 120.0  # stop adding ops after this long, whatever MIN_OPS says
SETUP_REPEATS = 7
TAIL_BEYOND = 10
THROUGHPUT_BLOCKS = 5  # draws_per_s is the median over consecutive blocks of ops
REF_ITERS = 1500       # reference work between ops: about 40 ms on a 2.1 GHz Xeon

# Known program defect: verify-linearization wants its negative control
# (the defect at the wrong coupling xi^2 = 1/4, which is (2/9 - 1/4)(R_W - R))
# to be at least 1e-2 at every control draw, but R_W - R crosses zero, so
# about 1% of draws miss the floor and the verb exits 1 with both identity
# checks passing. Such an op is counted as a control miss and reported on
# stderr, not as a failed op; any other failing check still fails the op.
CONTROL_FLOOR_CHECKS = frozenset({"linearization_control_min_defect"})


def n_draws(shape: tuple[str, ...]) -> int:
    return int(shape[shape.index("--n-draws") + 1])


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def tol_use(payload: dict) -> float:
    """max |value - expected| / tolerance over the non-control checks."""
    return max((abs(c["value"] - c["expected"]) / c["tolerance"]
                for c in payload["checks"] if c["tolerance"] > 0), default=0.0)


def tail_stat(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten ops beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n


def throughput(draws_per_op: int, times: list[float]) -> float:
    """Draws per timed wall second, as the median over consecutive blocks of
    ops, so that a burst of neighbour load in one block does not set it."""
    n = len(times)
    blocks = [times[i * n // THROUGHPUT_BLOCKS:(i + 1) * n // THROUGHPUT_BLOCKS]
              for i in range(THROUGHPUT_BLOCKS)]
    return statistics.median(draws_per_op * len(b) / sum(b) for b in blocks if b)


def reference_s() -> float:
    """Wall time of a fixed piece of work that is not aqm_lab's.

    Neighbours on a shared host slow every instruction, at times to less
    than half speed, for seconds to minutes at a time, which moves op wall
    time between runs far more than any bound. Work of the same kind as the program's hot paths
    (12x12 ``expm``, small array ops, Python-level calls), timed next to
    each op, is slowed alike, so op time over reference time stays put while
    a change to aqm_lab still moves it.
    """
    import numpy as np
    from scipy.linalg import expm
    base = np.linspace(-0.6, 0.6, 144).reshape(12, 12)
    vec = np.linspace(0.0, 1.0, 12)
    start = time.perf_counter()
    acc = 0.0
    for i in range(REF_ITERS):
        acc += float(expm(base * (1.0 + 1e-3 * (i % 5)))[0, 0])
        acc += float(np.cos(vec * (i % 3)) @ vec)
        acc += sum(math.sin(0.1 * j) for j in range(16))
    elapsed = time.perf_counter() - start
    if not math.isfinite(acc):
        raise RuntimeError("reference work gave a non-finite result")
    return elapsed


def measure_setup_s() -> float:
    """Median wall time of a fresh interpreter importing aqm_lab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import aqm_lab.cli"], env=env,
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Op:
    """Result of one verb invocation."""

    seed: int
    seconds: float
    payload: dict | None
    problems: list[str]
    layers: dict | None = None   # {span name: (calls, total_s, self_s)} when traced
    ref_s: float = math.nan      # mean reference time just before and after it

    @property
    def digest(self) -> str | None:
        return payload_digest(self.payload) if self.payload is not None else None


class Bench:
    def __init__(self, workload: str, seed_base: int):
        self.shape = WORKLOADS[workload]
        self.seed_base = seed_base
        self.out = WORK_DIR / f"{workload}.json"
        self.attempted = 0
        self.failed = 0
        self.control_missed: set[int] = set()   # op seeds
        import aqm_lab.cli
        self.cli = aqm_lab.cli

    def run_op(self, k: int, tracer=None) -> Op:
        seed = self.seed_base + k
        argv = [*self.shape, "--seed", str(seed), "--out", str(self.out)]
        self.out.unlink(missing_ok=True)
        code = None
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:
            traceback.print_exc()
        elapsed = time.perf_counter() - start
        layers = tracer.take() if tracer is not None else None
        payload, problems = self._check(code, seed)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"op seed={seed} failed: {'; '.join(problems)}", file=sys.stderr)
        return Op(seed, elapsed, payload, problems, layers)

    def _check(self, code, seed: int) -> tuple[dict | None, list[str]]:
        if code is None:
            return None, ["raised"]
        try:
            payload = json.loads(self.out.read_text(encoding="utf-8"))["payload"]
            problems = []
            if payload["command"] != self.shape[0]:
                problems.append(f"command {payload['command']!r}")
            if (payload["config"]["seed"], payload["config"]["n_draws"]) \
                    != (seed, n_draws(self.shape)):
                problems.append("config echo differs from the request")
            bad = [c for c in payload["checks"] if not c["pass"]]
            missed = [c for c in bad if c["name"] in CONTROL_FLOOR_CHECKS
                      and math.isfinite(c["value"]) and c["value"] > 0]
            if len(missed) < len(bad) or not payload["checks"]:
                problems.append(f"checks failed: {[c['name'] for c in bad]}")
            if code != (1 if bad else 0) or payload["passed"] != (not bad):
                problems.append(f"exit code {code}, passed {payload['passed']}")
            if missed and not problems and seed not in self.control_missed:
                self.control_missed.add(seed)
                print(f"op seed={seed}: control floor missed "
                      f"({missed[0]['value']:.3g} < {missed[0]['expected']:g}), "
                      "identity checks pass", file=sys.stderr)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return None, [f"malformed report (exit code {code}): {exc!r}"]
        return payload, problems

    def loop(self, seconds: float, tracer: tracing.Tracer | None = None
             ) -> tuple[list[Op], list[Op]]:
        """Closed loop over ops k = 1, 2, ... for ``seconds`` and ``MIN_OPS``.

        With a tracer each op runs twice, untraced and then traced, so both
        see the same neighbour load and tracing overhead is a like-for-like
        ratio. Returns (untraced ops, traced ops).
        """
        untraced, traced = [], []
        start = time.perf_counter()
        ref_before = reference_s()
        while True:
            spent = time.perf_counter() - start
            if (spent >= seconds and len(untraced) >= MIN_OPS) or spent >= MEASURE_CAP_S:
                return untraced, traced
            k = len(untraced) + 1
            tracing.assert_untraced()
            untraced.append(self.run_op(k))
            ref_after = reference_s()
            untraced[-1].ref_s = (ref_before + ref_after) / 2
            ref_before = ref_after
            if tracer is None:
                continue
            with tracer.installed():
                traced.append(self.run_op(k, tracer))
            if traced[-1].digest != untraced[-1].digest:
                self.failed += 1
                print(f"op seed={self.seed_base + k}: payload differs under tracing",
                      file=sys.stderr)
            ref_before = reference_s()

    def recheck(self, first: Op) -> None:
        """Run the first timed op again; a payload byte mismatch is a failure."""
        again = self.run_op(first.seed - self.seed_base)
        if not again.problems and again.digest != first.digest:
            self.failed += 1
            print(f"op seed={first.seed}: payload bytes differ on re-run",
                  file=sys.stderr)


def op_stats(bench: Bench, ops: list[Op]) -> dict:
    """Distribution of untraced op wall time, with its unit per entry."""
    times = [op.seconds for op in ops]
    rel = [op.seconds / op.ref_s for op in ops]
    tail, tail_pct = tail_stat(times)
    return {
        "op_rel_p50": (statistics.median(rel), "ratio"),
        "ref_s_p50": (statistics.median(op.ref_s for op in ops), "s"),
        "op_s_p10": (sorted(times)[len(times) // 10], "s"),
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (tail, "s"),
        "op_s_tail_pct": (tail_pct, "%"),
        "ops_timed": (len(times), "count"),
        "draws_per_s": (throughput(n_draws(bench.shape), times), "1/s"),
    }


def end_to_end(stats: dict, setup_s: float) -> dict:
    # host load moved op wall time between runs by more than any bound, so
    # the gated op metric is op time over the reference time measured next to it
    return {
        "setup_s": (setup_s, "s"),
        "op_rel_p50": stats["op_rel_p50"],
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(bench: Bench, stats: dict, traced: list[Op]) -> dict:
    window = traced[:COUNT_OPS]
    draws = n_draws(bench.shape) * len(window)

    def calls(name: str) -> float:
        return sum(op.layers[name][0] for op in window) / len(window)

    def window_calls(*names: str) -> float:
        return sum(op.layers[n][0] for op in window for n in names) / draws

    metrics = {}
    for name in tracing.SPAN_NAMES:
        if name == "cli.main":
            continue
        metrics[f"{name}.calls"] = (calls(name), "count")
        metrics[f"{name}.self_s"] = (
            statistics.median(op.layers[name][2] for op in traced), "s")
        metrics[f"{name}.total_s"] = (
            statistics.median(op.layers[name][1] for op in traced), "s")
    metrics["cli.main.self_s"] = (
        statistics.median(op.layers["cli.main"][2] for op in traced), "s")
    for name in ("op_s_p10", "op_s_p50", "op_s_tail", "op_s_tail_pct",
                 "ops_timed", "draws_per_s", "ref_s_p50"):
        metrics[f"cli.{name}"] = stats[name]

    steps = sum(n - 1 for op in traced if op.payload is not None
                for rec in op.payload.get("records", [])
                for n in rec.get("samples_per_trajectory", []))
    rk4_s = sum(op.layers["dynamics.integrate_trajectory"][1] for op in traced)
    metrics.update({
        "config_space.frames_per_draw":
            (window_calls("config_space.frame_coefficients"), "count"),
        "fields.evals_per_draw":
            (window_calls("fields.BandLimitedField", "fields.LinearField"), "count"),
        "hj.psi_evals_per_draw": (window_calls("hj.psi"), "count"),
        "lorentz_reps.generator_builds_per_draw":
            (window_calls("lorentz_reps.irrep_generators"), "count"),
        "dynamics.rk4_step_s": (rk4_s / steps if steps else 0.0, "s"),
        "report.tol_use_max": (max((tol_use(op.payload) for op in window
                                    if op.payload is not None), default=0.0),
                               "ratio"),
        "trace.overhead_frac": (
            statistics.median(op.seconds for op in traced)
            / stats["op_s_p50"][0] - 1.0, "ratio"),
    })
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed_base: op k draws from seed_base + k")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "aqm_lab" / "cli.py").is_file():
        print(f"error: no aqm_lab sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    WORK_DIR.mkdir(exist_ok=True)
    setup_s = None if args.trace else measure_setup_s()
    bench = Bench(args.workload, args.seed)
    if not bench.cli.__file__.startswith(str(SRC)):
        print(f"error: aqm_lab imported from {bench.cli.__file__}", file=sys.stderr)
        return 2

    cpu0, wall0 = time.process_time(), time.perf_counter()
    bench.run_op(0)  # warm-up
    untraced, traced = bench.loop(args.seconds,
                                  tracing.Tracer() if args.trace else None)
    tracing.assert_untraced()
    cpu_per_wall = (time.process_time() - cpu0) / (time.perf_counter() - wall0)

    first = untraced[0]
    bench.recheck(first)
    stats = op_stats(bench, untraced)
    if args.trace:
        metrics = per_layer(bench, stats, traced)
    else:
        metrics = end_to_end(stats, setup_s)

    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "shape": bench.shape,
        **{name: value for name, (value, _) in stats.items()},
        "ops_traced": len(traced),
        "ops_failed_frac": bench.failed / bench.attempted,
        "control_floor_missed_seeds": sorted(bench.control_missed),
        "cpu_s_per_wall_s": cpu_per_wall,
        "first_op": {"seed": first.seed, "payload_sha256": first.digest,
                     "tol_use_max": tol_use(first.payload)
                     if first.payload is not None else None},
        "blas_env": BLAS_ENV,
    }), file=sys.stderr)
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
