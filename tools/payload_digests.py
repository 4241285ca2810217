"""Payload digests of a verb over a range of seeds.

Runs ``aqm_lab.cli.main`` in this process once per (seed, n_draws) and
prints one line per run: the verb, the seed, the draw count, the exit code
and the sha256 of the payload, taken over ``json.dumps(payload,
sort_keys=True)`` as the benchmark does. A CSV report has no payload, so its
digest is over the whole file; a run that writes nothing reads ``-``.
Options the tool does not know go to the verb unchanged. The verb ``all``
runs every verb of ``aqm_lab.cli.VERBS`` in turn, ``trace`` once per
format (labelled ``trace/csv`` and ``trace/json``); there ``--n-draws``
goes only to the verbs that take it, and ``trace``, whose bundle needs two
trajectories, runs at two draws or more (the line shows the count it ran).
Diffing the output of two checkouts is a byte-identity check of their
payloads. ``--values`` appends every check's ``name=value`` from the JSON
payload, the value in repr (a CSV report has none), so that where the bits
move the diff shows by how much.

``--margins`` prints, in place of the runs, one line per (verb label, draw
count, check) over the seeds, from the JSON payloads: the check's kind, its
worst value (the largest |value| of a residual, the smallest value of a
floor, ``nan`` if any run's value is not finite), its tolerance (a floor's
threshold), the margin (tolerance over worst for a residual, worst over
threshold for a floor; ``inf`` for a residual that reads 0 at every seed),
the seeds at which the check fails out of those run, and whether the value
is the same at every seed (a check that reads no draw):

    python tools/payload_digests.py verify-reps --seeds 0-29 --n-draws 1 5
    python tools/payload_digests.py trace --seeds 0,4 --format json
    python tools/payload_digests.py verify-reps --seeds 0-29 --src OTHER/src
    python tools/payload_digests.py all --seeds 0-3
    python tools/payload_digests.py verify-linearization --seeds 0-9 --values
    python tools/payload_digests.py all --seeds 0-99 --margins
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

DEFAULT_SRC = Path(__file__).resolve().parents[1] / "src"
# the fewest draws of a verb whose n_draws has a floor above one
MIN_DRAWS = {"trace": 2}


def parse_seeds(spec: str) -> list[int]:
    """Seeds from a comma-separated list of integers and ranges ``a-b``."""
    seeds = []
    for part in spec.split(","):
        first, _, last = part.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def digest(path: Path) -> str:
    text = path.read_bytes()
    if not text:
        return "-"
    try:
        text = json.dumps(json.loads(text)["payload"], sort_keys=True).encode()
    except (ValueError, KeyError, TypeError):
        pass
    return hashlib.sha256(text).hexdigest()


def checks(path: Path) -> list[dict]:
    """The check records of a JSON payload; none for any other report."""
    try:
        return json.loads(path.read_bytes())["payload"]["checks"]
    except (ValueError, KeyError, TypeError):
        return []


def runs(verb: str, seeds: list[int], n_draws: list[int | None],
         verb_args: list[str], src: Path = DEFAULT_SRC) -> Iterator[dict]:
    """Run ``verb`` (every verb for ``all``) once per draw count and seed,
    and yield one record per run: label, seed, the draw count it ran (None
    for the verb's default), exit code, digest and check records."""
    # one BLAS thread, as in the benchmark; this must precede the numpy import
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    sys.path.insert(0, str(src.resolve()))
    from aqm_lab.cli import VERBS, main as cli_main

    if verb != "all":
        table = [(verb, [verb], n_draws)]
    else:
        table = []
        for name, spec in VERBS.items():
            takes_draws = any(p.name == "n_draws" for p in spec.params)
            counts = [n if n is None else max(n, MIN_DRAWS.get(name, 1))
                      for n in n_draws] if takes_draws else [None]
            formats = ("csv", "json") if name == "trace" else (None,)
            table.extend((f"{name}/{fmt}" if fmt else name,
                          [name, "--format", fmt] if fmt else [name],
                          counts) for fmt in formats)

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report"
        for label, argv, counts in table:
            for n in counts:
                draws = [] if n is None else ["--n-draws", str(n)]
                for seed in seeds:
                    out.write_bytes(b"")
                    code = cli_main([*argv, *draws, *verb_args,
                                     "--seed", str(seed), "--out", str(out)])
                    yield {"label": label, "seed": seed, "n_draws": n,
                           "exit": code, "sha256": digest(out),
                           "checks": checks(out)}


def margins(records: list[dict], floors: set[str]) -> Iterator[str]:
    """The ``--margins`` lines of the run records of ``runs``; ``floors``
    names the checks that are floors."""
    table: dict[tuple, list[dict]] = {}
    for run in records:
        for check in run["checks"]:
            key = (run["label"], run["n_draws"], check["name"])
            table.setdefault(key, []).append(check)
    for (label, n, name), checks in table.items():
        values = [math.nan if c["value"] is None else c["value"]
                  for c in checks]
        finite = all(map(math.isfinite, values))
        if name in floors:
            kind, tol = "floor", checks[0]["expected"]
            worst = min(values) if finite else math.nan
            margin = worst / tol
        else:
            kind, tol = "residual", checks[0]["tolerance"]
            worst = max(map(abs, values)) if finite else math.nan
            margin = math.inf if worst == 0.0 else tol / worst
        fails = sum(not c["pass"] for c in checks)
        same = "yes" if len({repr(v) for v in values}) == 1 else "no"
        yield (f"{label} n_draws={'default' if n is None else n} {name} "
               f"{kind} worst={worst:.3e} tol={tol:.3e} margin={margin:.3g} "
               f"fails={fails}/{len(checks)} same={same}")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("verb")
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="e.g. 0-29 or 0,4,10-12")
    parser.add_argument("--n-draws", type=int, nargs="+", default=[None],
                        help="one run per value; the verb's default if omitted")
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="the src directory of the checkout to run")
    parser.add_argument("--values", action="store_true",
                        help="append each check's name=value after the digest")
    parser.add_argument("--margins", action="store_true",
                        help="print one line per check over the seeds "
                             "instead of the runs")
    args, verb_args = parser.parse_known_args(argv)
    if args.margins:
        records = list(runs(args.verb, args.seeds, args.n_draws, verb_args,
                            args.src))
        from aqm_lab.cli import VERBS  # the checkout that runs() imported

        floors = {c.name for v in VERBS.values() for c in v.checks if c.floor}
        for line in margins(records, floors):
            print(line)
        return 0
    for run in runs(args.verb, args.seeds, args.n_draws, verb_args, args.src):
        n = run["n_draws"]
        values = [f"{c['name']}={c['value']!r}" for c in run["checks"]] \
            if args.values else []
        print(" ".join([
            f"{run['label']} seed={run['seed']}",
            f"n_draws={'default' if n is None else n}",
            f"exit={run['exit']}", run["sha256"], *values]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
