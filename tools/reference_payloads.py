"""Reference payloads: every verb's digest and check values at fixed seeds.

Runs ``payload_digests.runs("all", ...)``: every verb, ``trace`` in both
formats, at seeds 0-3 and two draws. Writes one JSON document: the platform
fingerprint (numpy version, machine, CPU model, BLAS) and per run the exit
code, the payload sha256 and every check record. With no argument it
regenerates the committed reference that ``tests/test_reference_payloads.py``
compares against; a change that moves payload bits on purpose runs it and
commits the diff, which shows which values moved and by how much:

    python tools/reference_payloads.py
    python tools/reference_payloads.py --out OTHER.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

from payload_digests import runs

REFERENCE = Path(__file__).resolve().parents[1] / "tests" / "reference_payloads.json"
SEEDS = [0, 1, 2, 3]
N_DRAWS = 2


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """What the payload bits may depend on besides the source. The CPU is
    in it because an OpenBLAS built for several architectures picks its
    kernels by the CPU it runs on."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = "unknown"
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu": _cpu_model(), "blas": blas}


def collect() -> dict:
    report = list(runs("all", SEEDS, [N_DRAWS], []))
    return {"seeds": SEEDS, "n_draws": N_DRAWS, "fingerprint": fingerprint(),
            "runs": report}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=REFERENCE)
    args = parser.parse_args(argv)
    args.out.write_text(json.dumps(collect(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
