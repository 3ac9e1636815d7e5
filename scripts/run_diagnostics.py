#!/usr/bin/env python3
"""Spectral and pseudorandomness diagnostics at desk scale: level statistics
against the Wigner surmises, spectral form factors, design-condition scans,
and coherence values.  Writes CSV/JSON under --out (default results/diag)."""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from rsedlab.cli import main as rsed_main

JOBS = [
    {
        "experiment": "level-stats",
        "n": 13,
        "k": 10,
        "u_spec": {"type": "random_sign_hadamard", "seed": 5},
        "ensemble": 20,
        "seed": 99,
    },
    {
        "experiment": "sff",
        "n": 10,
        "k": 4,
        "u_spec": {"type": "pauli_syk", "seed": 5},
        "beta_list": [0.0, 1.0, 10.0],
        "t_grid": [0.0, 0.5, 1.0, 2.0, 4.0, 8.0],
        "seed": 99,
    },
    {
        "experiment": "design-check",
        "n": 10,
        "k": 6,
        "u_spec": {"type": "random_sign_hadamard", "seed": 5},
        "ensemble": 10,
        "t_fixed": 1,
        "seed": 99,
    },
    {
        "experiment": "coherence",
        "n": 10,
        "k": 5,
        "ensemble": 100,
        "seed": 99,
    },
]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/diag")
    args = parser.parse_args()
    root = Path(args.out)
    for job in JOBS:
        out = root / job["experiment"]
        out.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(job))
            code = rsed_main([job["experiment"], "--config", str(path), "--out", str(out)])
        if code != 0:
            sys.exit(code)
    print(f"wrote diagnostics under {root}")


if __name__ == "__main__":
    main()
