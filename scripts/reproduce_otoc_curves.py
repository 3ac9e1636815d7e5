#!/usr/bin/env python3
"""Desk-scale OTOC curves: single-realization traces for the three embedded
gates, the ensemble-averaged closed form, and the late-time scaling table.

Writes CSV/JSON under --out (default results/otoc)."""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from rsedlab.cli import main as rsed_main

TRACE_BASE = {
    "n": 12,
    "k": 8,
    "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
    "ensemble": 8,
    "sites": [0, 9],
    "seed": 2024,
}

SCALING = {
    "experiment": "otoc-scaling",
    "n_list": [4, 6, 8, 11],
    "k_rule": "log2sq",
    "ensemble": 8,
    "t_fixed": 4,
    "seed": 2024,
}


def run(config: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        code = rsed_main([config["experiment"], "--config", str(path), "--out", str(out)])
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/otoc")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    root = Path(args.out)
    for name, spec in (
        ("hadamard", {"type": "hadamard"}),
        ("random_sign_hadamard", {"type": "random_sign_hadamard", "seed": 7}),
        ("pauli_syk", {"type": "pauli_syk", "seed": 7}),
    ):
        cfg = dict(TRACE_BASE, experiment="otoc-trace", u_spec=spec, threads=args.threads)
        if name == "pauli_syk":
            cfg["k"] = 6  # dense Hamiltonian evolution is the cost driver
        run(cfg, root / f"trace_{name}")
        run(dict(cfg, experiment="otoc-average"), root / f"average_{name}")
    run(SCALING, root / "scaling")
    print(f"wrote OTOC curves under {root}")


if __name__ == "__main__":
    main()
