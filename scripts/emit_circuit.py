#!/usr/bin/env python3
"""Emit the gate-level sandwich circuit for one RSED realization: the
RSEDCIRC text file, the JSON manifest, and the RSEDPERM1 permutation
sidecar, plus a dense equivalence check at small n."""

import argparse
import json
import tempfile
from pathlib import Path

from rsedlab.cli import main as rsed_main


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/circuit")
    parser.add_argument("--n", type=int, default=8)
    parser.add_argument("--k", type=int, default=4)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()
    cfg = {
        "experiment": "circuit-emit",
        "n": args.n,
        "k": args.k,
        "u_spec": {"type": "random_sign_hadamard", "seed": 7},
        "seed": args.seed,
    }
    Path(args.out).mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg))
        code = rsed_main(["circuit-emit", "--config", str(path), "--out", args.out])
    raise SystemExit(code)


if __name__ == "__main__":
    main()
