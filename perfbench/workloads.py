"""Driver configs for the benchmark's workloads, generated from a seed.

Each workload is one `rsed` driver at a fixed shape (n, k, t grid); the seed
picks the permutations, sign functions and gates.  The ensemble size sets
how long one job takes.  SMOKE holds the same drivers at tiny sizes.
"""

WORKLOADS = {
    # Many small blocks: 4096 seeds of K=64.  n > 16 selects the Feistel
    # permutation and keyed-PRF sign backends; the ZZ trace kernel dominates.
    "trace-wide": {
        "experiment": "otoc-trace", "n": 18, "k": 6, "sites": [0, 17],
        "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0], "ensemble": 1,
    },
    # Few large blocks: 16 seeds of K=256 on explicit tables, with a Schur
    # eigenpath for every fractional t (the scripts/ OTOC-curve config).
    "trace-deep": {
        "experiment": "otoc-trace", "n": 12, "k": 8, "sites": [0, 9],
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0], "ensemble": 1,
    },
    # Dense Hadamard-sign powers up to k=12; no ZZ kernel, no permutations.
    "scaling": {
        "experiment": "otoc-scaling", "n_list": [4, 6, 8, 11], "k_rule": "log2sq",
        "t_fixed": 4, "ensemble": 1,
    },
    # The only eigensolver user: parent spectra of K=1024 gates.
    "level-stats": {"experiment": "level-stats", "n": 13, "k": 10, "ensemble": 2},
}

SMOKE = {
    "trace-wide": dict(WORKLOADS["trace-wide"], n=17, k=2, sites=[0, 16], t_grid=[0.0, 0.5, 1.0]),
    "trace-deep": dict(WORKLOADS["trace-deep"], n=8, k=5, sites=[0, 7], t_grid=[0.0, 0.25, 1.0]),
    "scaling": dict(WORKLOADS["scaling"], n_list=[4, 6, 8]),
    "level-stats": dict(WORKLOADS["level-stats"], n=8, k=6),
}


def config(workload: str, seed: int, smoke: bool = False) -> dict:
    """The driver config of `workload` for `seed`."""
    base = (SMOKE if smoke else WORKLOADS)[workload]
    return dict(base, seed=seed, u_spec={"type": "random_sign_hadamard", "seed": seed})
