"""`rsed level-stats` at the benchmark's level-stats shape passes the
benchmark's own correctness check (perfbench/reference.py: KS distances to
1e-6, the spacing count exactly), so a change to the parent-spectrum path
that the benchmark would refuse fails here first."""

import json
from pathlib import Path

import pytest

from rsedlab.cli import main


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_level_stats_passes_the_benchmark_reference(tmp_path, monkeypatch, seed):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    from perfbench.reference import check, compute

    cfg = {"experiment": "level-stats", "n": 13, "k": 10, "ensemble": 2, "seed": seed,
           "u_spec": {"type": "random_sign_hadamard", "seed": seed}}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["level-stats", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path / "out")]) == 0
    assert check(cfg, compute(cfg), tmp_path / "out") == []
