import json
from pathlib import Path

import numpy as np
import pytest

from rsedlab import subsystem
from rsedlab.cli import main


def read_csv_rows(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


def test_otoc_trace_identity_sub(tmp_path):
    cfg = {
        "experiment": "otoc-trace",
        "n": 6,
        "k": 3,
        "u_spec": {"type": "identity"},
        "t_grid": [0.0, 1.0, 2.0],
        "ensemble": 3,
        "sites": [0, 4],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    header, rows = read_csv_rows(tmp_path / "otoc_trace.csv")
    assert header[:1] == ["t"] and header[-2:] == ["mean", "sem"]
    for row in rows:
        assert all(abs(float(v)) < 1e-12 for v in row[1:-1])


def test_otoc_trace_saturation_and_reproducible(tmp_path):
    cfg = {
        "experiment": "otoc-trace",
        "n": 12,
        "k": 8,
        "u_spec": {"type": "random_sign_hadamard", "seed": 3},
        "t_grid": [1.0, 2.0, 3.0],
        "ensemble": 4,
        "sites": [0, 9],
        "seed": 5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(out2)]) == 0
    csv1 = (out1 / "otoc_trace.csv").read_bytes()
    csv2 = (out2 / "otoc_trace.csv").read_bytes()
    assert csv1.replace(str(out1).encode(), b"") == csv2.replace(str(out2).encode(), b"")
    _, rows = read_csv_rows(out1 / "otoc_trace.csv")
    for row in rows:
        mean_c = float(row[-2])
        assert 1.0 - 2.0**-4 <= mean_c <= 1.0 + 1e-9


def test_otoc_trace_threads_match_serial(tmp_path):
    cfg = {
        "experiment": "otoc-trace",
        "n": 8,
        "k": 4,
        "u_spec": {"type": "random_sign_hadamard", "seed": 1},
        "t_grid": [0.5, 1.0],
        "ensemble": 4,
        "sites": [0, 6],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path / "s"), "--threads", "1"]) == 0
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path / "p"), "--threads", "4"]) == 0
    s = (tmp_path / "s" / "otoc_trace.csv").read_text().splitlines()[3:]
    p = (tmp_path / "p" / "otoc_trace.csv").read_text().splitlines()[3:]
    assert s == p


@pytest.mark.parametrize("experiment", ["otoc-trace", "otoc-average"])
def test_one_schur_form_per_realization(tmp_path, monkeypatch, experiment):
    """A t grid with six fractional points factorizes each realization's gate
    once; integer t take the matrix_power path."""
    calls = []
    schur = subsystem.schur
    monkeypatch.setattr(subsystem, "schur", lambda *a, **kw: calls.append(1) or schur(*a, **kw))
    cfg = {
        "experiment": experiment,
        "n": 8,
        "k": 5,
        "sites": [0, 7],
        "ensemble": 2,
        "t_grid": [0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.25],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([experiment, "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert len(calls) == cfg["ensemble"]


def test_otoc_scaling_driver(tmp_path):
    cfg = {
        "experiment": "otoc-scaling",
        "n_list": [4, 6, 8, 11],
        "k_rule": "log2sq",
        "ensemble": 2,
        "t_fixed": 4,
        "seed": 9,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-scaling", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "otoc_scaling_summary.json").read_text())
    assert summary["fitted_slope"] < -2.0
    assert [row[1] for row in summary["rows"]] == [4, 7, 9, 12]
    # the ceil staircase breaks concavity on this grid (README, by-design failures: 5b)
    assert summary["concave"] is False
    # dropping the misaligned n=6 point restores concavity
    cfg2 = dict(cfg, n_list=[4, 8, 11], seed=11)
    cfg_path.write_text(json.dumps(cfg2))
    assert main(["otoc-scaling", "--config", str(cfg_path), "--out", str(tmp_path / "pow2")]) == 0
    summary2 = json.loads((tmp_path / "pow2" / "otoc_scaling_summary.json").read_text())
    assert summary2["concave"] is True


def test_otoc_average_hadamard_exact(tmp_path):
    """With u = H^{tensor k} the closed form is exactly 2^-k at odd powers."""
    cfg = {
        "experiment": "otoc-average",
        "n": 8,
        "k": 5,
        "u_spec": {"type": "hadamard"},
        "t_grid": [1.0],
        "ensemble": 2,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-average", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    _, rows = read_csv_rows(tmp_path / "otoc_average.csv")
    assert float(rows[0][1]) == pytest.approx(2.0**-5, abs=1e-12)


def test_level_stats_driver(tmp_path):
    cfg = {
        "experiment": "level-stats",
        "n": 10,
        "k": 8,
        "u_spec": {"type": "random_sign_hadamard", "seed": 2},
        "ensemble": 10,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["level-stats", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "level_stats_summary.json").read_text())
    assert summary["pass_goe"] is True and summary["ks_goe"] <= 0.08
    hist = (tmp_path / "level_stats_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,density"


def test_sff_driver_ratio_constant(tmp_path):
    cfg = {
        "experiment": "sff",
        "n": 9,
        "k": 3,
        "u_spec": {"type": "pauli_syk", "seed": 4},
        "t_grid": [0.0, 1.0, 2.5],
        "beta_list": [0.0, 1.0],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["sff", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "sff_summary.json").read_text())
    assert summary["exact_factorization"] is True
    _, rows = read_csv_rows(tmp_path / "sff.csv")
    for row in rows:
        assert float(row[4]) == pytest.approx(4.0 ** (9 - 3))


def test_design_check_driver(tmp_path):
    cfg = {
        "experiment": "design-check",
        "n": 8,
        "k": 5,
        "u_spec": {"type": "hadamard"},
        "ensemble": 3,
        "t_fixed": 1,
        "t_copies": 2,
        "eps": 0.5,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["design-check", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "design_check_summary.json").read_text())
    assert summary["pass"] is True and summary["max_ybar"] == 0.0
    _, rows = read_csv_rows(tmp_path / "design_check.csv")
    assert all(float(r[1]) == 0.0 for r in rows)


def test_coherence_driver(tmp_path):
    cfg = {
        "experiment": "coherence",
        "n": 8,
        "k": 4,
        "trials": 10,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["coherence", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "coherence_summary.json").read_text())
    assert summary["max_dev"] <= 1e-9
    assert summary["expected_nats"] == pytest.approx(4 * np.log(2))
    _, rows = read_csv_rows(tmp_path / "coherence.csv")
    for row in rows:
        assert float(row[1]) == pytest.approx(4 * np.log(2), abs=1e-9)


def test_circuit_emit_driver(tmp_path):
    cfg = {
        "experiment": "circuit-emit",
        "n": 8,
        "k": 4,
        "u_spec": {"type": "random_sign_hadamard", "seed": 6},
        "seed": 13,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["circuit-emit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    text = (tmp_path / "circuit.txt").read_text()
    assert text.startswith("RSEDCIRC 1 n=8")
    manifest = json.loads((tmp_path / "circuit_manifest.json").read_text())
    assert manifest["n"] == 8 and manifest["k"] == 4
    summary = json.loads((tmp_path / "circuit_summary.json").read_text())
    assert summary["dense_deviation"] < 1e-12
    sidecar = (tmp_path / "perm0.rsedperm").read_bytes()
    assert sidecar[:9] == b"RSEDPERM1"


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "otoc-trace", "sites": [1, 1]}))
    assert main(["otoc-trace", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(json.dumps({"experiment": "otoc-trace", "nonsense_field": 1}))
    assert main(["otoc-trace", "--config", str(bad), "--out", str(tmp_path)]) == 2
    bad.write_text(json.dumps({"experiment": "sff"}))
    assert main(["otoc-trace", "--config", str(bad), "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "cfg",
    [
        {"experiment": "otoc-trace", "n": 8, "k": 4, "sites": [0, 9]},
        {"experiment": "otoc-scaling", "n_list": [1, 4]},
        # ceil(log2(12)**2) = 13 is past the dense cap; rejected before any work
        {"experiment": "otoc-scaling", "n_list": [4, 12]},
        # library ValueErrors raised inside a driver
        {"experiment": "otoc-trace", "estimator": {"mode": "sampled", "num_seeds": 1}},
        {"experiment": "otoc-trace", "n": 4, "k": 1, "u_spec": {"type": "pauli_syk", "seed": 3}},
        {"experiment": "otoc-trace", "n": 25, "k": 2, "ensemble": 1},
        # field types, checked before any value is used
        {"experiment": "otoc-trace", "n": "8"},
        {"experiment": "otoc-trace", "u_spec": "hadamard"},
        {"experiment": "otoc-trace", "sites": 5},
        {"experiment": "otoc-trace", "estimator": []},
        # a fractional site would shift by bit 0 and give a wrong curve silently
        {"experiment": "otoc-trace", "sites": [0.5, 1]},
        {"experiment": "otoc-scaling", "n_list": [4, "8"]},
        {"experiment": "otoc-trace", "exclude_degenerate": 1},
        {"experiment": "otoc-trace", "ensemble": True},
        {"experiment": "otoc-trace", "u_spec": {"type": "random_sign_hadamard", "seed": "x"}},
        {"experiment": "otoc-trace", "estimator": {"mode": "sampled", "num_seeds": "4"}},
    ],
)
def test_config_boundary_exit_2(tmp_path, cfg):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main([cfg["experiment"], "--config", str(bad), "--out", str(tmp_path)]) == 2
