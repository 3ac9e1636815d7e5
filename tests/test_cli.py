import argparse
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import rsedlab
from conftest import subset_phase_state
from rsedlab import __version__, subsystem
from rsedlab.bitcore import SystemShape
from rsedlab.circuits import GateCircuit, simulate_circuit
from rsedlab.cli import ConfigError, ExperimentConfig, _realization, base_gate, load_config, main
from rsedlab.prs import coherence_rel_entropy
from rsedlab.spectra import spectral_form_factor
from rsedlab.subsystem import parent_hamiltonian, parent_spectrum


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
    for name in ("otoc_trace.csv", "otoc_trace_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
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
    for name in ("otoc_trace.csv", "otoc_trace_summary.json"):
        assert (tmp_path / "s" / name).read_bytes() == (tmp_path / "p" / name).read_bytes()


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


@pytest.mark.parametrize("ensemble, code", [(100, 0), (101, 2)])
def test_scaling_ensemble_within_the_stream_rule(tmp_path, capsys, ensemble, code):
    """Realization r at size n draws from stream 100 n + r, so an ensemble of
    101 would give (n = 4, r = 100) and (n = 5, r = 0) one stream."""
    cfg = {"experiment": "otoc-scaling", "n_list": [2, 3, 4], "ensemble": ensemble, "t_fixed": 1}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-scaling", "--config", str(cfg_path), "--out", str(tmp_path)]) == code
    if code:
        assert "ensemble 101 > 100" in capsys.readouterr().err
        assert not (tmp_path / "otoc_scaling.csv").exists()


def test_otoc_scaling_ignores_n_and_k():
    """otoc-scaling takes k = log2sq_k(n) per n_list entry, so its n and k are
    not checked against each other, with or without the k rule; nor are the
    sites and u_spec type it never reads."""
    for extra in ({}, {"k_rule": "log2sq"}, {"k": 40}):
        ExperimentConfig(experiment="otoc-scaling", n=3, **extra).validate()
    ExperimentConfig(experiment="otoc-scaling", n=1).validate()
    ExperimentConfig(experiment="otoc-scaling", sites=[0, 99], u_spec={"type": "unused"}).validate()
    with pytest.raises(ConfigError, match="k=4 out of range for n=3"):
        ExperimentConfig(experiment="otoc-average", n=3).validate()


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
    assert hist[3] == "bin_left,bin_right,density"  # after the config, seed and version lines


@pytest.mark.parametrize(
    "cfg, csv_name",
    [
        ({"experiment": "otoc-trace", "n": 6, "k": 3, "t_grid": [1.0], "ensemble": 1}, "otoc_trace.csv"),
        ({"experiment": "otoc-scaling", "n_list": [2, 3, 4], "k_rule": "log2sq", "ensemble": 1}, "otoc_scaling.csv"),
        ({"experiment": "otoc-average", "n": 6, "k": 3, "t_grid": [1.0], "ensemble": 1}, "otoc_average.csv"),
        ({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 2}, "level_stats_hist.csv"),
        ({"experiment": "sff", "n": 6, "k": 3, "t_grid": [1.0], "beta_list": [0.0]}, "sff.csv"),
        ({"experiment": "design-check", "n": 6, "k": 3, "ensemble": 1}, "design_check.csv"),
        ({"experiment": "coherence", "n": 6, "k": 3, "ensemble": 2}, "coherence.csv"),
    ],
)
def test_every_csv_carries_config_seed_and_version(tmp_path, cfg, csv_name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([cfg["experiment"], "--config", str(cfg_path), "--out", str(tmp_path), "--seed", "5"]) == 0
    lines = (tmp_path / csv_name).read_text().splitlines()
    assert lines[0].startswith("# config: ")
    assert json.loads(lines[0].removeprefix("# config: "))["experiment"] == cfg["experiment"]
    assert lines[1] == "# seed: 5"
    assert lines[2] == f"# version: rsedlab {__version__}"
    assert lines[3].split(",") == read_csv_rows(tmp_path / csv_name)[0]


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
    assert json.loads((tmp_path / "sff_summary.json").read_text())["factor"] == 4.0 ** (9 - 3)
    header, rows = read_csv_rows(tmp_path / "sff.csv")
    assert header == ["beta", "t", "r2_sub", "r2_full"]
    assert len(rows) == 6
    for row in rows:
        assert float(row[3]) == 4.0 ** (9 - 3) * float(row[2])


@pytest.mark.parametrize("kind", ["hadamard", "random_sign_hadamard"])
def test_sff_reads_the_parent_spectrum(tmp_path, kind):
    """r2_sub is the form factor of parent_spectrum(gate) bit for bit, and
    agrees with the eigenvalues of the dense parent Hamiltonian to 1e-12."""
    cfg = {"experiment": "sff", "n": 9, "k": 6, "u_spec": {"type": kind, "seed": 3},
           "t_grid": [0.0, 0.5, 1.0, 2.5, 8.0], "beta_list": [0.0, 1.0, 10.0]}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    assert main(["sff", "--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path)]) == 0
    gate = base_gate(ExperimentConfig(**cfg), 0)
    fast, dense = parent_spectrum(gate), parent_hamiltonian(gate).eigenvalues
    _, rows = read_csv_rows(tmp_path / "sff.csv")
    assert len(rows) == 15
    for row in rows:
        beta, t, r2s = float(row[0]), float(row[1]), float(row[2])
        assert r2s == spectral_form_factor(fast, beta, t)
        assert abs(r2s - spectral_form_factor(dense, beta, t)) <= 1e-12 * r2s


def test_design_check_driver(tmp_path):
    cfg = {
        "experiment": "design-check",
        "n": 8,
        "k": 5,
        "u_spec": {"type": "hadamard"},
        "ensemble": 3,
        "t_fixed": 1,
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
        "ensemble": 10,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["coherence", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "coherence_summary.json").read_text())
    assert summary["max_dev"] <= 1e-9
    assert summary["expected_nats"] == pytest.approx(4 * np.log(2))
    _, rows = read_csv_rows(tmp_path / "coherence.csv")
    # row r reads U|p(join(0, r))>, the subset-phase state of seed r up to sign
    shape, layer = SystemShape(8, 4), GateCircuit(8, tuple(("H", q) for q in range(8)))
    for r, row in enumerate(rows):
        assert float(row[1]) == pytest.approx(4 * np.log(2), abs=1e-9)
        psi = subset_phase_state(*_realization(ExperimentConfig(**cfg), shape, r), r, shape)
        assert float(row[2]) == pytest.approx(coherence_rel_entropy(simulate_circuit(layer, psi)), abs=1e-12)


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


@pytest.mark.parametrize("n, sidecar", [(8, "perm0.rsedperm"), (17, None)])
def test_circuit_emit_names_only_a_written_sidecar(tmp_path, n, sidecar):
    """Past n = 16 the permutation is a Feistel network with no table, so no
    sidecar is written and the summary records null."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "circuit-emit", "n": n, "k": 4}))
    out = tmp_path / "out"
    assert main(["circuit-emit", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert json.loads((out / "circuit_summary.json").read_text())["sidecar"] == sidecar
    assert (out / "perm0.rsedperm").exists() == (sidecar is not None)


@pytest.mark.parametrize("experiment", ["circuit-emit", "coherence"])
@pytest.mark.parametrize("kind", ["identity", "pauli_syk"])
def test_drivers_of_hadamard_sign_gates_reject_other_gates(tmp_path, capsys, experiment, kind):
    """circuit-emit synthesizes only Hadamard-sign gates, and coherence's
    k log 2 holds for their flat columns: another u_spec is one config error
    line and exit 2, before the output directory is made."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": experiment, "n": 6, "k": 3, "u_spec": {"type": kind, "seed": 2}}))
    out = tmp_path / "out"
    assert main([experiment, "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error: {experiment} supports hadamard / random_sign_hadamard u_specs\n"
    assert not out.exists()


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
        # exclude_degenerate is no field: the degeneracy cut is always on
        {"experiment": "otoc-trace", "exclude_degenerate": 1},
        {"experiment": "otoc-trace", "ensemble": True},
        {"experiment": "otoc-trace", "u_spec": {"type": "random_sign_hadamard", "seed": "x"}},
        {"experiment": "otoc-trace", "estimator": {"mode": "sampled", "num_seeds": "4"}},
        # an empty t grid has no final row; a string t would reach float() unchecked
        {"experiment": "otoc-trace", "t_grid": []},
        {"experiment": "otoc-average", "t_grid": []},
        {"experiment": "otoc-trace", "t_grid": ["0.5"]},
        {"experiment": "sff", "beta_list": [0.0, True]},
        # JSON NaN and Infinity parse as floats and gave NaN rows with exit 0
        {"experiment": "otoc-trace", "t_grid": [float("nan")]},
        {"experiment": "sff", "beta_list": [float("inf")]},
        {"experiment": "design-check", "t_fixed": float("nan")},
        # scaling inputs that gave a truncated t, a one-point fit or NaN second differences
        {"experiment": "otoc-scaling", "t_fixed": 2.5},
        {"experiment": "otoc-scaling", "t_fixed": -1},
        {"experiment": "otoc-scaling", "n_list": [4]},
        {"experiment": "otoc-scaling", "n_list": [4, 8]},
        {"experiment": "otoc-scaling", "n_list": [4, 4, 8]},
        {"experiment": "otoc-scaling", "n_list": [8, 6, 4]},
        # design-check takes 2 copies and the threshold K**-0.3 itself: no t_copies or eps field
        {"experiment": "design-check", "n": 6, "k": 3, "ensemble": 1, "t_copies": 0},
        # misspelled nested keys silently ran 64 seeds and gate seed 7
        {"experiment": "otoc-trace", "estimator": {"mode": "sampled", "num_seed": 8}},
        {"experiment": "otoc-trace", "u_spec": {"type": "random_sign_hadamard", "sed": 3}},
        # a fully degenerate parent spectrum has nothing to pool
        {"experiment": "level-stats", "u_spec": {"type": "identity"}, "exclude_degenerate": False},
        {"experiment": "level-stats", "u_spec": {"type": "identity"}},
        # the exhaustive clamp of a sampled run keeps exact mode's n - k <= 20 cap
        {"experiment": "otoc-trace", "n": 25, "k": 2, "ensemble": 1, "t_grid": [0.0],
         "estimator": {"mode": "sampled", "num_seeds": 2**23}},
        # the fault-injection field is gone; every experiment used to accept and ignore it
        {"experiment": "verify", "inject_fault": "closed-form-sign"},
        {"experiment": "otoc-trace", "inject_fault": "closed-form-sign"},
        # k is a whole number; null no longer falls back to min(n, 4)
        {"experiment": "otoc-trace", "k": None},
        {"experiment": "design-check", "n": 8, "k": 4, "ensemble": 2, "eps": -1.0},
        {"experiment": "design-check", "n": 8, "k": 4, "ensemble": 2, "eps": 0.0},
        {"experiment": "design-check", "n": 8, "k": 4, "ensemble": 2, "eps": float("nan")},
        # coherence reads ensemble like every other driver; trials is no field
        {"experiment": "coherence", "n": 6, "k": 3, "trials": 2},
    ],
)
def test_config_boundary_exit_2(tmp_path, cfg):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main([cfg["experiment"], "--config", str(bad), "--out", str(tmp_path)]) == 2


_OUT_OF_RANGE_SEED = "seed and u_spec seed must lie in [0, 2**64)"
_SAMPLED_ENSEMBLE_CAP = (
    "sampled otoc-trace ensemble 5001 > 5000 would reuse streams: realization r draws p and f "
    "from RngSeed(seed, 2r) and RngSeed(seed, 2r + 1), and its seed sample from RngSeed(seed, 10000 + r)"
)


@pytest.mark.parametrize(
    "cfg, flags, message",
    [
        # a pool of one spacing was rejected with the histogram helper's "need at least 3 eigenvalues"
        ({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 1, "u_spec": {"type": "hadamard"}}, [],
         "level statistics need at least 2 spacings, and 1 survived the degeneracy cut"),
        ({"experiment": "level-stats", "n": 6, "k": 1, "ensemble": 1}, [],
         "level statistics need at least 2 spacings, and 1 survived the degeneracy cut"),
        # RngSeed keeps the low 64 bits: seed -1 ran as 2**64 - 1, and 2**64 as 0
        ({"experiment": "coherence"}, ["--seed", "-1"], _OUT_OF_RANGE_SEED),
        ({"experiment": "coherence"}, ["--seed", str(2**64)], _OUT_OF_RANGE_SEED),
        ({"experiment": "coherence", "seed": -1}, [], _OUT_OF_RANGE_SEED),
        ({"experiment": "otoc-trace", "u_spec": {"type": "random_sign_hadamard", "seed": 2**64}}, [], _OUT_OF_RANGE_SEED),
        ({"experiment": "otoc-trace", "u_spec": {"type": "random_sign_hadamard", "seed": -3}}, [], _OUT_OF_RANGE_SEED),
        # realization 5000 drew p from stream 10000, realization 0's seed sample
        ({"experiment": "otoc-trace", "ensemble": 5001, "estimator": {"mode": "sampled", "num_seeds": 4}}, [],
         _SAMPLED_ENSEMBLE_CAP),
    ],
    ids=["one_spacing_hadamard", "one_spacing_k1", "seed_flag_negative", "seed_flag_2_64", "seed_negative",
         "u_spec_seed_2_64", "u_spec_seed_negative", "sampled_trace_ensemble_5001"],
)
def test_config_boundary_exit_2_message(tmp_path, capsys, cfg, flags, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cfg))
    assert main([cfg["experiment"], "--config", str(bad), "--out", str(tmp_path), *flags]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_seed_range_ends_are_accepted(seed):
    ExperimentConfig("coherence", seed=seed, u_spec={"type": "hadamard", "seed": seed}).validate()


def test_sampled_trace_ensemble_cap_is_5000(tmp_path):
    """5000 sampled realizations keep their streams 0..9999 and 10000..14999
    apart and load; exact mode draws no seed sample and has no such cap."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "otoc-trace", "ensemble": 5000, "estimator": {"mode": "sampled"}}))
    args = argparse.Namespace(config=str(cfg), seed=None, out=None, threads=None)
    assert load_config("otoc-trace", args).ensemble == 5000
    ExperimentConfig("otoc-trace", ensemble=5001).validate()
    with pytest.raises(ConfigError, match="> 5000 would reuse streams"):
        ExperimentConfig("otoc-trace", ensemble=5001, estimator={"mode": "sampled"}).validate()


@pytest.mark.parametrize("top", [[1, 2], "x"], ids=["list", "string"])
def test_config_top_level_must_be_an_object(tmp_path, capsys, top):
    """A config whose top level is valid JSON but no object is a config
    error (exit 2), not an AttributeError traceback (exit 1)."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(top))
    assert main(["otoc-trace", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


def test_resolved_k_is_checked_as_a_config_error(tmp_path, capsys):
    """Only otoc-scaling takes k from the k rule; any other experiment reads
    k, so a k rule there is a config error rather than a silent change of k."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "otoc-trace", "n": 5, "k_rule": "log2sq"}))
    assert main(["otoc-trace", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "config error: k_rule is an otoc-scaling field; otoc-trace reads k, here 4\n"


@pytest.mark.parametrize("sub", ["", "sub"], ids=["file", "under_file"])
def test_unusable_out_directory_exits_2(tmp_path, capsys, sub):
    """--out naming an existing file, or a path under one, is one error line
    with exit 2, not a traceback with exit 1 (the code for a failed check)."""
    afile = tmp_path / "afile"
    afile.write_text("")
    cfg = tmp_path / "ls.json"
    cfg.write_text(json.dumps({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 1}))
    assert main(["level-stats", "--config", str(cfg), "--out", str(afile / sub)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot make output directory: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_verify_flags_are_validated(tmp_path, capsys):
    """verify takes the drivers' config path, so --threads 0 is a config error
    with or without --config (it ran the whole suite without one).  Every
    criterion runs at its own fixed seeds on one thread, so a seed other than
    the default or threads other than 1, from a flag or the config, is a
    config error too: the report used to record a seed no criterion used."""
    assert main(["verify", "--threads", "0", "--out", str(tmp_path)]) == 2
    cfg_path = tmp_path / "cfg.json"
    for flags, cfg in (
        (["--seed", "5"], None),
        (["--threads", "2"], None),
        ([], {"experiment": "verify", "seed": 5}),
        ([], {"experiment": "verify", "threads": 2}),
    ):
        if cfg is not None:
            cfg_path.write_text(json.dumps(cfg))
            flags = ["--config", str(cfg_path)]
        capsys.readouterr()
        assert main(["verify", *flags, "--out", str(tmp_path)]) == 2
        assert "fixed seeds on one thread" in capsys.readouterr().err
    assert not (tmp_path / "verify_report.json").exists()


def test_circuit_emit_samples_once(tmp_path, monkeypatch):
    """The manifest counts the gates of the circuit already built, so the
    permutation and sign function are sampled once per run."""
    from rsedlab import circuits

    calls = []
    for name in ("sample_permutation", "sample_sign_function"):
        fn = getattr(circuits, name)
        monkeypatch.setattr(circuits, name, lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"experiment": "circuit-emit", "n": 8, "k": 4, "seed": 13}))
    assert main(["circuit-emit", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert sorted(calls) == ["sample_permutation", "sample_sign_function"]


def test_pauli_syk_trace_evolves_once_per_t(tmp_path, monkeypatch):
    """A Hamiltonian gate is evolved once per t and realization, with no
    extra e^{-ih0} for a unitary nobody reads."""
    from rsedlab import cli

    calls = []
    evolve = cli.evolve
    monkeypatch.setattr(cli, "evolve", lambda *a, **kw: calls.append(a[1]) or evolve(*a, **kw))
    cfg = {
        "experiment": "otoc-trace",
        "n": 6,
        "k": 3,
        "u_spec": {"type": "pauli_syk", "seed": 2},
        "t_grid": [0.0, 0.5, 2.0],
        "ensemble": 2,
        "sites": [0, 5],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert calls == cfg["t_grid"] * cfg["ensemble"]


def test_otoc_trace_holds_one_gate_at_a_time(tmp_path):
    """k = 10 over 8 integer t: each K = 1024 gate is evolved when its t comes
    up and dropped before the next, so the traced peak stays below the
    128 MiB of holding all 8 evolved (complex, 16 MiB) gates at once."""
    cfg = {
        "experiment": "otoc-trace", "n": 11, "k": 10, "sites": [0, 10], "ensemble": 1,
        "u_spec": {"type": "hadamard"}, "t_grid": [float(t) for t in range(8)],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    tracemalloc.start()
    try:
        assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 16 * (1 << 20)


@pytest.mark.parametrize("mode", ["exact", "sampled"])
def test_otoc_trace_maps_positions_once_per_chunk_and_gate_group(tmp_path, monkeypatch, mode):
    """The driver makes one ZZ call per realization for its whole t grid:
    with chunks and gate groups of 3 (K = 16), 7 t values are 3 groups and
    64 seeds (or 40 draws) are 22 (14) chunks, so each realization maps its
    block positions 66 (42) times, not once per chunk and t (154 (98))."""
    from rsedlab import cli, otoc
    from rsedlab.rsed import RsedOperator

    monkeypatch.setattr(otoc, "_CHUNK_ENTRIES", 3 * 16 * 16)
    calls, mapped = [], []
    name = "otoc_zz_exact" if mode == "exact" else "otoc_zz_sampled"
    zz = getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *a: calls.append(a[0]) or zz(*a))
    block_positions = RsedOperator.block_positions
    monkeypatch.setattr(RsedOperator, "block_positions", lambda *a: mapped.append(1) or block_positions(*a))
    cfg = {
        "experiment": "otoc-trace", "n": 10, "k": 4, "sites": [1, 8], "ensemble": 2,
        "t_grid": [0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0], "estimator": {"mode": mode, "num_seeds": 40},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["otoc-trace", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert len(calls) == cfg["ensemble"]
    assert len(mapped) == cfg["ensemble"] * 3 * (22 if mode == "exact" else 14)


_DRIVER_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from rsedlab.cli import main
experiment = json.load(open(sys.argv[2]))["experiment"]
sys.exit(main([experiment, "--config", sys.argv[2], "--out", sys.argv[3], "--threads", sys.argv[4]]))
"""


def _csvs_across_threads(tmp_path, cfg: dict, csv_name: str, settings) -> set[bytes]:
    """The bytes of csv_name from cfg's driver run under each
    (OPENBLAS_NUM_THREADS, --threads) pair of settings, one fresh process
    per run, since OpenBLAS reads the variable when it loads."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(rsedlab.__file__).resolve().parents[1])
    outs = {(blas, threads): tmp_path / f"blas{blas}-threads{threads}" for blas, threads in settings}
    runs = [
        subprocess.Popen(
            [sys.executable, "-c", _DRIVER_RUN, src, str(cfg_path), str(out), str(threads)],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(blas)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for (blas, threads), out in outs.items()
    ]
    errs = [run.communicate(timeout=120)[1] for run in runs]
    assert all(run.returncode == 0 for run in runs), errs
    return {(out / csv_name).read_bytes() for out in outs.values()}


_BLAS_AND_DRIVER_THREADS = [(blas, threads) for blas in (1, 2) for threads in (1, 2)]


@pytest.mark.parametrize(
    "shape",
    [{"n": 12, "k": 8, "sites": [0, 9]}, {"n": 17, "k": 6, "sites": [0, 16]}],
    ids=["table", "feistel"],
)
def test_otoc_trace_csv_is_independent_of_blas_and_driver_threads(tmp_path, shape):
    """Integer t only: otoc_trace.csv is the same bytes under
    OPENBLAS_NUM_THREADS 1 and 2 crossed with --threads 1 and 2, at a table
    shape whose K = 256 Gram products OpenBLAS threads and at a Feistel one."""
    cfg = {"experiment": "otoc-trace", "ensemble": 2, "t_grid": [0, 1, 2, 3, 4], **shape}
    assert len(_csvs_across_threads(tmp_path, cfg, "otoc_trace.csv", _BLAS_AND_DRIVER_THREADS)) == 1


@pytest.mark.parametrize("u_spec", [{"type": "random_sign_hadamard", "seed": 3}, {"type": "hadamard"}], ids=["random_sign_hadamard", "hadamard"])
def test_fractional_otoc_trace_csv_is_independent_of_blas_threads(tmp_path, u_spec):
    """Fractional t at the Feistel shape n = 17, k = 6 (K = 64): the Schur
    forms, and so the powers and otoc_trace.csv, are the same bytes under
    OPENBLAS_NUM_THREADS 1 and 2, for random-sign gates and for the Hadamard
    layer, whose -1 eigenspace is degenerate."""
    cfg = {"experiment": "otoc-trace", "n": 17, "k": 6, "sites": [0, 16], "ensemble": 2, "t_grid": [0.25, 0.5, 1.5, 3.5], "u_spec": u_spec}
    assert len(_csvs_across_threads(tmp_path, cfg, "otoc_trace.csv", [(1, 1), (2, 1)])) == 1


def test_coherence_csv_is_independent_of_blas_and_driver_threads(tmp_path):
    """coherence.csv at n = 16, k = 6 is the same bytes under
    OPENBLAS_NUM_THREADS 1 and 2 crossed with --threads 1 and 2: the
    Hadamard layer is _walsh_hadamard, whose products all stay under
    pool.BLAS_SERIAL_SIZE."""
    cfg = {"experiment": "coherence", "n": 16, "k": 6, "ensemble": 4}
    assert len(_csvs_across_threads(tmp_path, cfg, "coherence.csv", _BLAS_AND_DRIVER_THREADS)) == 1


_SCIPY_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
from rsedlab.cli import ExperimentConfig, main
cfg = json.load(open(sys.argv[2]))
ExperimentConfig(**cfg).validate()
predicted = "scipy.linalg" in sys.modules
code = main([cfg["experiment"], "--config", sys.argv[2], "--out", sys.argv[3]])
print(json.dumps([code, predicted, "scipy.linalg" in sys.modules, "scipy" in sys.modules]))
"""


@pytest.mark.parametrize(
    "cfg, schur",
    [
        ({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 3, "u_spec": {"type": "hadamard"}}, False),
        ({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 2}, False),
        ({"experiment": "level-stats", "n": 6, "k": 4, "ensemble": 2, "u_spec": {"type": "pauli_syk"}}, False),
        ({"experiment": "otoc-trace", "n": 6, "k": 3, "sites": [0, 4], "t_grid": [0.0, 1.0, 2.0], "ensemble": 1}, False),
        ({"experiment": "otoc-trace", "n": 6, "k": 3, "sites": [0, 4], "t_grid": [0.0, 0.5], "ensemble": 1}, True),
        ({"experiment": "otoc-average", "n": 6, "k": 3, "t_grid": [1.0, 1.5], "ensemble": 1}, True),
        ({"experiment": "sff", "n": 6, "k": 3}, False),
        ({"experiment": "design-check", "n": 6, "k": 3, "t_fixed": 2, "ensemble": 1}, False),
        ({"experiment": "design-check", "n": 6, "k": 3, "t_fixed": 2.5, "ensemble": 1}, True),
        ({"experiment": "otoc-scaling", "n_list": [4, 6, 8], "k_rule": "log2sq", "t_fixed": 2, "ensemble": 1}, False),
        ({"experiment": "coherence", "n": 6, "k": 3, "ensemble": 3}, False),
        ({"experiment": "circuit-emit", "n": 6, "k": 3}, False),
    ],
    ids=lambda v: v if isinstance(v, bool) else f"{v['experiment']}-{v.get('u_spec', {}).get('type', '')}",
)
def test_schur_prediction_matches_what_the_driver_loads(tmp_path, cfg, schur):
    """validate() imports scipy.linalg exactly when the driver takes a Schur
    form, so the import is paid in set-up; each run is a fresh process, since
    a module once imported stays in sys.modules.  level-stats, sff and
    otoc-scaling load no part of scipy at all."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    src = str(Path(rsedlab.__file__).resolve().parents[1])
    probe = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, src, str(cfg_path), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
    )
    assert probe.returncode == 0, probe.stderr
    code, predicted, loaded, any_scipy = json.loads(probe.stdout.splitlines()[-1])
    assert code == 0
    assert predicted == loaded == schur
    if cfg["experiment"] in ("level-stats", "sff", "otoc-scaling"):
        assert not any_scipy
