"""Experiment drivers with seeded configs and CSV/JSON outputs.

Subcommands: otoc-trace, otoc-scaling, otoc-average, level-stats, sff,
design-check, coherence, circuit-emit, verify.  Global flags --config PATH,
--seed U64, --out DIR, --threads INT; everything else lives in the JSON
config.  Exit codes: 0 success, 1 verification failure, 2 usage/config
error or input the library rejects (a ValueError raised inside a driver).
Outputs embed the config, seed, and library version, and re-running with the
same config reproduces the numeric columns bit for bit.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from math import ceil, log2
from pathlib import Path

import numpy as np

from . import __version__
from .acceptance import fit_loglog, report_dict, run_all
from .bitcore import SystemShape
from .circuits import build_manifest, serialize, simulate_circuit, synthesize_rsed_circuit
from .otoc import (
    otoc_zz_exact,
    otoc_zz_f_average,
    otoc_zz_sampled,
    poisson_bracket,
)
from .prs import (
    HadamardLayer,
    append_layer,
    coherence_rel_entropy,
    design_variance_condition,
    element_condition_check,
    subset_phase_state,
)
from .randomness import sample_permutation, sample_sign_function, save_permutation
from .rng import RngSeed
from .rsed import RsedOperator, dense_matrix
from .spectra import (
    export_histogram_csv,
    ks_distance,
    level_spacing_stats,
    rsed_sff,
    spectral_form_factor,
)
from .subsystem import (
    SubHamiltonian,
    SubUnitary,
    evolve,
    hadamard_layer,
    hadamard_sign_power,
    parent_hamiltonian,
    parent_spectrum,
    pauli_syk,
    random_sign_hadamard,
    unitary_power,
)


class ConfigError(ValueError):
    pass


_FIELD_TYPES = {"int": int, "float": (int, float), "bool": bool, "str": str, "list": list, "dict": dict, "None": type(None)}


def _type_ok(value, annotation: str) -> bool:
    """isinstance against a field annotation such as "int | None"; a bool is no number."""
    kinds = annotation.split(" | ")
    if isinstance(value, bool):
        return "bool" in kinds
    return any(isinstance(value, _FIELD_TYPES[kind]) for kind in kinds)


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 8
    k: int | None = 4
    k_rule: str | None = None  # "log2sq" resolves k = ceil(log2(n)**2)
    n_list: list = field(default_factory=list)
    u_spec: dict = field(default_factory=lambda: {"type": "random_sign_hadamard", "seed": 7})
    t_grid: list = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0])
    t_fixed: float = 4.0
    ensemble: int = 8
    trials: int = 100
    sites: list = field(default_factory=lambda: [0, 1])
    estimator: dict = field(default_factory=lambda: {"mode": "exact"})
    beta_list: list = field(default_factory=lambda: [0.0, 1.0])
    t_copies: int = 2
    b_star: int = 0
    eps: float = 0.3
    exclude_degenerate: bool = True
    seed: int = 1
    out: str = "."
    threads: int = 1
    inject_fault: str | None = None

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, f.type):
                raise ConfigError(f"config field {f.name!r} must be {f.type}, got {type(value).__name__}")
        if self.experiment not in _DRIVERS and self.experiment != "verify":
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.k is not None and self.k_rule is None and not 1 <= self.k <= min(self.n, 12):
            raise ConfigError(f"k={self.k} out of range for n={self.n}")
        if self.k_rule not in (None, "log2sq"):
            raise ConfigError(f"unknown k_rule {self.k_rule!r}")
        if self.ensemble < 1 or self.trials < 1:
            raise ConfigError("ensemble and trials must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if len(self.sites) != 2 or not all(_type_ok(s, "int") for s in self.sites) or self.sites[0] == self.sites[1]:
            raise ConfigError("sites must be two distinct site indices")
        if not all(0 <= s < self.n for s in self.sites):
            raise ConfigError(f"sites {self.sites} out of range [0, {self.n})")
        for n in self.n_list:
            if not _type_ok(n, "int") or n < 2 or ceil(log2(n) ** 2) > 12:
                raise ConfigError(f"n_list entry {n} needs 2 <= n with ceil(log2(n)**2) <= 12")
        if self.u_spec.get("type") not in ("hadamard", "random_sign_hadamard", "pauli_syk", "identity"):
            raise ConfigError(f"unknown u_spec type {self.u_spec.get('type')!r}")
        if self.estimator.get("mode", "exact") not in ("exact", "sampled"):
            raise ConfigError(f"unknown estimator mode {self.estimator.get('mode')!r}")
        if not _type_ok(self.u_spec.get("seed", 7), "int") or not _type_ok(self.estimator.get("num_seeds", 64), "int"):
            raise ConfigError("u_spec seed and estimator num_seeds must be integers")


def resolve_k(cfg: ExperimentConfig, n: int) -> int:
    if cfg.k_rule == "log2sq":
        k = ceil(log2(n) ** 2)
    else:
        k = cfg.k if cfg.k is not None else min(n, 4)
    if k > 12:
        raise ConfigError(f"k={k} exceeds the dense cap 12")
    return min(k, n) if cfg.k_rule is None else k


def base_unitary(cfg: ExperimentConfig, k: int, realization: int) -> tuple[SubUnitary, SubHamiltonian | None]:
    """(u, h) for one ensemble member; h is set for Hamiltonian dynamics."""
    kind = cfg.u_spec["type"]
    seed = RngSeed(cfg.u_spec.get("seed", 7), realization)
    if kind == "identity":
        return SubUnitary(k, np.eye(1 << k, dtype=complex)), None
    if kind == "hadamard":
        return hadamard_layer(k), None
    if kind == "random_sign_hadamard":
        return random_sign_hadamard(k, seed), None
    if kind == "pauli_syk":
        h = pauli_syk(k, seed)
        return evolve(h, 0.0), h
    raise ConfigError(f"unknown u_spec type {kind!r}")


def evolved(u: SubUnitary, h: SubHamiltonian | None, t: float) -> SubUnitary:
    if h is not None:
        return evolve(h, t)
    if float(t).is_integer() and t >= 0:
        return unitary_power(u, int(t))
    return unitary_power(u, float(t))


def _meta_lines(cfg: ExperimentConfig) -> list[str]:
    blob = json.dumps(asdict(cfg), sort_keys=True)
    return [f"# config: {blob}", f"# seed: {cfg.seed}", f"# version: rsedlab {__version__}"]


def _cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    lines = _meta_lines(cfg) + [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    path.write_text("\n".join(lines) + "\n")


def write_json(path: Path, cfg: ExperimentConfig, payload: dict) -> None:
    payload = {"config": asdict(cfg), "version": f"rsedlab {__version__}", **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _parallel(cfg: ExperimentConfig, fn, args_list):
    """Ordered map over realizations; results identical for any thread count."""
    if cfg.threads == 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, args_list))


# --- drivers -----------------------------------------------------------------


def run_otoc_trace(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    shape = SystemShape(cfg.n, k)
    i, j = cfg.sites

    def one(r: int) -> list[float]:
        u, h = base_unitary(cfg, k, r)
        p = sample_permutation(shape, RngSeed(cfg.seed, 2 * r))
        f = sample_sign_function(shape, RngSeed(cfg.seed, 2 * r + 1))
        col = []
        for t in cfg.t_grid:
            op = RsedOperator(shape, p, f, evolved(u, h, float(t)))
            if cfg.estimator.get("mode") == "sampled":
                est = otoc_zz_sampled(op, i, j, cfg.estimator.get("num_seeds", 64), RngSeed(cfg.seed, 10_000 + r), t=float(t))
            else:
                est = otoc_zz_exact(op, i, j, t=float(t))
            col.append(poisson_bracket(est))
        return col

    cols = _parallel(cfg, one, range(cfg.ensemble))
    rows = []
    for t_idx, t in enumerate(cfg.t_grid):
        vals = [cols[r][t_idx] for r in range(cfg.ensemble)]
        rows.append([float(t), *vals, float(np.mean(vals)), float(np.std(vals) / np.sqrt(len(vals)))])
    header = ["t"] + [f"C_r{r}" for r in range(cfg.ensemble)] + ["mean", "sem"]
    write_csv(out / "otoc_trace.csv", cfg, header, rows)
    summary = {"mean_final": rows[-1][-2], "n": cfg.n, "k": k}
    write_json(out / "otoc_trace_summary.json", cfg, summary)
    return summary


def run_otoc_scaling(cfg: ExperimentConfig, out: Path) -> dict:
    ns = cfg.n_list or [4, 6, 8, 11]
    t = int(cfg.t_fixed)
    rows = []
    for n in ns:
        k = ceil(log2(n) ** 2)
        vals = [
            otoc_zz_f_average(hadamard_sign_power(k, RngSeed(cfg.seed, 100 * n + r), t))
            for r in range(cfg.ensemble)
        ]
        rows.append([int(n), int(k), float(np.mean(np.abs(vals)))])
    write_csv(out / "otoc_scaling.csv", cfg, ["n", "k", "abs_mean_otoc"], rows)
    slope, second = fit_loglog(rows)
    summary = {
        "fitted_slope": slope,
        "second_differences": [float(v) for v in second],
        "concave": bool(all(v < 0 for v in second)),
        "rows": [[int(a), int(b), float(c)] for a, b, c in rows],
    }
    write_json(out / "otoc_scaling_summary.json", cfg, summary)
    return summary


def run_otoc_average(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    cols = []  # one gate per realization, so its Schur form serves every t
    for r in range(cfg.ensemble):
        u, h = base_unitary(cfg, k, r)
        cols.append([otoc_zz_f_average(evolved(u, h, float(t))) for t in cfg.t_grid])
    rows = []
    for t_idx, t in enumerate(cfg.t_grid):
        vals = [col[t_idx] for col in cols]
        rows.append([float(t), float(np.mean(vals)), float(1.0 - np.mean(vals))])
    write_csv(out / "otoc_average.csv", cfg, ["t", "mean_EfO", "mean_C"], rows)
    summary = {"final_mean_EfO": rows[-1][1], "k": k}
    write_json(out / "otoc_average_summary.json", cfg, summary)
    return summary


def run_level_stats(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)

    def one(r: int) -> np.ndarray:
        u, h = base_unitary(cfg, k, r)
        evals = np.sort(h.eigenvalues) if h is not None else parent_spectrum(u)
        gaps = np.diff(evals)
        if cfg.exclude_degenerate:
            gaps = gaps[gaps >= 1e-12]
        return gaps / gaps.mean() if gaps.size else gaps

    pooled = [g for g in _parallel(cfg, one, range(cfg.ensemble)) if g.size]
    spac = np.concatenate(pooled)
    # histogram the pooled spacings by feeding their cumulative sum back in
    # as a synthetic spectrum whose gaps are exactly `spac`
    report = level_spacing_stats(np.cumsum(np.concatenate([[0.0], spac])), exclude_degenerate=False)
    export_histogram_csv(report, out / "level_stats_hist.csv")
    ks_goe = ks_distance(spac, "GOE")
    ks_gue = ks_distance(spac, "GUE")
    summary = {
        "ks_goe": ks_goe,
        "ks_gue": ks_gue,
        "pass_goe": bool(ks_goe <= 0.08),
        "spacing_count": int(spac.size),
        "k": k,
    }
    write_json(out / "level_stats_summary.json", cfg, summary)
    return summary


def run_sff(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    shape = SystemShape(cfg.n, k)
    u, h = base_unitary(cfg, k, 0)
    h_par = h if h is not None else parent_hamiltonian(u)
    rows = []
    ok = True
    for beta in cfg.beta_list:
        for t in cfg.t_grid:
            r2s = spectral_form_factor(h_par, float(beta), float(t))
            full = rsed_sff(shape, h_par, float(beta), float(t))
            ratio = full / r2s if r2s else float("nan")
            ok = ok and full == 4.0 ** (cfg.n - k) * r2s
            rows.append([float(beta), float(t), r2s, full, float(ratio)])
    write_csv(out / "sff.csv", cfg, ["beta", "t", "r2_sub", "r2_full", "ratio"], rows)
    summary = {"factor": 4.0 ** (cfg.n - k), "exact_factorization": bool(ok)}
    write_json(out / "sff_summary.json", cfg, summary)
    return summary


def run_design_check(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    K = 1 << k
    rows = []
    worst = 0.0
    for r in range(cfg.ensemble):
        u, h = base_unitary(cfg, k, r)
        ut = evolved(u, h, cfg.t_fixed)
        dv = design_variance_condition(ut, cfg.t_copies, cfg.b_star)
        ec = element_condition_check(ut, cfg.eps)
        rows.append([r, float(dv.value), int(dv.degenerate), float(ec.max_column_fraction), int(ec.passed)])
        if not dv.degenerate:
            worst = max(worst, dv.value)
    write_csv(out / "design_check.csv", cfg, ["realization", "ybar", "degenerate", "exceed_fraction", "element_pass"], rows)
    summary = {"max_ybar": worst, "threshold": K**-0.5, "pass": bool(worst <= K**-0.5)}
    write_json(out / "design_check_summary.json", cfg, summary)
    return summary


def run_coherence(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    shape = SystemShape(cfg.n, k)

    def one(r: int) -> tuple[float, float]:
        p = sample_permutation(shape, RngSeed(cfg.seed, 2 * r))
        f = sample_sign_function(shape, RngSeed(cfg.seed, 2 * r + 1))
        psi = subset_phase_state(p, f, r % shape.num_seeds, shape)
        c0 = coherence_rel_entropy(psi)
        c1 = coherence_rel_entropy(append_layer(psi, HadamardLayer(tuple(range(cfg.n)))))
        return float(c0), float(c1)

    rows = []
    passes = 0
    for r, (c0, c1) in enumerate(_parallel(cfg, one, range(cfg.trials))):
        lifted = c1 >= (cfg.n / 4.0) * np.log(2.0)
        passes += int(lifted)
        rows.append([r, c0, c1, int(lifted)])
    write_csv(out / "coherence.csv", cfg, ["trial", "coherence_nats", "after_hadamard_nats", "lifted"], rows)
    summary = {
        "expected_nats": k * float(np.log(2.0)),
        "max_dev": max(abs(r[1] - k * np.log(2.0)) for r in rows),
        "lift_passes": passes,
        "trials": cfg.trials,
    }
    write_json(out / "coherence_summary.json", cfg, summary)
    return summary


def run_circuit_emit(cfg: ExperimentConfig, out: Path) -> dict:
    k = resolve_k(cfg, cfg.n)
    shape = SystemShape(cfg.n, k)
    kind = cfg.u_spec["type"]
    if kind == "hadamard":
        spec = "hadamard"
    elif kind == "random_sign_hadamard":
        spec = ("random_sign_hadamard", cfg.u_spec.get("seed", 7))
    else:
        raise ConfigError("circuit-emit supports hadamard / random_sign_hadamard u_specs")
    circuit = synthesize_rsed_circuit(shape, spec, cfg.seed, cfg.seed + 1)
    (out / "circuit.txt").write_text(serialize(circuit))
    manifest = build_manifest(shape, spec, cfg.seed, cfg.seed + 1)
    (out / "circuit_manifest.json").write_text(manifest.to_json() + "\n")
    perm = circuit.registry["perm0"]
    sidecar = out / "perm0.rsedperm"
    if perm.table is not None:
        save_permutation(perm, sidecar)
    summary: dict = {"gates": circuit.gate_counts(), "sidecar": sidecar.name}
    if cfg.n <= 10:
        u, _ = base_unitary(cfg, k, 0)
        op = RsedOperator(shape, perm, circuit.registry["f0"], u)
        dev = float(np.max(np.abs(simulate_circuit(circuit, dense=True) - dense_matrix(op))))
        summary["dense_deviation"] = dev
    write_json(out / "circuit_summary.json", cfg, summary)
    return summary


def run_verify(cfg: ExperimentConfig, out: Path) -> int:
    results = run_all(inject=cfg.inject_fault)
    payload = report_dict(results)
    write_json(out / "verify_report.json", cfg, payload)
    for r in results:
        print(r.line())
    failures = payload["failures"]
    print(f"verify: {len(results) - len(failures)}/{len(results)} checks passed; report in {out / 'verify_report.json'}")
    return 0 if not failures else 1


_DRIVERS = {
    "otoc-trace": run_otoc_trace,
    "otoc-scaling": run_otoc_scaling,
    "otoc-average": run_otoc_average,
    "level-stats": run_level_stats,
    "sff": run_sff,
    "design-check": run_design_check,
    "coherence": run_coherence,
    "circuit-emit": run_circuit_emit,
}


def load_config(experiment: str, args) -> ExperimentConfig:
    data = {}
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}")
    data.setdefault("experiment", experiment)
    if data["experiment"] != experiment:
        raise ConfigError(f"config experiment {data['experiment']!r} does not match subcommand {experiment!r}")
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = ExperimentConfig(**data)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="rsed", description=__doc__)
    parser.add_argument("--version", action="version", version=f"rsedlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(_DRIVERS) + ["verify"]:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", type=str, default=None)
        sp.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            cfg = load_config("verify", args) if args.config else ExperimentConfig(experiment="verify")
            if args.out is not None:
                cfg.out = args.out
            if args.seed is not None:
                cfg.seed = args.seed
            out = Path(cfg.out)
            out.mkdir(parents=True, exist_ok=True)
            return run_verify(cfg, out)
        cfg = load_config(args.command, args)
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        _DRIVERS[args.command](cfg, out)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # input the library rejects, found inside a driver
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
