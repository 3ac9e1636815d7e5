"""Experiment drivers with seeded configs and CSV/JSON outputs.

Subcommands: otoc-trace, otoc-scaling, otoc-average, level-stats, sff,
design-check, coherence, circuit-emit, verify.  Global flags --config PATH,
--seed U64, --out DIR, --threads INT; everything else lives in the JSON
config.  Exit codes: 0 success, 1 verification failure, 2 usage/config
error, an output directory that cannot be made, or input the library
rejects (a ValueError raised inside a driver).
Outputs embed the config (without out and threads), seed, and library
version, and re-running with the same config reproduces the numeric columns
bit for bit.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from math import ceil, inf, log2
from pathlib import Path

import numpy as np

from . import __version__
from .bitcore import SystemShape, join
from .circuits import DEFAULT_GATE_SEED, build_manifest, serialize, simulate_circuit, synthesize_rsed_circuit
from .otoc import (
    _fourth_power_sum,
    otoc_zz_exact,
    otoc_zz_f_average,
    otoc_zz_sampled,
    poisson_bracket,
)
from .pool import _ordered_map, one_blas_thread
from .prs import coherence_trial, design_variance_condition, element_condition_check
from .randomness import sample_permutation, sample_sign_function, save_permutation
from .rng import RngSeed
from .rsed import RsedOperator, dense_matrix, evolve_basis_state
from .spectra import ks_distance, level_spacing_stats, spectral_form_factor
from .subsystem import (
    MAX_SUB_QUBITS,
    SubHamiltonian,
    SubUnitary,
    _hadamard_sign_builder,
    column_batches,
    evolve,
    hadamard_layer,
    # not called here: perfbench/tracing.py wraps cli.hadamard_sign_power, and
    # tests/test_perfbench_names.py expects all 16 of its names to resolve
    hadamard_sign_power,
    identity_gate,
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
    k: int = 4
    k_rule: str | None = None  # otoc-scaling only, which takes k = log2sq_k(n) in any case
    n_list: list = field(default_factory=list)
    u_spec: dict = field(default_factory=lambda: {"type": "random_sign_hadamard", "seed": DEFAULT_GATE_SEED})
    t_grid: list = field(default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 4.0])
    t_fixed: float = 4.0
    ensemble: int = 8
    sites: list = field(default_factory=lambda: [0, 1])
    estimator: dict = field(default_factory=lambda: {"mode": "exact"})
    beta_list: list = field(default_factory=lambda: [0.0, 1.0])
    seed: int = 1
    out: str = "."
    threads: int = 1

    def validate(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not _type_ok(value, f.type):
                raise ConfigError(f"config field {f.name!r} must be {f.type}, got {type(value).__name__}")
        if self.experiment not in _DRIVERS and self.experiment != "verify":
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.k_rule not in (None, "log2sq"):
            raise ConfigError(f"unknown k_rule {self.k_rule!r}")
        # otoc-scaling takes k = log2sq_k(n) per n_list entry and never reads k, sites or u_spec
        scaling = self.experiment == "otoc-scaling"
        if not scaling and self.k_rule is not None:
            raise ConfigError(f"k_rule is an otoc-scaling field; {self.experiment} reads k, here {self.k}")
        if not scaling and not 1 <= self.k <= min(self.n, MAX_SUB_QUBITS):
            raise ConfigError(f"k={self.k} out of range for n={self.n} (at most min(n, {MAX_SUB_QUBITS}))")
        if self.ensemble < 1:
            raise ConfigError("ensemble must be >= 1")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.experiment == "verify" and (self.seed != ExperimentConfig.seed or self.threads != 1):
            raise ConfigError("verify runs every criterion at its own fixed seeds on one thread; it takes no seed or threads")
        if len(self.sites) != 2 or not all(_type_ok(s, "int") for s in self.sites) or self.sites[0] == self.sites[1]:
            raise ConfigError("sites must be two distinct site indices")
        if not scaling and not all(0 <= s < self.n for s in self.sites):
            raise ConfigError(f"sites {self.sites} out of range [0, {self.n})")
        for n in self.n_list:
            if not _type_ok(n, "int") or n < 2 or log2sq_k(n) > MAX_SUB_QUBITS:
                raise ConfigError(f"n_list entry {n} needs n >= 2 and k = log2sq_k(n) <= {MAX_SUB_QUBITS}")
        if not self.t_grid:
            raise ConfigError("t_grid must not be empty")
        if not all(_type_ok(v, "float") and -inf < v < inf for v in [*self.t_grid, *self.beta_list, self.t_fixed]):
            raise ConfigError("t_grid and beta_list entries and t_fixed must be finite numbers")
        if scaling:
            if self.t_fixed < 0 or not float(self.t_fixed).is_integer():
                raise ConfigError(f"otoc-scaling needs an integer t_fixed >= 0, got {self.t_fixed}")
            if self.n_list and (len(self.n_list) < 3 or any(a >= b for a, b in zip(self.n_list, self.n_list[1:]))):
                raise ConfigError(f"n_list {self.n_list} needs at least 3 strictly increasing entries")
        if not scaling and self.u_spec.get("type") not in ("hadamard", "random_sign_hadamard", "pauli_syk", "identity"):
            raise ConfigError(f"unknown u_spec type {self.u_spec.get('type')!r}")
        # both embed a Hadamard-sign gate: the circuit synthesizes one, and coherence's k log 2 needs flat columns
        if self.experiment in ("circuit-emit", "coherence") and self.u_spec["type"] not in ("hadamard", "random_sign_hadamard"):
            raise ConfigError(f"{self.experiment} supports hadamard / random_sign_hadamard u_specs")
        if self.estimator.get("mode", "exact") not in ("exact", "sampled"):
            raise ConfigError(f"unknown estimator mode {self.estimator.get('mode')!r}")
        if self.experiment == "otoc-trace" and self.estimator.get("mode") == "sampled" and self.ensemble > 5000:
            raise ConfigError(
                f"sampled otoc-trace ensemble {self.ensemble} > 5000 would reuse streams: realization r draws p and f "
                "from RngSeed(seed, 2r) and RngSeed(seed, 2r + 1), and its seed sample from RngSeed(seed, 10000 + r)"
            )
        if not _type_ok(self.u_spec.get("seed", DEFAULT_GATE_SEED), "int") or not _type_ok(self.estimator.get("num_seeds", 64), "int"):
            raise ConfigError("u_spec seed and estimator num_seeds must be integers")
        # RngSeed keeps the low 64 bits, so -1 would silently run as 2**64 - 1
        if not all(0 <= s < 2**64 for s in (self.seed, self.u_spec.get("seed", DEFAULT_GATE_SEED))):
            raise ConfigError("seed and u_spec seed must lie in [0, 2**64)")
        for name, known in (("u_spec", {"type", "seed"}), ("estimator", {"mode", "num_seeds"})):
            if unknown := set(getattr(self, name)) - known:
                raise ConfigError(f"unknown {name} keys: {sorted(unknown)}")
        _preload_schur(self)


def _preload_schur(cfg: ExperimentConfig) -> None:
    """Import scipy.linalg during set-up if the run takes a Schur form: verify,
    or u**t at a t not a whole number >= 0 (see evolved) of a gate other than
    pauli_syk, which evolves through its own eigh.  Other runs never load
    scipy: every other gate is real, so its spectrum (gate_spectrum) comes
    from a symmetric eigenproblem.  No output depends on this guess, only
    where the import is paid."""
    ts = [cfg.t_fixed] if cfg.experiment == "design-check" else cfg.t_grid
    powers = cfg.experiment in ("otoc-trace", "otoc-average", "design-check")
    fractional = powers and any(t < 0 or not float(t).is_integer() for t in ts)
    if cfg.experiment == "verify" or (cfg.u_spec.get("type") != "pauli_syk" and fractional):
        import scipy.linalg  # noqa: F401


def log2sq_k(n: int) -> int:
    """The subsystem size k = ceil(log2(n)^2) = omega(log n) of the scaling curve."""
    return ceil(log2(n) ** 2)


def base_gate(cfg: ExperimentConfig, realization: int) -> SubUnitary | SubHamiltonian:
    """Realization r's gate on cfg.k qubits as cfg.u_spec names it, seeded by
    RngSeed(u_spec seed, r): a SubUnitary u, or for pauli_syk the
    SubHamiltonian h of the dynamics u = e^{-iht} (see evolved)."""
    k, kind = cfg.k, cfg.u_spec["type"]
    seed = RngSeed(cfg.u_spec.get("seed", DEFAULT_GATE_SEED), realization)
    if kind == "identity":
        return identity_gate(k)
    if kind == "hadamard":
        return hadamard_layer(k)
    if kind == "random_sign_hadamard":
        return random_sign_hadamard(k, seed)
    if kind == "pauli_syk":
        return pauli_syk(k, seed)
    raise ConfigError(f"unknown u_spec type {kind!r}")


def gate_spectrum(gate: SubUnitary | SubHamiltonian) -> np.ndarray:
    """The sorted spectrum of a gate: the energies of a SubHamiltonian (eigh
    sorts them), else its parent spectrum."""
    return gate.eigenvalues if isinstance(gate, SubHamiltonian) else parent_spectrum(gate)


def evolved(gate: SubUnitary | SubHamiltonian, t: float) -> SubUnitary:
    """The gate at time t: e^{-iht} for a SubHamiltonian h, else u**t
    (matrix_power for whole t >= 0, the Schur eigenpath cached on u else)."""
    if isinstance(gate, SubHamiltonian):
        return evolve(gate, t)
    if float(t).is_integer() and t >= 0:
        return unitary_power(gate, int(t))
    return unitary_power(gate, float(t))


def _recorded(cfg: ExperimentConfig) -> dict:
    """The config as outputs embed it, without out and threads: the output
    directory is a deployment path and no result depends on the thread count."""
    return {k: v for k, v in asdict(cfg).items() if k not in ("out", "threads")}


def _meta_lines(cfg: ExperimentConfig) -> list[str]:
    blob = json.dumps(_recorded(cfg), sort_keys=True)
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
    payload = {"config": _recorded(cfg), "version": f"rsedlab {__version__}", **payload}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _realization(cfg: ExperimentConfig, shape: SystemShape, r: int):
    """(p, f) of realization r: p from stream 2r of the run seed, f from 2r + 1."""
    p = sample_permutation(shape, RngSeed(cfg.seed, 2 * r))
    return p, sample_sign_function(shape, RngSeed(cfg.seed, 2 * r + 1))


def _parallel(cfg: ExperimentConfig, fn, args_list):
    """Ordered map over realizations; results identical for any thread count."""
    if cfg.threads == 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(fn, args_list))


# --- drivers -----------------------------------------------------------------


def run_otoc_trace(cfg: ExperimentConfig, out: Path) -> dict:
    shape = SystemShape(cfg.n, cfg.k)
    i, j = cfg.sites

    def one(r: int) -> list[float]:
        gate = base_gate(cfg, r)
        p, f = _realization(cfg, shape, r)
        gates = (evolved(gate, float(t)) for t in cfg.t_grid)
        if cfg.estimator.get("mode") == "sampled":
            ests = otoc_zz_sampled(p, f, i, j, gates, cfg.estimator.get("num_seeds", 64), RngSeed(cfg.seed, 10_000 + r))
        else:
            ests = otoc_zz_exact(p, f, i, j, gates)
        return [poisson_bracket(est) for est in ests]

    cols = _parallel(cfg, one, range(cfg.ensemble))
    rows = []
    for t_idx, t in enumerate(cfg.t_grid):
        vals = [cols[r][t_idx] for r in range(cfg.ensemble)]
        rows.append([float(t), *vals, float(np.mean(vals)), float(np.std(vals) / np.sqrt(len(vals)))])
    header = ["t"] + [f"C_r{r}" for r in range(cfg.ensemble)] + ["mean", "sem"]
    write_csv(out / "otoc_trace.csv", cfg, header, rows)
    summary = {"mean_final": rows[-1][-2], "n": cfg.n, "k": cfg.k}
    write_json(out / "otoc_trace_summary.json", cfg, summary)
    return summary


def hadamard_sign_f_average(k: int, seed: RngSeed, t: int) -> float:
    """otoc_zz_f_average((H^{tensor k} P)^t) without the K x K gate.

    Each batch of column_batches (32 columns at k = 12) is built and reduced
    to its sum of |u|**4 by one call on pool._ordered_map's workers, in that
    worker's own batch and scratch buffers (the batch is squared in place),
    and the sums are added in batch order from 0.0 and divided by K, as
    otoc_zz_f_average adds them: the value equals
    otoc_zz_f_average(hadamard_sign_power(k, seed, t)) bit for bit at any
    worker count.  At k = 12 the arrays alive are the K x 32 XOR tile and
    two 1 MiB buffers per worker (against 512 MiB for the dense gate).
    """
    build = _hadamard_sign_builder(k, seed, t)
    batches = column_batches(k)
    shape = (1 << k, len(batches[0]))

    def fourth_power_sum(cols: range, bufs) -> float:
        batch = build(cols, *bufs)
        return _fourth_power_sum(batch, batch)

    total = 0.0
    for s in _ordered_map(fourth_power_sum, batches, lambda: (np.empty(shape), np.empty(shape))):
        total += s
    return total / shape[0]


@functools.cache
def scaling_curve(ns: tuple[int, ...], t: int, ensemble: int, seed: int) -> tuple[tuple[int, int, float], ...]:
    """(n, k, mean |E_f[O]|) points of the late-time OTOC, k = log2sq_k(n).

    Realization r at size n draws its gate (H^{tensor k} P)^t from
    RngSeed(seed, 100 n + r) and reads it through the matrix-free
    hadamard_sign_f_average, so an ensemble above 100 would share streams
    across sizes and is rejected.  Memoized: `rsed verify` reads one curve
    for criteria 5a and 5b.
    """
    if ensemble > 100:
        raise ValueError(f"ensemble {ensemble} > 100 would reuse streams RngSeed(seed, 100 n + r) across sizes")
    rows = []
    for n in ns:
        k = log2sq_k(n)
        vals = [hadamard_sign_f_average(k, RngSeed(seed, 100 * n + r), t) for r in range(ensemble)]
        rows.append((n, k, float(np.mean(np.abs(vals)))))
    return tuple(rows)


def fit_loglog(rows) -> tuple[float, list[float]]:
    """(least-squares slope, divided second differences) of log|O| vs log n."""
    x = np.log([r[0] for r in rows])
    y = np.log([abs(r[2]) for r in rows])
    slope = float(np.polyfit(x, y, 1)[0])
    slopes = np.diff(y) / np.diff(x)
    return slope, list(np.diff(slopes))


def run_otoc_scaling(cfg: ExperimentConfig, out: Path) -> dict:
    rows = scaling_curve(tuple(cfg.n_list) or (4, 6, 8, 11), int(cfg.t_fixed), cfg.ensemble, cfg.seed)
    write_csv(out / "otoc_scaling.csv", cfg, ["n", "k", "abs_mean_otoc"], rows)
    slope, second = fit_loglog(rows)
    summary = {
        "fitted_slope": slope,
        "second_differences": [float(v) for v in second],
        "concave": bool(all(v < 0 for v in second)),
        "rows": [list(row) for row in rows],
    }
    write_json(out / "otoc_scaling_summary.json", cfg, summary)
    return summary


def run_otoc_average(cfg: ExperimentConfig, out: Path) -> dict:
    cols = []  # one gate per realization, so its Schur form serves every t
    for r in range(cfg.ensemble):
        gate = base_gate(cfg, r)
        cols.append([otoc_zz_f_average(evolved(gate, float(t))) for t in cfg.t_grid])
    rows = []
    for t_idx, t in enumerate(cfg.t_grid):
        vals = [col[t_idx] for col in cols]
        rows.append([float(t), float(np.mean(vals)), float(1.0 - np.mean(vals))])
    write_csv(out / "otoc_average.csv", cfg, ["t", "mean_EfO", "mean_C"], rows)
    summary = {"final_mean_EfO": rows[-1][1], "k": cfg.k}
    write_json(out / "otoc_average_summary.json", cfg, summary)
    return summary


def run_level_stats(cfg: ExperimentConfig, out: Path) -> dict:
    stats = level_spacing_stats(_parallel(cfg, lambda r: gate_spectrum(base_gate(cfg, r)), range(cfg.ensemble)))
    spac = stats.spacings
    if spac.size < 2:
        raise ConfigError(f"level statistics need at least 2 spacings, and {spac.size} survived the degeneracy cut")
    edges, dens = stats.histogram
    write_csv(out / "level_stats_hist.csv", cfg, ["bin_left", "bin_right", "density"], list(zip(edges[:-1], edges[1:], dens)))
    ks_goe = ks_distance(spac, "GOE")
    ks_gue = ks_distance(spac, "GUE")
    summary = {
        "ks_goe": ks_goe,
        "ks_gue": ks_gue,
        "pass_goe": bool(ks_goe <= 0.08),
        "spacing_count": int(spac.size),
        "k": cfg.k,
    }
    write_json(out / "level_stats_summary.json", cfg, summary)
    return summary


def run_sff(cfg: ExperimentConfig, out: Path) -> dict:
    shape = SystemShape(cfg.n, cfg.k)
    # the full spectrum is the subsystem's 2**(n-k) times over
    factor = 4.0 ** (shape.n - shape.k)
    evals = gate_spectrum(base_gate(cfg, 0))
    rows = []
    for beta in cfg.beta_list:
        for t in cfg.t_grid:
            r2s = spectral_form_factor(evals, float(beta), float(t))
            rows.append([float(beta), float(t), r2s, factor * r2s])
    write_csv(out / "sff.csv", cfg, ["beta", "t", "r2_sub", "r2_full"], rows)
    summary = {"factor": factor}
    write_json(out / "sff_summary.json", cfg, summary)
    return summary


def run_design_check(cfg: ExperimentConfig, out: Path) -> dict:
    K = 1 << cfg.k
    rows = []
    worst = 0.0
    for r in range(cfg.ensemble):
        ut = evolved(base_gate(cfg, r), cfg.t_fixed)
        ybar = design_variance_condition(ut)
        frac = element_condition_check(ut)
        degenerate = ybar == float("inf")
        rows.append([r, ybar, int(degenerate), frac, int(frac == 0.0)])
        if not degenerate:
            worst = max(worst, ybar)
    write_csv(out / "design_check.csv", cfg, ["realization", "ybar", "degenerate", "exceed_fraction", "element_pass"], rows)
    summary = {"max_ybar": worst, "threshold": K**-0.5, "pass": bool(worst <= K**-0.5)}
    write_json(out / "design_check_summary.json", cfg, summary)
    return summary


def run_coherence(cfg: ExperimentConfig, out: Path) -> dict:
    shape = SystemShape(cfg.n, cfg.k)

    def one(r: int) -> tuple[float, float]:
        p, f = _realization(cfg, shape, r)
        op = RsedOperator(shape, p, f, base_gate(cfg, r))
        return coherence_trial(*evolve_basis_state(op, p.permute(join(0, r % shape.num_seeds, shape))), shape.n)

    rows = []
    passes = 0
    for r, (c0, c1) in enumerate(_parallel(cfg, one, range(cfg.ensemble))):
        lifted = c1 >= (cfg.n / 4.0) * np.log(2.0)
        passes += int(lifted)
        rows.append([r, c0, c1, int(lifted)])
    write_csv(out / "coherence.csv", cfg, ["trial", "coherence_nats", "after_hadamard_nats", "lifted"], rows)
    summary = {
        "expected_nats": cfg.k * float(np.log(2.0)),
        "max_dev": max(abs(r[1] - cfg.k * np.log(2.0)) for r in rows),
        "lift_passes": passes,
        "trials": cfg.ensemble,
    }
    write_json(out / "coherence_summary.json", cfg, summary)
    return summary


def run_circuit_emit(cfg: ExperimentConfig, out: Path) -> dict:
    shape = SystemShape(cfg.n, cfg.k)
    circuit = synthesize_rsed_circuit(shape, cfg.u_spec, cfg.seed, cfg.seed + 1)
    (out / "circuit.txt").write_text(serialize(circuit))
    manifest = build_manifest(circuit, cfg.u_spec, cfg.seed, cfg.seed + 1)
    (out / "circuit_manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    perm = circuit.registry["perm0"]
    sidecar = None  # a Feistel network (n > 16) has no table to save
    if perm.table is not None:
        sidecar = "perm0.rsedperm"
        save_permutation(perm, out / sidecar)
    summary: dict = {"gates": circuit.gate_counts(), "sidecar": sidecar}
    if cfg.n <= 10:
        op = RsedOperator(shape, perm, circuit.registry["f0"], base_gate(cfg, 0))
        dev = float(np.max(np.abs(simulate_circuit(circuit, np.eye(2**cfg.n)) - dense_matrix(op))))
        summary["dense_deviation"] = dev
    write_json(out / "circuit_summary.json", cfg, summary)
    return summary


def run_verify(cfg: ExperimentConfig, out: Path) -> int:
    from .acceptance import report_dict, run_all  # acceptance imports this module

    results = run_all()
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
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object, got {type(data).__name__}")
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
    with one_blas_thread():  # the pool owns the cores; numpy's BLAS never threads
        try:
            cfg = load_config(args.command, args)
            out = Path(cfg.out)
            try:
                out.mkdir(parents=True, exist_ok=True)
            except OSError as exc:  # a file where the directory or one of its parents should be
                print(f"error: cannot make output directory: {exc}", file=sys.stderr)
                return 2
            if args.command == "verify":
                return run_verify(cfg, out)
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
