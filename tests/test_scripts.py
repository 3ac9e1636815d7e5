"""The runners in scripts/ pass their configs through `rsed`'s config check.

Each script is loaded by path with its `rsed_main` replaced by a stand-in
that validates the config file it is handed (cli.load_config) and runs no
driver, so a stricter config check cannot silently break a shipped script.
"""

import importlib.util
import json
import sys
from argparse import Namespace
from pathlib import Path

import pytest

from rsedlab.cli import load_config

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
EXPECTED = {
    "emit_circuit.py": ["circuit-emit"],
    "reproduce_otoc_curves.py": ["otoc-trace", "otoc-average"] * 3 + ["otoc-scaling"],
    "run_diagnostics.py": ["level-stats", "sff", "design-check", "coherence"],
}


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_configs_validate(script, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(script[:-3], SCRIPTS / script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = []

    def validate_only(argv):
        experiment, _, path, _, out = argv
        cfg = load_config(experiment, Namespace(config=path, seed=None, out=out, threads=None))
        assert json.loads(Path(path).read_text())["experiment"] == cfg.experiment
        seen.append((experiment, path))
        return 0

    monkeypatch.setattr(module, "rsed_main", validate_only)
    monkeypatch.setattr(sys, "argv", [script, "--out", str(tmp_path / "out")])
    try:
        module.main()
    except SystemExit as exc:
        assert exc.code in (0, None)
    assert [experiment for experiment, _ in seen] == EXPECTED[script]
    # each config file lives in a temporary directory removed after its run
    assert not any(Path(path).exists() for _, path in seen)
