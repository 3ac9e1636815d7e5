"""The public surface holds only names and options the program itself uses.

Every name `rsedlab/__init__.py` exports must be used, as a name or an
attribute, somewhere in the library modules, `scripts/` or `perfbench/`.  A
name that only its own tests call belongs in those tests.  Likewise every
parameter of a public function must be varied by those calls, and every
defaulted config field by the configs the program builds; a value that only
tests change belongs in the tests' own construction.
"""

import ast
from dataclasses import MISSING, fields
from pathlib import Path

from rsedlab.cli import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rsedlab"

# The readers at the RSEDCIRC and RSEDPERM1 trust boundaries, and the
# entanglement entropy that the pseudoentanglement item of ROADMAP.md consumes.
ALLOWED = {"parse", "load_permutation", "entanglement_entropy"}


def _program_files() -> list[Path]:
    """The library modules (without __init__), scripts/ and perfbench/."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return files + [*(ROOT / "scripts").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def _exported() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}


def _used() -> set[str]:
    """Every Name and attribute read in the program; a def or class line
    binds its name without using it, so it adds nothing here."""
    used = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_is_reached_by_the_program():
    exported = _exported()
    assert ALLOWED <= exported
    assert sorted(exported - _used() - ALLOWED) == []


def _public_defs():
    """(qualified name, def) for each public function and method of the library."""
    for path in PACKAGE.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield node.name, node
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def _literal(node: ast.expr) -> str | None:
    """repr of a literal expression, None for a computed one."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def _unvaried() -> tuple[list[str], list[str]]:
    """Qualified names of the parameters that no call varies: the defaulted
    ones that take one value, and the required ones that every call, of at
    least one, fills with the same literal."""
    calls: dict[str, list[ast.Call]] = {}
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    defaulted, required = [], []
    for qualname, fn in _public_defs():
        a = fn.args
        positional = [p.arg for p in a.posonlyargs + a.args]
        defaults = dict(zip(positional[len(positional) - len(a.defaults):], a.defaults))
        defaults.update((p.arg, d) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
        if positional[:1] in (["self"], ["cls"]):
            positional = positional[1:]
        for param in positional + [p.arg for p in a.kwonlyargs]:
            default = defaults.get(param)
            values = set()
            for call in calls.get(fn.name, []):
                given = dict(zip(positional, call.args)) | {kw.arg: kw.value for kw in call.keywords}
                if any(isinstance(v, ast.Starred) for v in call.args) or None in given:
                    values.add(None)  # *args or **kwargs: anything may pass
                    continue
                value = given.get(param, default)
                if value is None:
                    values.add(None)  # a required parameter this call does not fill
                    continue
                values.add(_literal(value) or (ast.dump(value) if value is default else None))
            if None not in values and len(values) < 2 and (values or default is not None):
                (required if default is None else defaulted).append(f"{qualname}.{param}")
    return sorted(defaulted), sorted(required)


def test_every_default_parameter_is_varied_by_the_program():
    """Each defaulted parameter of a public function or method gets at least
    two distinct values, or a computed one, across the calls in the library,
    `scripts/` and `perfbench/`.  Calls are matched by name, and one that
    omits the parameter counts as its default.  A parameter that never
    varies is a constant in disguise.  parse has no caller in the program: it
    reads RSEDCIRC text at a trust boundary."""
    assert _unvaried()[0] == ["parse.registry"]


def test_every_required_parameter_is_varied_by_the_program():
    """A required parameter that every program call fills with one literal
    is a constant in disguise too: the function should hold the value.  A
    function the program never calls is not judged here."""
    assert _unvaried()[1] == []


# Config fields that may keep their default in every program config.
CONSTANT_FIELDS_ALLOWED = {
    # The seed-sampling estimator of otoc-trace is the only route past exact
    # mode's n - k <= 20 cap, and the column-sampled f-average of ROADMAP.md
    # reuses it.
    "estimator",
    # Set by the --out flag, never in a config.
    "out",
}

_VARIED = object()  # a value computed at run time: it may be anything


def _config_values() -> dict[str, list]:
    """The values each config field takes in the configs of `scripts/` and
    `perfbench/workloads.py`: dict displays whose keys are all field names,
    `dict(...)` keywords and subscript assignments such as `cfg["k"] = 6`.
    A value that is no literal is _VARIED."""
    names = {f.name for f in fields(ExperimentConfig)}
    pairs = []
    for path in [*(ROOT / "scripts").glob("*.py"), ROOT / "perfbench" / "workloads.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict):
                keys = [key.value if isinstance(key, ast.Constant) else None for key in node.keys]
                if keys and set(keys) <= names:
                    pairs += zip(keys, node.values)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
                pairs += [(kw.arg, kw.value) for kw in node.keywords if kw.arg in names]
            elif isinstance(node, ast.Assign):
                pairs += [
                    (target.slice.value, node.value) for target in node.targets
                    if isinstance(target, ast.Subscript) and isinstance(target.slice, ast.Constant)
                    and target.slice.value in names
                ]
    values: dict[str, list] = {}
    for name, value in pairs:
        values.setdefault(name, []).append(ast.literal_eval(value) if _literal(value) is not None else _VARIED)
    return values


def _constant_fields() -> list[str]:
    """The defaulted config fields that take one value, counted by ==, across
    their default and every program config."""
    given = _config_values()
    constant = []
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.default_factory is MISSING:
            continue
        default = f.default if f.default is not MISSING else f.default_factory()
        distinct = [default]
        for value in given.get(f.name, []):
            if value is _VARIED or all(value != seen for seen in distinct):
                distinct.append(value)
        if len(distinct) < 2:
            constant.append(f.name)
    return sorted(set(constant) - CONSTANT_FIELDS_ALLOWED)


def test_every_config_field_is_varied_by_the_program():
    """A config field that every program config leaves at one value is a
    constant in disguise: the driver that reads it should hold the value."""
    assert CONSTANT_FIELDS_ALLOWED <= {f.name for f in fields(ExperimentConfig)}
    assert _constant_fields() == []
