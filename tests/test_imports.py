"""Imports: every experiment but ``hm`` runs without numpy or scipy, the
Monte Carlo names still import from the package root, only the walk kernel
imports numpy, and no module keeps an import it never uses."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypspeeds

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter that imports hypspeeds from src/."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = "print(json.dumps(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})))"


#: The shipped configs whose runs load neither numpy nor scipy: all but hm's.
NUMPY_FREE_RUNS = ["dist", "speeds_slit", "thm1_slit", "thm1_strip", "thm2_dip", "thm3_table", "thm4_strips"]


def run_config_fresh(stem: str, out: Path) -> tuple[list, list]:
    """The heavy modules loaded after ``import hypspeeds.cli`` and after a
    shipped config's run, in a fresh interpreter; the run must pass."""
    experiment = stem.split("_")[0]
    config = ROOT / "configs" / f"{stem}.json"
    code = (
        "import json, sys\n"
        "import hypspeeds.cli\n"
        f"{LOADED}\n"
        f"code = hypspeeds.cli.main([{experiment!r}, '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
        f"{LOADED}\n"
        "print(code)\n"
    )
    lines = run_fresh(code).splitlines()
    assert lines[1] == f"{experiment}: PASS"
    assert lines[3] == "0"
    return json.loads(lines[0]), json.loads(lines[2])


@pytest.mark.parametrize("stem", NUMPY_FREE_RUNS)
def test_analytic_cli_run_loads_neither_numpy_nor_scipy(stem, tmp_path):
    assert run_config_fresh(stem, tmp_path) == ([], [])


def test_hm_is_the_one_run_that_loads_numpy(tmp_path):
    shipped = {p.stem for p in (ROOT / "configs").glob("*.json")}
    assert shipped - set(NUMPY_FREE_RUNS) == {"hm_strip"}
    assert run_config_fresh("hm_strip", tmp_path) == ([], ["numpy"])


def test_monte_carlo_names_load_harmonic_on_first_use():
    out = run_fresh(
        "import json, sys\n"
        "import hypspeeds\n"
        f"{LOADED}\n"
        "from hypspeeds import HMEstimate, mc_first_hit\n"
        "print(mc_first_hit.__module__, HMEstimate.__module__)\n"
        f"{LOADED}\n"
    )
    before, modules, after = out.splitlines()
    assert json.loads(before) == []
    assert modules == "hypspeeds.harmonic hypspeeds.harmonic"
    assert json.loads(after) == ["numpy"]


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        hypspeeds.no_such_name
    with pytest.raises(ImportError):
        from hypspeeds import no_such_name  # noqa: F401


def test_every_lazy_name_resolves_to_the_harmonic_object():
    from hypspeeds import harmonic

    for name in sorted(hypspeeds._HARMONIC_NAMES):
        assert getattr(hypspeeds, name) is getattr(harmonic, name), name


def _unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads (``from __future__`` aside)."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_unused_import_is_detected():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == ["math (line 1)", "sep (line 2)"]


@pytest.mark.parametrize("path", sorted(p.name for p in (SRC / "hypspeeds").glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_import(path):
    assert _unused_imports((SRC / "hypspeeds" / path).read_text(encoding="utf-8")) == []


def _numpy_importers(sources: dict[str, str]) -> list[str]:
    """The modules, by name, whose source imports numpy or a numpy submodule."""
    found = []
    for name, source in sorted(sources.items()):
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.split(".")[0] == "numpy" for m in modules):
                found.append(name)
                break
    return found


def test_numpy_import_is_detected():
    sources = {
        "a.py": "def f():\n    import numpy as np\n",
        "b.py": "from numpy.linalg import norm\n",
        "c.py": "import numpyish\nfrom . import numpy\n",
    }
    assert _numpy_importers(sources) == ["a.py", "b.py"]


def test_only_the_walk_kernel_imports_numpy():
    sources = {p.name: p.read_text(encoding="utf-8") for p in (SRC / "hypspeeds").glob("*.py")}
    assert _numpy_importers(sources) == ["harmonic.py"]


def _private_definitions(source: str) -> dict[str, int]:
    """The module-level private functions, classes and constants a module
    defines (dunder names aside), each with its line."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in names if name.startswith("_") and not name.startswith("__"))
    return found


def _references(source: str) -> set[str]:
    """Every name a module reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names that no module reads."""
    used = set().union(*map(_references, sources.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, source in sorted(sources.items())
        for name, line in sorted(_private_definitions(source).items())
        if name not in used
    ]


def test_unreferenced_private_name_is_detected():
    sources = {
        "a.py": "_SPACING = 5e-4\n_TOL, _RADIUS = 1e-6, 5e-4\ndef _helper():\n    return _TOL\n__all__ = []\n",
        "b.py": "from .a import _helper\nclass _Unused:\n    pass\n",
    }
    assert _unreferenced_private_names(sources) == [
        "a.py: _RADIUS (line 2)",
        "a.py: _SPACING (line 1)",
        "b.py: _Unused (line 2)",
    ]


def test_every_private_name_is_referenced():
    sources = {p.name: p.read_text(encoding="utf-8") for p in (SRC / "hypspeeds").glob("*.py")}
    assert _unreferenced_private_names(sources) == []


#: The public functions and classes that no code in src/ reads, each with
#: its reason.  A name here that gains a reference fails the test too.
UNREFERENCED_PUBLIC_NAMES = {
    "geodesic_through": "API of the acceptance gate",
    "monotonicity_scan": "API of the acceptance gate",
    "slit_plane": "public constructor of SlitPlane",
    "rho_bounds": "the staircase bracket (ROADMAP item 7) is its planned caller",
}


def _public_definitions(source: str) -> list[str]:
    """The module-level public functions and classes a module defines."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def _unreferenced_public_names(sources: dict[str, str]) -> list[str]:
    """The public functions and classes that no module reads.  A definition
    is not a read, and neither is a re-export in ``__init__.py``."""
    sources = {module: source for module, source in sources.items() if module != "__init__.py"}
    used = set().union(*map(_references, sources.values()))
    return sorted(name for source in sources.values() for name in _public_definitions(source) if name not in used)


def test_unreferenced_public_name_is_detected():
    sources = {
        "__init__.py": "from .a import Unused, shown, unused\n",
        "a.py": "def shown():\n    pass\nclass Unused:\n    pass\ndef unused():\n    pass\n",
        "b.py": "from .a import shown\nshown()\n",
    }
    assert _unreferenced_public_names(sources) == ["Unused", "unused"]


def test_every_public_name_is_referenced_or_allowed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in (SRC / "hypspeeds").glob("*.py")}
    assert _unreferenced_public_names(sources) == sorted(UNREFERENCED_PUBLIC_NAMES)


#: The defaulted parameters of public functions that no call in src/ passes,
#: each with its reason.  An entry whose parameter gains a caller fails the
#: test too.
UNPASSED_OPTIONS = {
    "cli.main(argv)": "entry point: the console script passes nothing, tests pass argv",
    "semigroup.monotonicity_scan(quantity)": "API of the acceptance gate",
    "semigroup.monotonicity_scan(base_point)": "API of the acceptance gate",
    "semigroup.monotonicity_scan(slack)": "API of the acceptance gate",
}


def _defaulted_parameters(source: str) -> list[tuple[str, str, int | None]]:
    """(function, parameter, position) for each defaulted parameter of a
    module-level public function; a keyword-only one has no position."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            found += [(node.name, a.arg, i) for i, a in enumerate(positional) if i >= first]
            kwonly = zip(node.args.kwonlyargs, node.args.kw_defaults)
            found += [(node.name, a.arg, None) for a, default in kwonly if default is not None]
    return found


def _passed_arguments(source: str) -> set[tuple[str, int | str]]:
    """(function name, position or keyword) for every argument that a call in
    the module passes.  An argument unpacked with * or ** passes none."""
    passed = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        passed |= {(name, i) for i, arg in enumerate(node.args) if not isinstance(arg, ast.Starred)}
        passed |= {(name, kw.arg) for kw in node.keywords if kw.arg}
    return passed


def _unpassed_options(sources: dict[str, str]) -> list[str]:
    """The defaulted parameters of public functions that no call in any
    module passes, by keyword or by position, as ``module.function(name)``."""
    passed = set().union(*map(_passed_arguments, sources.values()))
    return sorted(
        f"{module.removesuffix('.py')}.{function}({name})"
        for module, source in sources.items()
        for function, name, position in _defaulted_parameters(source)
        if (function, name) not in passed and (function, position) not in passed
    )


def test_unpassed_option_is_detected():
    sources = {
        "a.py": (
            "def f(x, by_position=1, by_keyword=2, unused=3, *, kw_only=4, kw_unused=5):\n    pass\n"
            "def _private(x=1):\n    pass\n"
        ),
        "b.py": "from .a import f\nf(0, 1, by_keyword=2, kw_only=4)\nf(*[0, 1, 2, 3])\nf(**{'unused': 3})\n",
    }
    assert _unpassed_options(sources) == ["a.f(kw_unused)", "a.f(unused)"]


def test_every_option_is_passed_or_allowed():
    sources = {p.name: p.read_text(encoding="utf-8") for p in (SRC / "hypspeeds").glob("*.py")}
    assert _unpassed_options(sources) == sorted(UNPASSED_OPTIONS)
