"""Layering rules of the package, read from the source with ``ast`` and
checked at run time in fresh interpreters.

File-format modules do not reach the tracer or the scene parser, the tracer
reaches no later stage, the CLI only parses and prints (no array code or
sockets of its own, and no default value of its own), and bench drives no
slot, reads no clock and writes no frame header of its own.  Importing the
package loads no stage, and importing a stage loads only what its source
imports.  Every function the benchmark's traced run wraps by name still
exists, and so does every name README's library example imports.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "chanem"
REPLAY = ROOT / "e2ebench" / "replay.py"
README = ROOT / "README.md"


def _in_package(module, level):
    """Package-relative dotted name of an imported module ('' for the package
    itself), or None when the module lies outside ``chanem``."""
    if level:
        return module
    if module == "chanem" or module.startswith("chanem."):
        return module[len("chanem."):]
    return None


def direct_imports(module):
    """Top-level names a module imports: sibling module names inside
    ``chanem``, top-level package names outside it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = _in_package(alias.name, 0)
                names.add((alias.name if local is None else local).split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            local = _in_package(node.module or "", node.level)
            if local is None:
                names.add(node.module.split(".")[0])
            elif local:
                names.add(local.split(".")[0])
            else:  # from . import x
                names.update(alias.name for alias in node.names)
    return names


def package_closure(module):
    """Package modules reached from ``module`` through imports, itself included."""
    seen, todo = set(), [module]
    while todo:
        name = todo.pop()
        if name in seen or not (PACKAGE / f"{name}.py").exists():
            continue
        seen.add(name)
        todo.extend(direct_imports(name))
    return seen


@pytest.mark.parametrize("module", ["timeline", "iqstream"])
def test_file_formats_do_not_reach_the_tracer(module):
    assert not package_closure(module) & {"propagation", "scenefile"}


@pytest.mark.parametrize("module", ["propagation", "materials"])
def test_tracer_reaches_no_later_stage(module):
    # the tracer stands alone: no CIR, timeline, emulator or parser code,
    # and no scipy
    closure = package_closure(module)
    assert not closure & {"cir", "timeline", "emulator", "iqstream", "scenefile"}
    assert not any("scipy" in direct_imports(m) for m in closure)


def test_cli_does_not_import_numpy():
    assert "numpy" not in direct_imports("cli")


def test_cli_does_not_import_socket():
    # the frame streams, sockets included, are set up in iqstream
    assert "socket" not in direct_imports("cli")
    assert "socket" in direct_imports("iqstream")


def test_import_reader_sees_the_imports():
    assert {"numpy", "iqstream", "cir"} <= direct_imports("emulator")
    assert {"propagation", "timeline"} <= direct_imports("scenefile")
    assert "argparse" in direct_imports("cli")


def _package_names(tree):
    """Names a module binds by importing them from inside ``chanem``."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and _in_package(node.module or "", node.level) is not None
            for alias in node.names}


def _root_name(node):
    """``x`` for the expressions ``x``, ``x.a`` and ``x.a.b``; else None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def test_cli_defaults_are_read_from_the_library():
    # a flag's default is a fixed value of the library, stated there once
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    library = _package_names(tree)
    defaults = [kw.value for node in ast.walk(tree) if isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument"
                for kw in node.keywords if kw.arg == "default"]
    assert len(defaults) > 20
    own = [ast.unparse(value) for value in defaults
           if not (isinstance(value, ast.Constant) and value.value in (None, "-", "auto"))
           and _root_name(value) not in library]
    assert own == []


def test_bench_has_no_slot_loop_of_its_own():
    # bench times run_scenario, the frame driver that production runs; the
    # slot stages are reached only through it
    tree = ast.parse((PACKAGE / "bench.py").read_text(encoding="utf-8"))
    library = _package_names(tree)
    assert "run_scenario" in library
    assert not library & {"convolve_slot", "noise_block"}
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not used & {"convolve_slot", "noise_block"}
    # nor a clock or a frame layout: every second it reports is the driver's,
    # and iqstream alone writes a frame's header
    assert not direct_imports("bench") & {"time", "struct"}


MATRIX_PRODUCTS = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot"}


def test_cir_holds_no_matrix_product():
    # a matrix product runs on OpenBLAS's threads, which stalled discretizing
    # a timeline when the other core was busy (0.9-1.0 s against 14-24 ms)
    tree = ast.parse((PACKAGE / "cir.py").read_text(encoding="utf-8"))
    products = [ast.unparse(node) for node in ast.walk(tree)
                if isinstance(node, (ast.BinOp, ast.AugAssign))
                and isinstance(node.op, ast.MatMult)
                or isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS
                or isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS]
    assert products == []


def _replay_targets():
    """``TARGETS`` of ``e2ebench/replay.py``, read from its source."""
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "TARGETS"
                for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{REPLAY} assigns no TARGETS")


def test_replay_targets_resolve_in_the_package():
    # the traced benchmark run wraps each target by its dotted name; one that
    # no longer resolves loses its per-layer metrics as a missing layer
    targets = _replay_targets()
    assert "timeline.CirTimeline.sorted_snapshots" in targets
    missing = []
    for target in targets:
        owner_name, *path = target.split(".")
        owner = importlib.import_module(f"chanem.{owner_name}")
        for part in path:
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(target)
    assert missing == []


def _loaded_after_import(module):
    """Top-level names of ``sys.modules`` after importing ``module`` in a
    fresh interpreter: ``chanem`` submodules by their package-relative name,
    other packages by their top-level name."""
    script = (f"import json, sys; import {module}; "
              f"print(json.dumps(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    names = set()
    for name in json.loads(result.stdout):
        local = _in_package(name, 0)
        names.add(name.split(".")[0] if local is None else local or "chanem")
    return names


@pytest.mark.parametrize("module, absent", [
    ("chanem", set()),
    ("chanem.timeline", {"propagation", "scenefile", "materials", "emulator",
                         "iqstream", "bench", "socket", "scipy"}),
    ("chanem.iqstream", {"propagation", "scenefile", "emulator", "timeline",
                         "bench", "scipy"}),
])
def test_an_import_loads_only_its_closure(module, absent):
    # the package init re-exports nothing, so importing a stage loads the
    # stage and what its source imports, and the closure rules above hold
    # at run time too
    loaded = _loaded_after_import(module)
    stage = module.partition(".")[2]
    expected = package_closure(stage) if stage else set()
    modules = {p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__"}
    assert loaded & modules == expected
    assert not loaded & absent


def _readme_example():
    """The ``python`` block under README's "Library example" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's library example has no python block"
    return match.group(1)


def test_readme_example_imports_resolve():
    # every name is imported from its defining module; the package itself
    # exports none
    tree = ast.parse(_readme_example())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _in_package(node.module, 0) is not None:
            owner = importlib.import_module(node.module)
            imported += [(node.module, alias.name) for alias in node.names]
            assert [alias.name for alias in node.names
                    if not hasattr(owner, alias.name)] == [], node.module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _in_package(alias.name, 0) is not None:
                    importlib.import_module(alias.name)
                    imported.append((alias.name, None))
    assert ("chanem.emulator", "run_scenario") in imported
    assert all(module != "chanem" for module, _ in imported)
