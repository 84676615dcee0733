"""Layering rules of the package, read from the source with ``ast``.

File-format modules do not reach the tracer or the scene parser, the tracer
reaches no later stage, and the CLI only parses and prints (no array code or
sockets of its own).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chanem"


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
