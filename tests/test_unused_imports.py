"""No module of the package imports a name it never uses, no module defines
a private top-level name that the package never uses, one helper freezes
the arrays of every record, and one function checks every probability vector.

The toolchain has no linter, so this reads each module's syntax tree. Only
top-level imports are checked. __init__ is exempt, because its imports are
the public re-exports, which must be exactly the names in its __all__, and
so is `from __future__`. A name counts as used when it is read anywhere else
in the module, string annotations included. A private name (one leading
underscore) counts as used when any module of the package reads it, as a
name, an attribute or an imported name.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "labelregret"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
# regret imports FALLBACK_RIDGES from glm without using it: the mc_separable
# benchmark oracle (perfbench/workloads.py) imports it from labelregret.regret.
ALLOWED = {"regret": {"FALLBACK_RIDGES"}}


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    used = _used_names(tree)
    return {name for name in _imported_names(tree) if name not in used}


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.startswith("__"))


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_top_level_import(module):
    unused = unused_imports((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    assert unused == ALLOWED.get(module, set())


def test_every_private_top_level_name_is_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py")}
    used = set()
    for tree in trees.values():
        used |= _used_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = {f"{module}.{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used}
    assert unused == set()


def test_the_package_imports_exactly_its_public_names():
    """__init__'s imports are exempt from the check above because they are the
    public re-exports; so __all__ names each of them once, and nothing else."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    (public,) = [ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]]
    assert len(set(public)) == len(public)
    assert sorted(_imported_names(tree)) == sorted(public)


def _scopes(node, scope, matches):
    """Qualified names of the functions under node that hold a node that matches."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _scopes(child, f"{scope}.{child.name}", matches)
            continue
        if matches(child):
            yield scope
        yield from _scopes(child, scope, matches)


def _package_scopes(matches):
    return {scope for path in PACKAGE.glob("*.py")
            for scope in _scopes(ast.parse(path.read_text(encoding="utf-8")), path.stem, matches)}


def test_only_the_freeze_helper_sets_flags():
    """Records freeze their arrays through glm._freeze, and nothing else
    calls setflags."""
    assert _package_scopes(lambda node: isinstance(node, ast.Call)
                           and isinstance(node.func, ast.Attribute)
                           and node.func.attr == "setflags") == {"glm._freeze"}


def test_only_the_probability_check_raises_prob_out_of_range():
    """Every probability vector goes through glm._probabilities, so no other
    function raises ProbOutOfRange: a second validator would."""
    assert _package_scopes(lambda node: isinstance(node, ast.Raise) and any(
        isinstance(n, ast.Attribute) and n.attr == "ProbOutOfRange"
        or isinstance(n, ast.Name) and n.id == "ProbOutOfRange"
        for n in ast.walk(node))) == {"glm._probabilities"}


def test_the_check_sees_annotations_and_ignores_nested_imports():
    source = '''
from __future__ import annotations
import os
import os.path
import numpy as np
from typing import Dict, Optional, Sequence
from .dataset import Dataset as DS

def f(x: "Optional[DS]", y: Dict) -> "np.ndarray":
    import json
    return os.path.join("a", "b")
'''
    assert unused_imports(source) == {"Sequence"}
