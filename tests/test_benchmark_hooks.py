"""The names the benchmark in perfbench/ reaches into labelregret for.

perfbench/tracer.py wraps the functions in its TARGETS, and the mc_separable
oracle in perfbench/workloads.py refits through fit_with_extra_ridge along
regret.FALLBACK_RIDGES. A rename that drops any of them breaks the benchmark
without failing any other test. The files are read, never imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import labelregret as lr

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} defines no TARGETS")


@pytest.mark.parametrize("module, qualname", tracer_targets())
def test_tracer_target_resolves(module, qualname):
    owner = importlib.import_module(f"labelregret.{module}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_oracle_ladder_hooks_exist():
    from labelregret.regret import FALLBACK_RIDGES

    assert FALLBACK_RIDGES == lr.glm.FALLBACK_RIDGES and len(FALLBACK_RIDGES) > 0
    assert callable(lr.LogisticTrainer.fit_with_extra_ridge)
