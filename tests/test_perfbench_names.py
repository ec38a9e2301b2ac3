"""The names the benchmark harness looks up in the package still resolve.

``perfbench/tracer.py`` wraps each ``(module, attr)`` of its ``TARGETS``
and each ``Reaction`` method of its ``REACTION_METHODS`` by name, and
``perfbench/run.py`` passes ``--seed`` to ``simulate``, ``verify`` and
``sweep``, which accept it and use it for nothing; a name removed from
the package would break ``perfbench/run.py --trace 1`` or the sweeps.  The
tracer is read as text, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

import dampedwave.config
from dampedwave.cli import build_parser

TRACER = ast.parse((Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py").read_text())
# the literal values of the tracer's module-level assignments
NAMES = {
    t.id: ast.literal_eval(node.value)
    for node in TRACER.body if isinstance(node, ast.Assign)
    for t in node.targets if isinstance(t, ast.Name) and t.id in ("TARGETS", "REACTION_METHODS")
}


@pytest.mark.parametrize("span, module, attr, scope", NAMES["TARGETS"])
def test_traced_target_resolves(span, module, attr, scope):
    assert callable(getattr(importlib.import_module(f"dampedwave.{module}"), attr))


@pytest.mark.parametrize("method", NAMES["REACTION_METHODS"])
def test_traced_reaction_method_resolves(method):
    assert callable(getattr(dampedwave.config.Reaction, method))


def test_sweep_accepts_the_seed_the_benchmark_passes():
    """And so do simulate and verify, the other commands it passes it to."""
    for argv in (["simulate", "--config", "c.yaml", "--out", "o"], ["verify", "--out", "o"],
                 ["sweep", "--config", "c.yaml", "--eps", "1e-2,1e-3,1e-4", "--out", "o"]):
        assert build_parser().parse_args(argv + ["--seed", "3"]).seed == 3, argv[0]
