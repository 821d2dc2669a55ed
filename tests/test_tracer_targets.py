"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps every
function and method that perfbench/tracer.py lists in TARGETS. A target that
no longer exists breaks the traced run, so each one is checked here against
the package, with TARGETS read from the tracer's source as it stands.
"""

import ast
import importlib
import os

import numpy as np

from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                       "tracer.py")


def _targets():
    with open(_TRACER, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_every_tracer_target_exists():
    targets = _targets()
    assert len(targets) >= 30
    for span, modname, attr in targets:
        mod = importlib.import_module(modname)
        owner, _, name = attr.rpartition(".")
        if owner:
            # the tracer patches the method found in the class's own namespace
            assert callable(vars(getattr(mod, owner)).get(name)), span
        else:
            assert callable(getattr(mod, name, None)), span


def test_max_row_l1_is_a_scalar_for_a_stack():
    # the tracer's project_constraints probe compares it with the l1 budget
    arch = NetArchitecture(dim=1, hidden=(4,))
    stack = VelocityNet.stack([VelocityNet.init(arch, RngStream(i))
                               for i in range(3)])
    assert isinstance(stack.max_row_l1(), float)
    assert stack.max_row_l1() == max(stack.member(i).max_row_l1()
                                     for i in range(3))
    assert np.ndim(stack.max_row_l1() > arch.l1_budget) == 0
