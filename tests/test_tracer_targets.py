"""The benchmark's traced run (`perfbench/run.py --trace 1`) wraps every
function and method that perfbench/tracer.py lists in TARGETS. A target that
no longer exists breaks the traced run, so each one is checked here against
the package, with TARGETS read from the tracer's source as it stands; and a
module that still holds an unwrapped target would run calls the trace never
sees, so an installed tracer is checked for those too.
"""

import ast
import importlib
import json
import os
import subprocess
import sys

import numpy as np

import rflab
from rflab.linalg_rng import RngStream
from rflab.network import NetArchitecture, VelocityNet

_PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")
_TRACER = os.path.join(_PERFBENCH, "tracer.py")


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


_INSTALL_PROBE = """
import importlib, json, sys
sys.path.insert(0, sys.argv[1])
from tracer import TARGETS, Tracer

owners, originals = {}, {}
for span, modname, attr in TARGETS:
    owner, _, name = attr.rpartition(".")
    ns = importlib.import_module(modname)
    if owner:
        ns = owners[owner] = getattr(ns, owner)
    originals[span] = vars(ns)[name]
Tracer().install()

# every rflab module, and every class whose methods are targets
spaces = {name: vars(mod) for name, mod in sys.modules.items()
          if name == "rflab" or name.startswith("rflab.")}
spaces.update((name, vars(cls)) for name, cls in owners.items())
missed = []
for where, ns in sorted(spaces.items()):
    for key, value in ns.items():
        for v in value.values() if type(value) is dict else [value]:
            missed += [f"{where}.{key}: {span}"
                       for span, orig in originals.items() if v is orig]
sweep_train = sys.modules["rflab.sweep"].train
print(json.dumps({"missed": missed, "spaces": sorted(spaces),
                  "sweep_train_wrapped": getattr(sweep_train, "__wrapped__",
                                                 None)
                  is originals["training.train"]}))
"""


def test_installed_tracer_leaves_no_unwrapped_target():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rflab.__file__)))
    run = subprocess.run([sys.executable, "-c", _INSTALL_PROBE, _PERFBENCH],
                         env=env, capture_output=True, text=True, check=True)
    report = json.loads(run.stdout)
    assert report["missed"] == []
    assert {"rflab.cli", "rflab.config", "rflab.sweep"} <= set(report["spaces"])
    assert report["sweep_train_wrapped"]


def test_max_row_l1_is_a_scalar_for_a_stack():
    # the tracer's project_constraints probe compares it with the l1 budget
    arch = NetArchitecture(dim=1, hidden=(4,))
    stack = VelocityNet.stack([VelocityNet.init(arch, RngStream(i))
                               for i in range(3)])
    assert isinstance(stack.max_row_l1(), float)
    assert isinstance(stack.member(0).max_row_l1(), float)
    assert stack.row_l1().tolist() == [stack.member(i).max_row_l1()
                                       for i in range(3)]
    assert stack.max_row_l1() == max(stack.member(i).max_row_l1()
                                     for i in range(3))
    assert np.ndim(stack.max_row_l1() > arch.l1_budget) == 0
