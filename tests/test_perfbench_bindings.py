"""The names the benchmark harness binds in the package still exist.

``perfbench/spans.py`` replaces package functions by module and attribute
name, and its counters read some of their parameters by position or name;
``perfbench/workloads.py`` imports package functions.  Both files are loaded
here as they are, so a rename fails this test instead of a benchmark run.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

from shzeta import ezzeta, identities, rootzeta
from shzeta.shapes import Partition
from shzeta.tableaux import constant_tableau

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for modname, attr, is_gen, _ in load("spans").TARGETS:
        fn = getattr(importlib.import_module(f"shzeta.{modname}"), attr)
        assert inspect.isgeneratorfunction(fn) == is_gen, (modname, attr)


def test_counted_parameters_exist():
    # _count_eval_chain reads s = args[0] and cfg = args[3] or by name,
    # _count_determinant entries = args[0] or by name, and
    # _count_eval_nested binds e, d and cfg by name.  The traced
    # derivative_fd_check is called with these parameters by the CLI and
    # the acceptance tests.
    chain = list(inspect.signature(ezzeta.eval_chain).parameters)
    assert chain[0] == "s" and chain[3] == "cfg"
    fd = list(inspect.signature(identities.derivative_fd_check).parameters)
    assert fd == ["spec", "shape", "ell", "cfg", "h"]
    assert list(inspect.signature(identities.determinant).parameters)[0] == "entries"
    assert {"e", "d", "cfg"} <= set(inspect.signature(rootzeta._eval_nested).parameters)

    spans = load("spans")
    counts = defaultdict(float)
    cfg = ezzeta.EvalConfig(cutoff=10)
    spans._count_eval_chain(ezzeta.eval_chain)(counts, ((2, 3), (0, 0), (True,), cfg), {}, None)
    e = rootzeta.RootExponents.from_flat(3, [2] * 6)
    spans._count_eval_nested(rootzeta._eval_nested)(counts, (e, 0.0, 0, cfg), {}, None)
    assert counts["ezzeta.dp_cells"] == 2 * 11
    assert counts["rootzeta.loop_iters"] == 10 * 10


def test_traced_lattice_path_names_are_called():
    # The tracer is installed as ``run.py`` installs it, over the package
    # and the workloads module, and the two oracles run through the names
    # the workloads bind: the swap and the per-type weighing they call
    # must show up as spans, not read 0.
    spans, workloads = load("spans"), load("workloads")
    shape = Partition((2, 2))
    s, x = constant_tableau(shape, 2), constant_tableau(shape, Fraction(1, 2))
    tracer = spans.Tracer()
    tracer.install(extra=(workloads,))
    try:
        tracer.active = True
        assert workloads.verify_cancellation(shape, 3, s, x, "H").passes
        assert workloads.truncated_schur_via_paths(shape, 3, s, x, "H") > 0
    finally:
        tracer.active = False
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["lgv.tail_swap.calls"] > 0
    assert metrics["lgv.pattern_weight.calls"] > 0


def test_workloads_import_and_warm_up():
    load("workloads").exact_warm_up()


def test_exact_ops_match_their_references(monkeypatch):
    # Every exact-oracles op of the short rounds at seeds 0-2 is judged ok
    # against its brute-force reference, and not ok against the corrupted
    # one.  The references import ``refs`` from the perfbench directory.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = load("workloads")
    for seed in range(3):
        for op in workloads.exact_round(random.Random(seed), True, ""):
            got, ref = op.run(), op.reference()
            assert op.judge(got, ref).ok, (seed, op.label)
            assert not op.judge(got, op.corrupt(ref)).ok, (seed, op.label)
