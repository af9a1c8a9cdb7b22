"""Tests of the benchmark itself: self-time arithmetic, op checks, tracing.

Run from the root of a source checkout::

    python3 -m pytest -q perfbench
"""

import copy
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402


def test_self_times_of_synthetic_tree():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 5.0, 9.0, 0, 0),
        Span("c", 6.0, 7.0, 2, 0),
        Span("a", 7.5, 8.5, 2, 0),
    ]
    got = self_times(spans)
    assert got["op"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert got["b"] == pytest.approx(4.0 - 1.0 - 1.0)
    assert got["c"] == pytest.approx(1.0)
    assert got["a"] == pytest.approx(3.0 + 1.0)


def test_overlapping_children_are_covered_once():
    spans = [Span("p", 0.0, 10.0, None, 0),
             Span("x", 1.0, 5.0, 0, 0),
             Span("y", 3.0, 12.0, 0, 0)]
    assert self_times(spans)["p"] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def solve_op(tmp_path_factory):
    """One solve-d2 op on its first pinned seed, checked by a Loop."""
    w = wl.WORKLOADS["solve-d2"]
    ref = wl.load_reference()[w.name]
    out = tmp_path_factory.mktemp("solve")
    loop = bench.Loop(w, ref, 0, out)
    loop.op()
    return w, ref, loop


def test_solve_op_passes_its_reference(solve_op):
    w, ref, loop = solve_op
    assert (loop.attempted, loop.failed, loop.matched) == (1, 0, 1)


@pytest.mark.parametrize("field,change", [
    ("L_t", lambda v: v * (1.0 + 1e-5)),
    ("argmax", lambda v: [v[0] + 1] + v[1:]),
])
def test_perturbed_solve_reference_fails_the_op(solve_op, field, change):
    w, ref, loop = solve_op
    seed = loop.seeds[0]
    bad = copy.deepcopy(ref)
    row = bad["solve"][str(seed)][-1]
    row[field] = change(row[field])
    with pytest.raises(ValueError):
        wl.check_op(w, 0, loop.out, bad, seed)
    rerun = bench.Loop(w, bad, 0, loop.out)
    rerun.op()
    assert (rerun.attempted, rerun.failed) == (1, 1)


def _bindings():
    """Every name bound in a pamlab module or on a pamlab class."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("pamlab"):
            continue
        for key, value in vars(mod).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = member
    return out


def test_wrappers_are_removed_after_tracing():
    from pamlab import cli, geometry, limits, solver, variational

    before = _bindings()
    tracer = Tracer()
    bench.install_tracer(tracer)
    try:
        assert cli.integrate is not before[("pamlab.solver", "integrate")]
        assert limits.psi_top2 is variational.psi_top2
        assert limits.psi_top2 is not before[("pamlab.variational",
                                              "psi_top2")]
        geometry.unrank(2, np.arange(10))
    finally:
        tracer.remove()
    assert [s.name for s in tracer.spans] == ["geometry.unrank"]
    assert tracer.counts["unrank.sites"] == 10
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    assert changed == []
    geometry.unrank(2, np.arange(10))
    assert len(tracer.spans) == 1
    assert solver.GeneratorOperator.__dict__["apply"] is before[
        ("pamlab.solver", "GeneratorOperator", "apply")]


def test_every_layer_metric_is_declared(tmp_path):
    import run

    declared = run.units()
    for w in wl.WORKLOADS.values():
        loop = bench.Loop(w, wl.load_reference()[w.name], 0, tmp_path)
        loop.latencies = [1.0]
        names = bench.layer_metrics(w, Tracer(), loop)
        assert set(names) <= set(declared), w.name
