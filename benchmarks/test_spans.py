"""Tests of the benchmark's span arithmetic and wrapper installation.

    python3 -m pytest benchmarks/test_spans.py
"""

import os
import sys
import time
import types

import pytest

from spans import LAYER_SPANS, Tracer, inclusive_time, instrumented, \
    nessolve_targets

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fake_module():
    mod = types.ModuleType("fake")

    def inner():
        _busy(0.02)
        return "inner"

    def outer():
        _busy(0.01)
        a = mod.inner()
        b = mod.inner()
        _busy(0.01)
        return a + b

    class Box:
        def work(self, x):
            _busy(0.005)
            return 2 * x

    mod.inner, mod.outer, mod.Box = inner, outer, Box
    return mod


def test_self_time_of_nested_calls():
    mod = _fake_module()
    tracer = Tracer()
    targets = [(mod, "outer", "outer", None), (mod, "inner", "inner", None),
               (mod.Box, "work", "box", None)]
    with instrumented(tracer, targets):
        with tracer.span("root"):
            assert mod.outer() == "innerinner"
            assert mod.Box().work(3) == 6
    selfs = tracer.self_times()
    assert tracer.calls() == {"root": 1, "outer": 1, "inner": 2, "box": 1}
    assert selfs["inner"] == pytest.approx(0.04, abs=0.01)
    assert selfs["outer"] == pytest.approx(0.02, abs=0.01)
    assert selfs["box"] == pytest.approx(0.005, abs=0.004)
    assert selfs["root"] >= 0.0
    root = tracer.spans[0]
    assert sum(selfs.values()) == pytest.approx(root[2] - root[1],
                                                rel=1e-9)
    # inner spans are children of outer, which is a child of root
    parents = {name: tracer.spans[p][0] if p >= 0 else None
               for name, _, _, p in tracer.spans}
    assert parents == {"root": None, "outer": "root", "inner": "outer",
                       "box": "root"}
    assert inclusive_time(tracer, "outer") == pytest.approx(
        selfs["outer"] + selfs["inner"], rel=1e-9)


def test_originals_restored_even_after_an_error():
    mod = _fake_module()
    originals = (mod.inner, mod.outer, vars(mod.Box)["work"])
    tracer = Tracer()
    targets = [(mod, "outer", "outer", None), (mod, "inner", "inner", None),
               (mod.Box, "work", "box", None)]
    with pytest.raises(RuntimeError):
        with instrumented(tracer, targets):
            assert mod.inner is not originals[0]
            raise RuntimeError("boom")
    assert (mod.inner, mod.outer, vars(mod.Box)["work"]) == originals


def test_hook_sees_result_in_its_own_span():
    mod = _fake_module()
    tracer = Tracer()
    seen = []
    targets = [(mod, "inner", "inner",
                lambda args, kwargs, result: seen.append(result))]
    with instrumented(tracer, targets):
        mod.outer()
    assert seen == ["inner", "inner"]
    assert tracer.calls() == {"inner": 2, "trace.hooks": 2}


def test_missing_attribute_restores_what_was_installed():
    mod = _fake_module()
    original = mod.inner
    targets = [(mod, "inner", "inner", None), (mod, "absent", "x", None)]
    with pytest.raises(KeyError):
        with instrumented(Tracer(), targets):
            pass
    assert mod.inner is original


def test_nessolve_wrappers_are_removed_and_named():
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    tracer = Tracer()
    targets = nessolve_targets(tracer)
    assert {name for _, _, name, _ in targets} <= set(LAYER_SPANS)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    with instrumented(tracer, targets):
        during = [vars(owner)[attr] for owner, attr, _, _ in targets]
    after = [vars(owner)[attr] for owner, attr, _, _ in targets]
    assert all(d is not b for d, b in zip(during, before))
    assert all(a is b for a, b in zip(after, before))
