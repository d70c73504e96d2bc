"""The outside-in tracer: self-time arithmetic, rebinding and restore."""

import sys
import types

import pytest

from perfbench.layers import Layer
from perfbench.tracer import Tracer, covered_length, span_self_times


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0, 10) == 0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_subtracts_child_cover_on_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    outer = tracer.begin("outer")          # [0, 10]
    clock.now = 1
    first = tracer.begin("a")              # [1, 3]
    clock.now = 3
    tracer.end(first)
    clock.now = 4
    second = tracer.begin("b")             # [4, 8]
    clock.now = 5
    inner = tracer.begin("c")              # [5, 6]
    clock.now = 6
    tracer.end(inner)
    clock.now = 8
    tracer.end(second)
    clock.now = 10
    tracer.end(outer)

    assert span_self_times(tracer.spans) == [4.0, 2.0, 3.0, 1.0]
    totals = tracer.aggregate()
    assert totals["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 4.0}
    assert totals["b"] == {"calls": 1, "busy_s": 4.0, "self_s": 3.0}


def test_self_time_ignores_unclosed_spans_and_filters_by_phase():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    done = tracer.begin("x")
    clock.now = 2
    tracer.end(done)
    tracer.phase = "run"
    tracer.begin("y")                      # never closed
    assert span_self_times(tracer.spans) == [2.0, 0.0]
    assert tracer.aggregate("run") == {}
    assert tracer.aggregate("setup")["x"]["busy_s"] == 2.0


def test_out_of_order_end_is_an_error():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_same_name_recursion_is_one_span():
    tracer = Tracer()

    def countdown(n):
        return 0 if n == 0 else traced(n - 1)

    traced = tracer.wrap("countdown", countdown)
    traced(3)
    assert tracer.aggregate()["countdown"]["calls"] == 1


FIXTURE_SOURCE = '''
def work(n):
    return n + 1


class Base:
    def forward(self, x):
        return x * 2


class Child(Base):
    def forward(self, x):
        return super().forward(x) + 1
'''


@pytest.fixture
def fixture_modules():
    """``repro._bench_a`` defines; ``repro._bench_b`` imports by name."""
    names = ("repro._bench_a", "repro._bench_b", "repro._bench_late")
    defining = types.ModuleType(names[0])
    exec(FIXTURE_SOURCE, defining.__dict__)
    importer = types.ModuleType(names[1])
    importer.work = defining.work
    importer.alias = defining.work
    sys.modules[names[0]] = defining
    sys.modules[names[1]] = importer
    try:
        yield defining, importer
    finally:
        for name in names:
            sys.modules.pop(name, None)


def test_install_rebinds_every_import_and_uninstall_restores(fixture_modules):
    defining, importer = fixture_modules
    original_work = defining.work
    original_base = defining.Base.__dict__["forward"]
    original_child = defining.Child.__dict__["forward"]
    seen = []
    layers = [
        Layer("bench.work", defining.__name__, ("work",), "", "", "",
              observe=lambda tracer, args, kwargs, result: seen.append(result)),
        Layer("bench.forward", defining.__name__, ("forward",), "", "", ""),
        Layer("bench.missing", defining.__name__, ("absent",), "", "", ""),
    ]
    tracer = Tracer()
    assert tracer.install(layers) == ["bench.missing"]
    assert defining.work is not original_work
    assert importer.work is defining.work and importer.alias is defining.work

    # A module imported while the tracer is installed copies the wrapper.
    late = types.ModuleType("repro._bench_late")
    late.work = defining.work
    sys.modules[late.__name__] = late

    assert importer.work(1) == 2 and importer.alias(2) == 3
    assert defining.Child().forward(1) == 3
    totals = tracer.aggregate()
    assert totals["bench.work"]["calls"] == 2
    assert seen == [2, 3]
    # Child.forward delegating to Base.forward is one span, not two.
    assert totals["bench.forward"]["calls"] == 1

    tracer.uninstall()
    assert defining.work is original_work
    assert importer.work is original_work and importer.alias is original_work
    assert late.work is original_work
    assert defining.Base.__dict__["forward"] is original_base
    assert defining.Child.__dict__["forward"] is original_child
    before = len(tracer.spans)
    importer.work(1)
    defining.Child().forward(1)
    assert len(tracer.spans) == before


def test_installed_for_restores_on_error(fixture_modules):
    defining, _ = fixture_modules
    original = defining.work
    tracer = Tracer()
    layer = Layer("bench.work", defining.__name__, ("work",), "", "", "")
    with pytest.raises(ZeroDivisionError):
        with tracer.installed_for([layer]):
            assert defining.work is not original
            1 / 0
    assert defining.work is original


def test_counters_are_kept_per_phase():
    tracer = Tracer()
    tracer.count("images", 3)
    tracer.phase = "run"
    tracer.count("images", 2)
    tracer.count("images")
    assert tracer.counters["setup"]["images"] == 3
    assert tracer.counters["run"]["images"] == 3
