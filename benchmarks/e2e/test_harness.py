"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e``.

They run the real program at a twentieth of the benchmark's data size,
so they check the harness (folding, percentiles, seeding, the oracle,
rebinding), not the numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import spans as spanlib  # noqa: E402
import surface  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05


# -- self-time folding --------------------------------------------------------


class FakeClock:
    """Time that moves only when a test says so."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def work(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(spanlib, "perf_counter", fake)
    return fake


def test_self_time_of_nested_calls(clock):
    recorder = spanlib.Recorder()

    def inner():
        clock.work(3.0)

    traced_inner = recorder.wrap("inner", inner)

    def outer():
        clock.work(1.0)
        traced_inner()
        clock.work(2.0)
        traced_inner()

    recorder.wrap("outer", outer)()
    folded = spanlib.fold(recorder.drain())
    assert folded["outer"] == {"self_s": 3.0, "incl_s": 9.0, "calls": 1}
    assert folded["inner"] == {"self_s": 6.0, "incl_s": 6.0, "calls": 2}


def test_reentrant_call_counts_once_at_the_outermost_frame(clock):
    recorder = spanlib.Recorder()

    def build(depth):
        clock.work(1.0)
        if depth:
            traced(depth - 1)

    traced = recorder.wrap("build", build)
    traced(3)
    spans = recorder.drain()
    assert len(spans) == 1
    assert spanlib.fold(spans)["build"] == {
        "self_s": 4.0, "incl_s": 4.0, "calls": 1,
    }


def test_indirect_nesting_is_not_double_counted_inclusively(clock):
    recorder = spanlib.Recorder()

    def query(depth):
        clock.work(1.0)
        if depth:
            traced_view(depth)

    def view(depth):
        clock.work(2.0)
        traced_query(depth - 1)

    traced_query = recorder.wrap("query", query)
    traced_view = recorder.wrap("view", view)
    traced_query(1)
    folded = spanlib.fold(recorder.drain())
    assert folded["query"] == {"self_s": 2.0, "incl_s": 4.0, "calls": 2}
    assert folded["view"] == {"self_s": 2.0, "incl_s": 3.0, "calls": 1}


def test_generator_work_is_charged_when_it_is_resumed(clock):
    recorder = spanlib.Recorder()

    def rows():
        for _ in range(3):
            clock.work(2.0)
            yield 1

    traced_rows = recorder.wrap("rows", rows)

    def consumer():
        total = 0
        for value in traced_rows():
            clock.work(1.0)
            total += value
        return total

    assert recorder.wrap("consumer", consumer)() == 3
    folded = spanlib.fold(recorder.drain())
    assert folded["rows"]["self_s"] == 6.0
    assert folded["rows"]["calls"] == 1
    assert folded["consumer"]["self_s"] == 3.0


def test_fold_can_be_restricted_to_operations(clock):
    recorder = spanlib.Recorder()
    step = recorder.wrap("layer", lambda: clock.work(1.0))
    op = recorder.open("op")
    step()
    recorder.close(op)
    step()
    spans = recorder.drain()
    assert spanlib.fold(spans)["layer"]["calls"] == 2
    inside = spanlib.fold(spans, spanlib.under(spans, "op"))
    assert inside["layer"] == {"self_s": 1.0, "incl_s": 1.0, "calls": 1}
    assert len(spanlib.subtree(spans, op)) == 2


# -- percentiles --------------------------------------------------------------


def test_highest_percentile_with_ten_samples_beyond_it():
    assert bench.supported_percentile(19) == 50.0
    assert bench.supported_percentile(40) == 75.0
    assert bench.supported_percentile(99) == 75.0
    assert bench.supported_percentile(100) == 90.0
    assert bench.supported_percentile(workloads.MIN_OPS) == 90.0
    assert bench.supported_percentile(200) == 95.0
    assert bench.supported_percentile(1000) == 99.0


def test_nearest_rank_percentile():
    values = [float(v) for v in range(1, 111)]
    assert bench.percentile(values, 50) == 55.0
    assert bench.percentile(values, 90) == 99.0
    assert sum(v > bench.percentile(values, 90) for v in values) >= 10


# -- seeding and the oracle ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(3, SCALE).dataset.digest() == make(3, SCALE).dataset.digest()
    assert make(3, SCALE).dataset.digest() != make(4, SCALE).dataset.digest()


@pytest.mark.parametrize("name", ["point_lens", "cdc_sync", "features_on"])
def test_exact_counters_repeat_for_a_seed(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    runs = [bench.measure_per_layer(surface, name, 5, 0.3, SCALE)
            for _ in range(2)]
    for loop, _metrics, info in runs:
        assert loop.failed == 0, loop.reasons
        assert info["layers_missing"] == []
    first, second = (metrics for _loop, metrics, _info in runs)
    assert {k: first[k] for k in bench.EXACT} == \
        {k: second[k] for k in bench.EXACT}
    assert (tmp_path / f"spans-{name}.json").exists()
    assert (tmp_path / f"trace-{name}.json").exists()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [6, 7])
def test_every_answer_agrees_with_the_oracle(name, seed):
    loop = bench.set_up(surface, name, seed, SCALE)
    loop.run(ops=12)
    assert loop.failed == 0, loop.reasons
    assert len(loop.op_ms) == 12 and loop.elements > 0


class Tampering:
    """A system that loses the last element of every answer."""

    def __init__(self, system):
        self.system = system

    def execute(self, step):
        outcome = self.system.execute(step)
        for answer in outcome.answers:
            answer.elements.pop()
        return outcome


def test_a_planted_wrong_answer_is_a_failed_operation():
    loop = bench.set_up(surface, "join_sort", 8, SCALE)
    assert loop.failed == 0
    loop.system = Tampering(loop.system)
    loop.run(ops=3)
    assert loop.failed == 3
    assert "expected" in loop.reasons[0]


def test_mismatch_names_the_wrong_field():
    request = workloads.Request("", "xml", "r", [("r", {}, [("k", 1), ("v", 2.5)])])
    good = [("r", {}, [("k", "1"), ("v", "2.50")])]
    assert workloads.mismatch(request, good, "<r><k>1</k></r>", True) is None
    assert "incomplete" in workloads.mismatch(request, good, "<r>", False)
    assert "rendered 0 rows" in workloads.mismatch(request, good, "", True)
    wrong = [("r", {}, [("k", "1"), ("v", "2.51")])]
    assert "<v>" in workloads.mismatch(request, wrong, "<r>", True)


# -- rebinding ----------------------------------------------------------------


def bound_names():
    """Every place a wrapped entry point is reachable from, by identity."""
    import repro
    import repro.core.engine as engine_module

    places = [(owner, attribute) for _name, owner, attribute in surface.WRAPS]
    places += [(engine_module, "parse_query"), (engine_module, "decompose"),
               (repro, "parse_document"), (surface, "format_result")]
    return {(owner.__name__, attribute): vars(owner)[attribute]
            for owner, attribute in places}


def test_every_rebound_name_is_the_original_again():
    before = bound_names()
    recorder = spanlib.Recorder()
    recorder.install(surface.WRAPS)
    during = bound_names()
    assert all(during[place] is not before[place] for place in before)
    recorder.uninstall()
    after = bound_names()
    assert all(after[place] is before[place] for place in before)


# -- compare ------------------------------------------------------------------


def test_verdicts():
    steady = [100.0, 101.0, 99.0, 100.5]
    assert bench.verdict(steady, [100.2, 99.8, 100.9, 100.1], "lower", 0.10) \
        == "within bound"
    assert bench.verdict(steady, [120.0, 121.0, 119.0, 122.0], "lower", 0.10) \
        == "worse"
    assert bench.verdict(steady, [80.0, 81.0, 79.0, 80.5], "lower", 0.10) \
        == "better"
    assert bench.verdict(steady, [80.0, 81.0, 79.0, 80.5], "higher", 0.10) \
        == "worse"
    # a lower median whose runs overlap the base's is not a gain
    assert bench.verdict(steady, [98.0, 97.5, 100.8, 97.0], "lower", 0.10) \
        == "within bound"
    noisy = [100.0, 130.0, 85.0, 115.0]
    assert bench.verdict(noisy, [104.0, 128.0, 90.0, 118.0], "lower", 0.10) \
        == "unresolved"
    assert bench.verdict(noisy, [50.0, 70.0, 40.0, 60.0], "lower", 0.10) \
        == "better"
