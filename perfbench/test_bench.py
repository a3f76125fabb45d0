"""Tests of the benchmark's own parts: python3 -m pytest perfbench -q"""

import json
import os
import re

import exprgen
import run
import spans


def test_same_seed_gives_identical_expressions():
    assert exprgen.generate(7, 300) == exprgen.generate(7, 300)


def test_different_seed_gives_different_expressions():
    assert exprgen.generate(7, 300) != exprgen.generate(8, 300)


def test_rational_operands_only_in_two_argument_forms():
    for model, text in exprgen.generate(3, 2000):
        assert model in exprgen.MODELS
        if re.match(r"(nb|qnb|jordan)\(", text):
            assert "/x" not in text and "/(" not in text, text


def test_benchmark_json_matches_the_harness():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        list(run.PER_LAYER)


def test_tracer_self_time_and_spans(tmp_path):
    tracer = spans.Tracer()

    def inner(x):
        return x + 1

    wrapped_inner = tracer.wrap(inner, "poly", "inner")

    def outer(x):
        return wrapped_inner(x) * 2

    wrapped_outer = tracer.wrap(outer, "radical", "outer")
    assert wrapped_outer(1) == 4
    assert wrapped_outer(2) == 6
    assert tracer.reached() == {"radical:outer": 2, "poly:inner": 2}
    layers = tracer.by_layer()
    assert layers["poly"]["calls"] == 2 and layers["radical"]["calls"] == 2
    path = str(tmp_path / "t.spans")
    assert tracer.write(path, {"pass": 1}) == 4
    header, arrays = spans.read_spans(path)
    assert header["pass"] == 1
    assert list(arrays["parent"]) == [-1, 0, -1, 2]
    for start, end in zip(arrays["start"], arrays["end"]):
        assert 0 < start <= end
    outer_total = sum(arrays["end"][i] - arrays["start"][i] for i in (0, 2))
    inner_total = sum(arrays["end"][i] - arrays["start"][i] for i in (1, 3))
    self_outer = tracer.by_key()["radical.outer"]["self_s"]
    assert abs(self_outer - (outer_total - inner_total)) < 1e-9
