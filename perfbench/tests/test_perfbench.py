"""Tests for the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_nested_and_adjacent_children():
    spans = [
        Span("root", None, 0.0, 10.0),
        Span("a", 0, 1.0, 3.0),        # child of root
        Span("a", 1, 1.5, 2.5),        # nested in a: only a's self shrinks
        Span("b", 0, 3.0, 6.0),        # adjacent to the first a
        Span("c", 0, 5.0, 9.0),        # overlaps b, as a worker thread's span can
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.0, 1.0, 3.0, 4.0])
    summary = summarize(spans)
    assert summary["a"] == pytest.approx({"calls": 2, "self_s": 2.0, "incl_s": 2.0})
    assert summary["root"]["incl_s"] == 10.0


def test_tracer_wraps_and_counts_errors():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    wrapped_inner = tracer.wrap("inner", inner, errors=(ValueError,))
    outer = tracer.wrap("outer", lambda x: wrapped_inner(x), errors=(ValueError,))
    assert outer(2) == 2
    with pytest.raises(ValueError):
        outer(-1)
    assert tracer.counts["oracle.errors"] == 1
    assert [s.parent for s in tracer.spans] == [None, 0, None, 2]
    assert all(s.end > s.start for s in tracer.spans)


def test_mc_efficiency_on_hand_written_details():
    details = {"records": [
        {"method": "MC_CONE", "samples": 200000, "lhs": 1.5, "lhs_stderr": 0.0},  # L23_1
        {"method": "MC_CONE", "samples": 200000, "lhs": 0.7, "lhs_stderr": 0.0},  # COR1_1
        {"method": "MC_TUBE", "samples": 200000, "lhs": {"re": 3.0, "im": 4.0},
         "lhs_stderr": 0.05},                                  # RSE 1 %
        {"method": "MC_CONE", "samples": 1000, "lhs": -2.0, "lhs_stderr": 0.04},  # 2 %
        {"method": "QUAD_ITERATED", "samples": 1, "lhs": 1.0, "lhs_stderr": 1e-9},
    ]}
    assert run.mc_sample_need(details) == pytest.approx(200000 + 4000)
    out = run.mc_efficiency(details, samples=1.0e6, wall_s=2.0)
    assert out["mc_samples_per_s"] == (5.0e5, "1/s")
    assert out["mc_s_to_1pct"][0] == pytest.approx(204000 / 5.0e5)
    assert run.mc_efficiency(None, 0.0, 2.0)["mc_s_to_1pct"][0] == 0.0


def test_metric_names():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert [m["name"] for m in bench["end_to_end"]] == list(run.E2E_UNITS)
    printed = set(layer_metrics({}, {})) | {"trace_overhead_s"} \
        | set(run.mc_efficiency(None, 0.0, 1.0))
    assert printed == {m["name"] for m in bench["per_layer"]}
    layer_map = json.loads((HERE / "baseline.json").read_text())["layer_map"]
    assert set(layer_map) == printed


def _runner(tmp_path, config):
    runner = run.Runner("audit-n1-quad", 0, tmp_path, time.monotonic() + 120)
    runner.config = config
    runner.config_path.write_text(json.dumps(config))
    return runner


def test_unusable_config_is_a_failed_operation(tmp_path):
    result = _runner(tmp_path, {"n": 7}).child(1)
    assert result["rc"] == 2
    assert result["problems"]


def test_traced_run_finds_every_layer(tmp_path):
    cases = json.loads((HERE / "cases" / "audit-n1-quad.json").read_text())
    config = {"seed": 0, "cases": cases["cases"][:1]}       # one L23_1 row
    result = _runner(tmp_path, config).child(1, traced=True)
    assert result["problems"] == []
    assert result["trace_missing"] == []
    assert result["layers"]["oracle.quad.integrand_calls"][0] > 0
    assert result["layers"]["reporting.bytes"][0] > 0


@pytest.mark.parametrize("seconds", ["0", "61"])
def test_seconds_outside_the_run_limit_are_refused(seconds, capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "audit-n1-quad", "--seconds", seconds])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
