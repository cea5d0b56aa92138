"""The benchmark tracer's contract with the program.

`perfbench/bench_trace.py` wraps program functions by name and counts from
their results: `len()` of what `load_extracts` and `run_filter_pipeline`
return, and the `cursor_advances` of each join.  These tests load it by
path, apart from the benchmark runner, so that a renamed function or a changed
result fails here and not only in a traced benchmark round.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from icustudy.cli import main

BENCH_TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "bench_trace.py"

#: the counts of `cohort run` then `varprep run` on `icustudy synth` extracts
#: of 300 patients at seed 7, plus two records of each attrition kind: each
#: command loads the 320 records, the second with 16 of the 19 joins
ETL_300_COUNTS = {
    "cohort.records": 640,
    "cohort.survivors": 300,
    "cohort.join_calls": 35,
    "cohort.join_advances": 21486,
    "varprep.rows": 300,
    "varprep.rejections": 0,
}


@pytest.fixture(scope="module")
def bench_trace():
    spec = importlib.util.spec_from_file_location("bench_trace", BENCH_TRACE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(bench_trace):
    missing = [
        f"{module}.{function}"
        for module, function, *_ in bench_trace.TRACED
        if not callable(getattr(sys.modules[f"icustudy.{module}"], function, None))
    ]
    assert not missing


def test_traced_cohort_and_varprep_counts(bench_trace, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text(f"extracts_dir = {tmp_path / 'extracts'}\nout_dir = {tmp_path / 'out'}\nseed = 7\nsynth_n = 300\n")
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "extracts")]) == 0
    tracer = bench_trace.Tracer("test")
    tracer.install()
    try:
        assert main(["cohort", "run", "--config", str(config)]) == 0
        assert main(["varprep", "run", "--config", str(config)]) == 0
    finally:
        tracer.uninstall()
    metrics = bench_trace.layer_metrics(tracer.spans)
    assert {name: metrics[name] for name in ETL_300_COUNTS} == ETL_300_COUNTS
