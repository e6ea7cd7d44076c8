"""Tests of the benchmark itself: python -m pytest bench"""

from __future__ import annotations

import json
import re
import signal
import sys
import time

import pytest

import run
from checks import check_job
from speed import NOMINAL_S, PERIOD_S, SpeedSampler
from stationarylab import cli
from tracer import COUNTED, CountTracer, SpanTracer, span_metric_names
from workloads import WORKLOADS, Job, jobs_for

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# Small jobs that reach every traced layer in well under a second each.
SMALL_JOBS = [
    Job("kesten", jobs_for("brackets", 0)[0].config),
    Job("norm", {"experiment": "norm", "rank": 2, "n_moments": 4, "element": {
        "context": 2, "terms": [{"word": "a", "re": 1.0}, {"word": "ab", "re": 0.5},
                                {"word": "Ba", "re": 0.3}]}}),
    Job("cesaro", {"experiment": "cesaro", "rank": 2, "element": "ab", "n_max": 2}),
    Job("build-mu", {"experiment": "build-mu", "rank": 2, "levels": 1, "family": ["ab"]}),
    Job("powers", {"experiment": "powers", "rank": 2, "g": "ab", "eps": 0.75, "budget": 16}),
    Job("srs-escape", {"experiment": "srs-escape", "rank": 2, "steps": 40, "trials": 5,
                       "seed": 3}),
    Job("conditional", {"experiment": "conditional", "rank": 2, "n": 5, "paths": 3,
                        "nu_depth": 4, "seed": 3}),
    Job("bnd-map", {"experiment": "bnd-map", "rank": 2, "length": 60, "paths": 5, "seed": 3}),
    Job("pdf-check", {"experiment": "pdf-check", "rank": 2, "measures": 2, "tuples": 5,
                      "seed": 3}),
    Job("boundary-solve", {"experiment": "boundary-solve", "rank": 2, "depth": 3}),
    Job("fix-mass", {"experiment": "fix-mass", "rank": 2, "depth": 5, "gens": "ball1"}),
]


def _attributes():
    """Identity of every attribute the tracers may replace."""
    state = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "stationarylab":
            state.update({(name, k): id(v) for k, v in vars(mod).items()})
    for cls in (sys.modules["stationarylab.freegroup"].Word,
                sys.modules["stationarylab.subgroups"].SubgroupChain):
        state.update({(cls.__name__, k): id(v) for k, v in vars(cls).items()})
    return state


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_fixes_the_job_list(workload):
    assert jobs_for(workload, 7) == jobs_for(workload, 7)
    ids = [job.id for job in jobs_for(workload, 7)]
    assert len(ids) == len(set(ids))
    assert any(jobs_for(workload, s) != jobs_for(workload, 7) for s in range(8))


def test_traced_outputs_are_identical(tmp_path):
    plain = run.run_pass(SMALL_JOBS, tmp_path / "plain")
    with SpanTracer() as span:
        traced = run.run_pass(SMALL_JOBS, tmp_path / "traced", span)
    with CountTracer() as count:
        counted = run.run_pass(SMALL_JOBS, tmp_path / "counted")
    for results in (plain, traced, counted):
        assert [r["problems"] for r in results] == [[]] * len(SMALL_JOBS)
    assert [r["outputs"] for r in traced] == [r["outputs"] for r in plain]
    assert [r["outputs"] for r in counted] == [r["outputs"] for r in plain]
    metrics = span.metrics()
    called = {name for name in span_metric_names()
              if name.endswith(".calls") and metrics[name] > 0}
    # every traced function runs at least once across the small jobs
    assert called == {name for name in span_metric_names() if name.endswith(".calls")}
    assert metrics["cli.run.calls"] == len(SMALL_JOBS)
    assert all(count.counts[name] > 0 for name in COUNTED)
    assert 0.5 < span.covered_share() <= 1.0


def test_wrappers_are_removed(tmp_path):
    before = _attributes()
    for tracer in (SpanTracer, CountTracer):
        with tracer():
            assert _attributes() != before
        assert _attributes() == before
        with pytest.raises(RuntimeError), tracer():
            raise RuntimeError("job failed")
        assert _attributes() == before


def test_self_time_excludes_children():
    span = SpanTracer()
    span.spans += [("cli.run", 0.0, 10.0, -1, "j", None),
                   ("algebra.certify_norm", 1.0, 5.0, 0, "j", None),
                   ("algebra.convolve", 2.0, 3.0, 1, "j", {"pairs": 4, "terms_out": 3})]
    assert span.self_times() == [6.0, 3.0, 1.0]
    assert span.covered_share() == 0.4
    metrics = span.metrics()
    assert metrics["algebra.convolve.pairs"] == 4
    assert metrics["algebra.certify_norm.calls"] == 1


def test_speed_scale():
    speed = SpeedSampler()
    speed.samples += [(0.0, 2 * NOMINAL_S), (1.0, NOMINAL_S / 2), (1.5, NOMINAL_S / 2)]
    net, ref, kernel = speed.scale(0.5, 2.0)
    assert net == pytest.approx(1.5 - NOMINAL_S)
    assert ref == pytest.approx(net * (0.5 + 2 + 2) / 3)
    assert kernel == pytest.approx(NOMINAL_S)


def test_speed_sampler_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedSampler() as speed:
        time.sleep(3 * PERIOD_S)
    assert len(speed.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_checks_catch_a_changed_output(tmp_path):
    job = SMALL_JOBS[-1]
    cli.run(job.config, tmp_path)
    assert check_job(job.id, job.config, tmp_path) == []
    csv_path = tmp_path / "fixmass.csv"
    csv_path.write_text(csv_path.read_text().replace(",5\n", ",4\n", 1))
    assert len(check_job(job.id, job.config, tmp_path)) >= 2


def test_metric_names():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    traced = span_metric_names() + list(COUNTED) + ["trace.overhead_s",
                                                    "trace.covered_share"]
    assert [m["name"] for m in SPEC["per_layer"]] == traced
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    record = json.loads((run.BENCH / "record.json").read_text())
    mapped = [name for layer in record["layers"] for name in layer["metrics"]]
    assert sorted(mapped) == sorted(n for n in traced if not n.startswith("trace."))
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(layer["moves"]) <= end_to_end for layer in record["layers"])
