"""Tests of the benchmark itself: span arithmetic, instrumentation, gates, seeds.

    PYTHONPATH=src python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from taxis_cascade import cli, config, kinetics, monitors, solver, weakform  # noqa: E402
from taxis_cascade import grid as gridmod  # noqa: E402
from taxis_cascade.presets import preset  # noqa: E402


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_of_a_nested_tree_sums_to_the_root():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.leaf", 2.0, 3.5, 1),
        _span("b", 5.0, 9.0, 0),
        _span("b.leaf", 5.0, 6.0, 3),
        _span("b.leaf", 7.0, 8.0, 3),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 1.5, 1.5, 2.0, 1.0, 1.0])
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0)
    assert tracing.calls_by_name(spans) == {"root": 1, "a": 1, "a.leaf": 1, "b": 1,
                                            "b.leaf": 2}


def test_overlapping_or_overhanging_children_are_covered_once():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("x", 2.0, 6.0, 0),
        _span("y", 4.0, 12.0, 0),   # ends after its parent: clipped to 10
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(2.0)
    assert tracing.covered_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.covered_length([]) == 0.0


def test_tracer_links_nested_calls_and_only_records_when_enabled():
    tr = tracing.Tracer()
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert tr.spans == []
    tr.enabled = True
    tr.run_id = 7
    assert outer(1) == 4
    (o_name, o_start, o_end, o_parent, o_run), (i_name, i_start, i_end, i_parent, _) = tr.spans
    assert (o_name, o_parent, o_run, i_name, i_parent) == ("outer", -1, 7, "inner", 0)
    assert o_start <= i_start <= i_end <= o_end


def _modules():
    return {"solver": solver, "grid": gridmod, "monitors": monitors,
            "weakform": weakform, "config": config, "cli": cli, "kinetics": kinetics}


def test_instrumentation_covers_a_run_and_restores_every_attribute(tmp_path):
    before = {name: getattr(mod, attr) for name, (key, attr) in
              tracing.MODULE_BOUNDARIES.items() if "." not in attr
              for mod in [_modules()[key]]}
    law_call = kinetics.PurePower.__call__
    cfg = replace(preset("thm2-decay").config, nx=16, ny=16, t_end=1.0,
                  out_dir=str(tmp_path / "run"))
    setup = cfg.build_setup()
    tr = tracing.Tracer()
    inst = tracing.Instrumentation(_modules(), tr).install()
    tr.enabled = True
    try:
        result = solver.run(setup)
        rows, _ = cli.verify_weak(tmp_path / "run")
    finally:
        inst.restore()
    assert result.completed and all(r[4] for r in rows)
    # green monitors, but t_end 1 is too short for the decay verdicts
    assert workloads.run_problems(workloads.WORKLOADS["thm1-256"], result) == []
    assert workloads.run_problems(workloads.WORKLOADS["decay-40"], result) == [
        "nutrient decay not detected", "eventual-regularity verdict is not 'regularized'"]
    for name, original in before.items():
        key, attr = tracing.MODULE_BOUNDARIES[name]
        assert getattr(_modules()[key], attr) is original
    assert kinetics.PurePower.__call__ is law_call
    assert not isinstance(solver._fft, tracing._FftProxy)

    layers = inst.metrics(result.steps)
    assert layers["solver.step.calls"] == result.steps
    assert layers["solver.suggest_dt.calls"] == result.steps
    assert inst.cg_iterations[0] == layers["solver.cg_iters_u"] * result.steps
    n_snap = len(list((tmp_path / "run").glob("u_*.fld")))
    assert layers["grid.write_field.calls"] == 3 * n_snap
    assert layers["grid.write_field.bytes"] == 3 * n_snap * 16 * 16 * 8
    assert 0.0 < layers["weakform.load.hit_ratio"] < 1.0
    run_span = next(s for s in tr.spans if s[0] == "solver.run")
    assert layers["trace.self_sum_s"] == pytest.approx(run_span[2] - run_span[1])


def _gate_case(name):
    wl = workloads.WORKLOADS[name]
    g = gridmod.Grid(wl.n, wl.n)
    X, Y = g.cell_centers()
    ref = {"u": 1.0 + 0.5 * X, "v": 0.8 + 0.1 * Y, "w": 0.3 + 0.2 * X * Y}
    return wl, g, ref


@pytest.mark.parametrize("name", ["decay-40", "thm1-256"])
def test_accuracy_gate_rejects_a_perturbed_final_state(name):
    wl, g, ref = _gate_case(name)
    final = {k: v.copy() for k, v in ref.items()}
    final["w"] = final["w"] * (1.0 + 0.5 * wl.ref_err_w_max)
    assert workloads.accuracy_problems(wl, workloads.accuracy(final, ref, g), final) == []

    final["w"] = ref["w"] * (1.0 + 2.0 * wl.ref_err_w_max)
    problems = workloads.accuracy_problems(wl, workloads.accuracy(final, ref, g), final)
    assert any("ref_err_w" in p for p in problems)

    final = {k: v.copy() for k, v in ref.items()}
    final["u"][3, 4] = -1e-3
    problems = workloads.accuracy_problems(wl, workloads.accuracy(final, ref, g), final)
    assert any("nonnegative" in p for p in problems)


def test_accuracy_gate_rejects_manufactured_errors_beyond_tolerance():
    wl = workloads.WORKLOADS["mms-128"]
    errors = {f"l2_{k}": v for k, v in workloads.MMS_SEED0_ERR.items()}
    assert workloads.accuracy_problems(wl, workloads.mms_accuracy(wl, 0, errors)) == []
    errors["l2_u"] *= 1.0 + 2.0 * workloads.MMS_ERR_TOL
    problems = workloads.accuracy_problems(wl, workloads.mms_accuracy(wl, 0, errors))
    assert len(problems) == 1 and "err_l2_u" in problems[0]


def test_seed_zero_is_the_preset_and_other_seeds_only_jitter_initial_gaussians():
    wl = workloads.WORKLOADS["decay-40"]
    shipped = preset("thm2-decay").config
    cfg0 = workloads.make_config(wl, 0, "somewhere")
    assert cfg0 == replace(shipped, t_end=wl.t_end, out_dir="somewhere")
    cfg3 = workloads.make_config(wl, 3, None)
    assert cfg3 == workloads.make_config(wl, 3, None)
    assert cfg3.init_u != shipped.init_u and cfg3.init_w != shipped.init_w
    assert replace(cfg3, init_u=shipped.init_u, init_v=shipped.init_v,
                   init_w=shipped.init_w) == replace(cfg0, out_dir=None)
    for recipe, jittered in ((shipped.init_u, cfg3.init_u), (shipped.init_v, cfg3.init_v)):
        a = [float(t) for t in recipe[len("gaussian("):-1].split(",")]
        b = [float(t) for t in jittered[len("gaussian("):-1].split(",")]
        assert abs(a[0] - b[0]) <= workloads.CENTRE_JITTER
        assert abs(a[1] - b[1]) <= workloads.CENTRE_JITTER
        assert abs(b[3] / a[3] - 1.0) <= workloads.AMPLITUDE_JITTER
        assert (a[2], a[4]) == (b[2], b[4])

    thm1 = workloads.make_config(workloads.WORKLOADS["thm1-256"], 0, None)
    assert thm1.out_dir is None and thm1.snapshot_every == 0.0 and thm1.nx == 256
    assert workloads.mms_spec(0) == solver.shipped_mms()
    assert workloads.mms_spec(5) == workloads.mms_spec(5) != workloads.mms_spec(0)


def test_reference_key_follows_the_inputs():
    wl = workloads.WORKLOADS["thm1-256"]
    assert workloads.reference_key(wl, 1) == workloads.reference_key(wl, 1)
    assert workloads.reference_key(wl, 1) != workloads.reference_key(wl, 2)
    assert workloads.reference_key(wl, 1) != workloads.reference_key(
        replace(wl, ref_dt=2e-4), 1)


def test_end_to_end_metrics_match_the_benchmark_file():
    import json

    import run

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)
