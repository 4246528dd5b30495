import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from itertools import pairwise
from pathlib import Path

import numpy as np
import pytest

from taxis_cascade import cli, weakform
from taxis_cascade import grid as G
from taxis_cascade import kinetics as K
from taxis_cascade import solver as S
from taxis_cascade.config import Config, format_config, parse_config
from taxis_cascade.errors import DomainError, StructuralError
from taxis_cascade.presets import preset, preset_names


def small_cfg(tmp_path, name="thm1-core", **kw):
    cfg = replace(preset(name).config, nx=12, ny=12, t_end=0.5,
                  out_dir=str(tmp_path / "out"), snapshot_every=0.25,
                  cadence=0.25)
    return replace(cfg, **kw)


def write_cfg(tmp_path, cfg, name="case.ini"):
    p = tmp_path / name
    p.write_text(format_config(cfg))
    return p


def test_grid_too_large_to_allocate_is_one_error_line(tmp_path, capsys):
    # 10^16 cells would need 71 PiB: the grid's ceiling refuses them first
    p = tmp_path / "huge.ini"
    p.write_text("[grid]\nnx = 100000000\nny = 100000000\n")
    assert cli.main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == ("error: a 100000000x100000000 grid exceeds the ceiling "
                   f"of {G.MAX_CELLS} cells\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, recipe", [
    (["mms", "--levels", "100000000"], ""),
    (["run"], "[initial]\nu = gaussian(0.5, 0.5, 0.1, 1.0, 0.2)\n"),
], ids=["mms", "gaussian"])
def test_grid_above_the_ceiling_allocates_nothing(tmp_path, capsys, argv, recipe):
    # the manufactured triple and a gaussian recipe build cell-centre
    # coordinates before any field; the ceiling comes before both
    if recipe:
        p = tmp_path / "huge.ini"
        p.write_text("[grid]\nnx = 100000000\nny = 100000000\n" + recipe)
        argv = argv + [str(p), "--out", str(tmp_path / "out")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: a 100000000x100000000 grid exceeds the ceiling")
    assert err.count("\n") == 1
    assert peak < 2**20


@pytest.mark.parametrize("sides", ["Lx = 1e-200", "Lx = 1e300", "Lx = 1e-160",
                                   "Lx = 1e155\nLy = 1e155"],
                         ids=["tiny", "huge", "subnormal-square", "huge-area"])
@pytest.mark.parametrize("argv", [["run"], ["sweep-epsilon", "--eps", "1e-1,1e-2"]],
                         ids=["run", "sweep"])
def test_a_domain_the_operators_cannot_resolve_is_one_error_line(tmp_path, capsys, sides,
                                                                 argv):
    # each once ended in a traceback (ZeroDivisionError, OverflowError), an
    # abort or a run with infinite masses
    p = tmp_path / "domain.ini"
    p.write_text(f"[grid]\n{sides}\n")
    assert cli.main([argv[0], str(p), *argv[1:], "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: the ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_mms_level_zero_is_refused_by_the_grid(capsys):
    # the grid refuses the size before the step h = 1/nx divides by it
    assert cli.main(["mms", "--levels", "0"]) == 1
    assert capsys.readouterr().err == "error: need at least 4x4 cells, got 0x0\n"


def test_empty_output_dir_runs_nothing_in_the_working_directory(tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u_00000000.fld").write_bytes(b"kept")
    p = tmp_path / "empty.ini"
    p.write_text("[grid]\nnx = 8\nny = 8\n[time]\nt_end = 0.01\n"
                 "[output]\nsnapshot_every = 0.005\ndir =\n")
    listing = sorted(tmp_path.iterdir())
    assert cli.main(["run", str(p)]) == 1
    assert capsys.readouterr().err == "error: bad config: bad value [output] dir = ''\n"
    assert sorted(tmp_path.iterdir()) == listing
    assert (tmp_path / "u_00000000.fld").read_bytes() == b"kept"


def test_failed_allocation_is_one_error_line(tmp_path, capsys, monkeypatch):
    # a grid under the ceiling can still be too large for the machine's memory
    def out_of_memory(cfg, g):
        raise MemoryError(f"Unable to allocate {8 * g.nx * g.ny} bytes for an array")
    monkeypatch.setattr(Config, "build_initial", out_of_memory)
    p = write_cfg(tmp_path, small_cfg(tmp_path))
    assert cli.main(["run", str(p)]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 1152 bytes for an array\n"
    assert not (tmp_path / "out").exists()


def test_run_small_case_exit_zero(tmp_path, capsys):
    p = write_cfg(tmp_path, small_cfg(tmp_path))
    assert cli.main(["run", str(p)]) == 0
    out_dir = tmp_path / "out"
    assert (out_dir / "timeseries.csv").exists()
    assert (out_dir / "monitors.csv").exists()
    assert (out_dir / "manifest.txt").exists()
    assert sorted(out_dir.glob("u_*.fld"))
    head = (out_dir / "timeseries.csv").read_text().splitlines()[0]
    assert head == "t,dt,mass_u,mass_v,mass_w,linf_u,linf_v,linf_w,clamps"
    mon_head = (out_dir / "monitors.csv").read_text().splitlines()[0]
    assert mon_head == "t,check_name,value,bound,margin,pass"


def test_run_t_end_zero_single_row(tmp_path):
    p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.0))
    assert cli.main(["run", str(p)]) == 0
    rows = (tmp_path / "out" / "timeseries.csv").read_text().splitlines()
    assert len(rows) == 2  # header plus the echoed initial state


@pytest.mark.parametrize("key, value", [
    ("t_end", math.inf), ("t_end", math.nan), ("t_end", -1.0),
    ("fixed_dt", -0.1), ("fixed_dt", 0.0), ("fixed_dt", math.nan), ("fixed_dt", math.inf),
    ("cadence", -1.0), ("cadence", math.nan), ("cadence", math.inf),
    ("snapshot_every", -0.2), ("snapshot_every", math.nan), ("snapshot_every", math.inf),
])
def test_run_rejects_non_finite_or_negative_times(tmp_path, key, value):
    cfg = small_cfg(tmp_path, **{key: value})
    with pytest.raises(DomainError, match=key):
        cfg.build_setup()
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 1
    assert not (tmp_path / "out" / "timeseries.csv").exists()


def test_bad_q_is_refused_before_the_snapshots_are_touched(tmp_path):
    # the run clears the snapshots of its directory, so a setup it would
    # refuse must be refused before it starts
    first = write_cfg(tmp_path, small_cfg(tmp_path, name="thm2-decay"))
    assert cli.main(["run", str(first)]) == 0
    before = sorted(p.name for p in (tmp_path / "out").glob("*.fld"))
    assert len(before) == 9
    cfg = small_cfg(tmp_path, name="thm2-decay", q=1.0)
    with pytest.raises(DomainError, match="q must exceed 1"):
        cfg.build_setup()
    assert cli.main(["run", str(write_cfg(tmp_path, cfg, name="q.ini"))]) == 1
    assert sorted(p.name for p in (tmp_path / "out").glob("*.fld")) == before


def test_gate_fail_blocks_run_unless_forced(tmp_path, capsys):
    cfg = small_cfg(tmp_path, name="gate-fail-alpha", t_end=0.1)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p)]) == 1
    assert not (tmp_path / "out" / "timeseries.csv").exists()  # no compute
    # one line naming every failing margin, as sweep-epsilon refuses it
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: global-existence gate failed (alpha_supercritical margin=-")
    assert err.count("\n") == 1 and "min_condition margin=" in err and "--force" in err
    assert cli.main(["run", str(p), "--force"]) in (0, 1)      # integrates
    assert (tmp_path / "out" / "timeseries.csv").exists()


def test_envelope_rejection_before_compute(tmp_path):
    # structurally admissible but the declared envelope does not hold
    cfg = small_cfg(tmp_path, f_law="allee", L_f=3.0)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p)]) == 1
    assert not (tmp_path / "out" / "timeseries.csv").exists()


def test_negative_at_zero_law_rejected(tmp_path):
    # f(0) < 0 violates the admissibility requirements
    p = tmp_path / "neg.ini"
    p.write_text("[kinetics]\nf_law = purepower(1.0, -0.2, 3.0)\n"
                 f"[output]\ndir = {tmp_path / 'out'}\n")
    assert cli.main(["run", str(p)]) == 1
    assert not (tmp_path / "out" / "timeseries.csv").exists()


def test_determinism_bit_identical_timeseries(tmp_path):
    cfg = small_cfg(tmp_path, init_u="random(0.2, 0.8)", seed=991)
    a = replace(cfg, out_dir=str(tmp_path / "a"))
    b = replace(cfg, out_dir=str(tmp_path / "b"))
    assert cli.main(["run", str(write_cfg(tmp_path, a, "a.ini"))]) == 0
    assert cli.main(["run", str(write_cfg(tmp_path, b, "b.ini"))]) == 0
    ta = (tmp_path / "a" / "timeseries.csv").read_bytes()
    tb = (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert ta == tb


def test_gate_subcommand(capsys):
    assert cli.main(["gate", "--preset", "thm1-core"]) == 0
    out = capsys.readouterr().out
    assert "global-existence gate: pass" in out
    assert cli.main(["gate", "--preset", "gate-fail-alpha"]) == 1


def test_gate_knife_edge_only_on_exponent_checks(tmp_path, capsys):
    # a steady resupply (no decay) and mu = 0 put those margins at exactly 0;
    # that is no knife-edge, which only concerns the exponent thresholds
    p = write_cfg(tmp_path, small_cfg(tmp_path))
    assert cli.main(["gate", str(p)]) == 0
    out = capsys.readouterr().out
    assert "mu_positive              violated margin=0  <-- fails\n" in out
    assert "resupply_integrable      violated margin=0  <-- fails\n" in out
    assert "(knife-edge)" not in out
    # no resupply at all is integrable
    p = write_cfg(tmp_path, small_cfg(tmp_path, amplitude=0.0))
    assert cli.main(["gate", str(p)]) == 0
    assert "resupply_integrable      ok       margin=inf\n" in capsys.readouterr().out
    # alpha a hair above 1 + sqrt(2) also puts min_condition on the edge
    p = write_cfg(tmp_path, small_cfg(tmp_path, f_law="purepower(1.0, 1.0, 2.41421356247)"))
    assert cli.main(["gate", str(p)]) == 0
    edged = [ln.split()[0] for ln in capsys.readouterr().out.splitlines()
             if ln.endswith("(knife-edge)")]
    assert edged == ["alpha_supercritical", "min_condition"] * 2


def _gate_lines(out):
    """(check, verdict, margin) of each check line that ``gate`` prints."""
    for line in out.splitlines():
        if line.startswith("  "):
            check, verdict, margin = line.split()[:3]
            yield check, verdict, float(margin.removeprefix("margin="))


@pytest.mark.parametrize("name", preset_names())
def test_gate_says_ok_exactly_when_the_margin_is_positive(name, capsys):
    cli.main(["gate", "--preset", name])
    lines = list(_gate_lines(capsys.readouterr().out))
    assert len(lines) == 7  # two existence checks, then those and three more
    for check, verdict, margin in lines:
        assert verdict == ("ok" if margin > 0 else "violated"), (check, margin)


def test_preset_list_prints_the_gates_verdicts(capsys):
    assert cli.main(["preset", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[0] for ln in lines] == preset_names()
    for line in lines:
        name, existence, regularity = line.split()[:3]
        params = preset(name).config.build_params()
        gates = (K.global_existence_gate(params.kinetics),
                 K.eventual_regularity_gate(params.kinetics, params))
        assert (existence, regularity) == tuple(
            f"{kind}={'pass' if gate.passed else 'fail'}"
            for kind, gate in zip(("existence", "regularity"), gates))


@pytest.mark.parametrize("argv", [
    ["mms", "--levels", "16,x"],
    ["mms", "--levels", "16,"],
    ["sweep-epsilon", "--preset", "thm1-core", "--eps", "1e-1,abc"],
])
def test_malformed_list_option_exits_one(argv, capsys):
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {argv[-2]} ")


# every number a config gives must be finite
NONFINITE_INI = {
    "nan-mu": "[model]\nmu = nan\n",
    "inf-amplitude": "[resupply]\namplitude = inf\n",
    "nan-L_f": "[kinetics]\nL_f = nan\n",
    "nan-law-arg": "[kinetics]\nf_law = logistic(nan, 1.0, 4.0)\n",
    "nan-center": "[resupply]\nprofile = gaussian\ncenter = 0.5 nan\n",
    "nan-delta": "[monitors]\ndelta = nan\n",
    "inf-mms": "[mms]\nu = 2 1 1 0 inf\nv = 1 0 0 0.5 1\nw = 0.3 0 0 0.2 1\n",
}
# inputs a run must refuse: a seed numpy rejects, a decay threshold that can
# never be met, and recipes beside the [mms] triple that is the initial data
RUN_REJECTS_INI = {
    "negative-seed": "[initial]\nu = random(0.2, 0.8)\nseed = -1\n",
    "negative-delta": "[monitors]\ndelta = -1\n",
    "mms-and-initial": "[mms]\nu = 2 1 1 0 0\nv = 1 0 0 0.5 1\nw = 0.3 0 0 0.2 1\n"
                       "[initial]\nu = gaussian(0.4, 0.4, 0.18, 0.7, 0.3)\n",
    "zero-width-gaussian": "[initial]\nu = gaussian(0.5, 0.5, 0.0, 1.0, 0.2)\n",
    "negative-width-gaussian": "[initial]\nu = gaussian(0.5, 0.5, -0.1, 1.0, 0.2)\n",
    "envelope-violated": "[kinetics]\nK_f = 5.0\n",
    "reversed-random": "[initial]\nu = random(0.8, 0.2)\nseed = 1\n",
}


@pytest.mark.parametrize("argv", [
    ["run", "{bad_key}"],
    ["gate", "{bad_key}"],
    ["sweep-epsilon", "{bad_key}"],
    ["run", "{negative_recipe}"],
    ["preset", "show", "nope"],
    ["preset", "show"],
] + [[cmd, "{%s}" % name] for name in NONFINITE_INI for cmd in ("run", "gate")]
    + [["run", "{%s}" % name] for name in RUN_REJECTS_INI]
    # a sweep sets every member up, and so refuses what run refuses, before
    # the first member runs or makes its directory
    + [["sweep-epsilon", "{%s}" % name, "--out", "{out}"] for name in RUN_REJECTS_INI],
    ids=["run-unknown-key", "gate-unknown-key", "sweep-unknown-key",
         "run-negative-recipe", "preset-unknown", "preset-no-name"]
    + [f"{cmd}-{name}" for name in NONFINITE_INI for cmd in ("run", "gate")]
    + [f"run-{name}" for name in RUN_REJECTS_INI]
    + [f"sweep-{name}" for name in RUN_REJECTS_INI])
def test_input_error_is_one_error_line(tmp_path, capsys, argv):
    bad_key = tmp_path / "bad_key.ini"
    bad_key.write_text("[model]\nepsilonn = 0.1\n")
    negative_recipe = tmp_path / "negative_recipe.ini"
    negative_recipe.write_text("[initial]\nu = constant(-1.0)\n"
                               f"[output]\ndir = {tmp_path / 'out'}\n")
    nonfinite = {}
    for name, text in {**NONFINITE_INI, **RUN_REJECTS_INI}.items():
        nonfinite[name] = tmp_path / f"{name}.ini"
        nonfinite[name].write_text(text)
    argv = [a.format(bad_key=bad_key, negative_recipe=negative_recipe,
                     out=tmp_path / "out", **nonfinite)
            for a in argv]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_manufactured_config_and_manifest_have_no_initial_section(tmp_path):
    cfg = cli.mms_config(16, t_end=0.01)
    text = format_config(cfg)
    assert "[initial]" not in text and "[mms]" in text
    assert parse_config(text, label=cfg.label) == cfg.resolved()
    cli.mms_study([16], t_end=0.01, out_root=tmp_path)
    manifest = (tmp_path / "mms-16" / "manifest.txt").read_text()
    assert "[initial]" not in manifest
    assert parse_config(manifest).build_mms() == cfg.build_mms() == S.shipped_mms()


def test_preset_list_and_show(capsys):
    assert cli.main(["preset", "list"]) == 0
    out = capsys.readouterr().out
    assert "thm1-core" in out and "thm2-decay" in out
    assert cli.main(["preset", "show", "thm2-decay"]) == 0
    shown = capsys.readouterr().out
    cfg = parse_config(shown, label="thm2-decay")
    assert cfg == preset("thm2-decay").config.resolved()
    assert cli.main(["preset", "show", "nope"]) == 1


def test_mms_subcommand(tmp_path, capsys):
    assert cli.main(["mms", "--levels", "12,24", "--t-end", "0.125",
                     "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "order_l2_u" in out
    assert (tmp_path / "mms.csv").exists()


def test_sweep_subcommand(tmp_path, capsys):
    cfg = small_cfg(tmp_path, t_end=0.4, snapshot_every=0.1)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep-epsilon", str(p), "--eps", "1e-1,1e-2",
                     "--out", str(tmp_path / "sweep")]) == 0
    out = capsys.readouterr().out
    assert "eps_hi,eps_lo" in out
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_identical_runs_give_zero_sweep_difference(tmp_path):
    trajs = []
    for k in range(2):
        cfg = small_cfg(tmp_path, t_end=0.2, snapshot_every=0.1, epsilon=1e-1,
                        out_dir=str(tmp_path / f"member{k}"))
        assert S.run(cfg.build_setup()).completed
        trajs.append(weakform.load_trajectory(cfg.out_dir))
    assert cli._traj_diff(trajs) == [(0.0, 0.0, 0.0)]


@pytest.mark.parametrize("eps, t_end, error, match", [
    ([1e-1, 1e-2, 1e-2], 0.2, StructuralError, "strictly descending"),
    ([1e-1, -1e-1], 0.2, DomainError, "epsilon must lie in"),
    ([1e-1, 1e-2], 0.0, DomainError, "t_end > 0"),
], ids=["repeated-eps", "negative-last-eps", "zero-t-end"])
def test_sweep_rejects_a_repeated_eps_before_any_member_runs(tmp_path, monkeypatch,
                                                              capsys, eps, t_end, error,
                                                              match):
    runs = []
    monkeypatch.setattr(S, "run", lambda setup: runs.append(setup))
    cfg = small_cfg(tmp_path, t_end=t_end, snapshot_every=0.1)
    with pytest.raises(error, match=match):
        cli.sweep_epsilon(cfg, eps, out_root=str(tmp_path / "bad"))
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep-epsilon", str(p), "--eps", ",".join(map(repr, eps)),
                     "--out", str(tmp_path / "bad")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "eps_hi,eps_lo" not in out
    assert runs == []
    assert not (tmp_path / "bad").exists()


def test_sweep_refuses_a_config_that_fails_the_existence_gate(tmp_path, monkeypatch,
                                                              capsys):
    # run refuses it unless forced; a sweep has no --force
    runs = []
    monkeypatch.setattr(S, "run", lambda setup: runs.append(setup))
    assert cli.main(["sweep-epsilon", "--preset", "gate-fail-alpha", "--eps", "1e-1,1e-2",
                     "--t-end", "0.05", "--out", str(tmp_path / "sweep")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: global-existence gate failed (alpha_supercritical margin=-")
    assert err.count("\n") == 1 and out == ""
    assert runs == []
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("eps", ["5e-1", ""])
def test_sweep_refuses_fewer_than_two_eps_before_any_member_runs(tmp_path, monkeypatch,
                                                                 capsys, eps):
    runs = []
    monkeypatch.setattr(S, "run", lambda setup: runs.append(setup))
    cfg = small_cfg(tmp_path, t_end=0.2, snapshot_every=0.1)
    with pytest.raises(StructuralError, match="at least two"):
        cli.sweep_epsilon(cfg, [5e-1] if eps else [], out_root=str(tmp_path / "one"))
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep-epsilon", str(p), "--eps", eps or "5e-1"]) == 1
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "strictly decreasing" not in out
    assert runs == []


def test_sweep_of_two_eps_has_no_trend_to_report(tmp_path, capsys):
    # one difference row: nothing to be strictly decreasing over
    cfg = small_cfg(tmp_path, t_end=0.1, snapshot_every=0.05, out_dir=None)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["sweep-epsilon", str(p), "--eps", "1e-1,1e-2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3  # header, one difference row, the verdict
    assert out[-1] == "strictly decreasing: u_l2=n/a, v_l1=n/a, w_l2=n/a"


@pytest.mark.parametrize("extra, dt, steps", [([], 0.05, 4), (["--dt", "0.1"], 0.1, 2)],
                         ids=["config-fixed-dt", "dt-overrides-it"])
def test_sweep_takes_its_step_from_the_config(tmp_path, capsys, extra, dt, steps):
    # half the suggested step only when the config sets no fixed_dt; at
    # safety 0.2 the suggested step is below a tenth of 0.05
    p = write_cfg(tmp_path, small_cfg(tmp_path, nx=8, ny=8, t_end=0.2, fixed_dt=0.05,
                                      safety=0.2))
    assert cli.main(["sweep-epsilon", str(p), "--eps", "1e-1,1e-2",
                     "--out", str(tmp_path / "sweep"), *extra]) == 0
    err = capsys.readouterr().err.splitlines()  # a coarse step, on purpose
    assert err and all(line.startswith(f"warning: fixed_dt {dt!r} exceeds") for line in err)
    for k, eps in enumerate([1e-1, 1e-2]):
        manifest = (tmp_path / "sweep" / f"member{k}-eps{eps:g}" / "manifest.txt").read_text()
        assert f"# steps: {steps}\n" in manifest
        assert parse_config(manifest).fixed_dt == dt


def test_sweep_reads_each_member_once(tmp_path, monkeypatch):
    loads, load = [], weakform.load_trajectory
    monkeypatch.setattr(weakform, "load_trajectory",
                        lambda run_dir: loads.append(Path(run_dir).name) or load(run_dir))
    eps = [1e-1, 1e-2, 1e-3, 1e-4]
    sweep = cli.sweep_epsilon(small_cfg(tmp_path, t_end=0.2), eps,
                              out_root=str(tmp_path / "sweep"))
    assert loads == [f"member{k}-eps{e:g}" for k, e in enumerate(eps)]
    assert [row[:2] for row in sweep.diffs] == list(zip(eps, eps[1:]))


def test_sweep_reads_each_file_once_and_holds_a_triple_per_member(tmp_path, monkeypatch):
    arrays, held, reads, read = [], [], [], G.read_field

    def tracking(path):
        # the fields read earlier that are still alive when a read starts
        held.append(sum(ref() is not None for ref in arrays))
        phi, g, t = read(path)
        reads.append(Path(path))
        arrays.append(weakref.ref(phi))
        return phi, g, t

    monkeypatch.setattr(G, "read_field", tracking)
    eps = [1e-1, 1e-2, 1e-3]
    sweep = cli.sweep_epsilon(small_cfg(tmp_path, t_end=0.5), eps,
                              out_root=str(tmp_path / "sweep"))
    monkeypatch.undo()
    members = [tmp_path / "sweep" / f"member{k}-eps{e:g}" for k, e in enumerate(eps)]
    files = sorted(p for m in members for p in m.glob("*.fld"))
    assert len(files) == 3 * 6 * len(eps)  # snapshots every 0.1 to t = 0.5
    assert sorted(reads) == files
    assert max(held) <= 3 * len(eps)
    # the table built from whole trajectories, each member loaded at once
    trajs = [weakform.load_trajectory(m) for m in members]
    fields = [[[G.read_field(p)[0] for p in triple] for triple in traj.paths]
              for traj in trajs]
    g, wts = trajs[0].grid, weakform.time_weights(trajs[0].times)
    rows = []
    for (eps_a, fa), (eps_b, fb) in pairwise(zip(eps, fields)):
        du2 = dv1 = dw2 = 0.0
        for wt, (ua, va, wa), (ub, vb, wb) in zip(wts, fa, fb):
            du2 += wt * G.integrate((ua - ub) ** 2, g)
            dv1 += wt * G.integrate(np.abs(va - vb), g)
            dw2 += wt * G.integrate((wa - wb) ** 2, g)
        rows.append((eps_a, eps_b, math.sqrt(du2), dv1, math.sqrt(dw2)))
    assert list(sweep.table_rows()) == list(cli.SweepResult(diffs=rows).table_rows())


def test_a_run_whose_clock_stops_is_one_aborted_line(tmp_path):
    # at Lx = 1e-150 the adaptive step falls below the spacing of t after
    # three steps, and a run that went on would never end
    p = tmp_path / "stall.ini"
    p.write_text("[grid]\nLx = 1e-150\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "taxis_cascade.cli", "run", str(p), "--out", str(tmp_path / "stall")],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_ABORT
    err = proc.stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("aborted: the clock stopped: t = 1.4999999999999998e-122 + dt = ")
    manifest = (tmp_path / "stall" / "manifest.txt").read_text()
    assert "# status: failed\n# steps: 3\n" in manifest
    assert f"# failure: {err[0].removeprefix('aborted: ')}\n" in manifest


def test_main_shows_a_warning_as_one_line_and_raises_what_is_made_an_error(
        tmp_path, capsys, monkeypatch):
    p = tmp_path / "coarse.ini"
    p.write_text("[grid]\nnx = 8\nny = 8\n[time]\nt_end = 0.1\nfixed_dt = 0.05\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # the fixed-step advice is shown, not raised, and the run succeeds
        assert cli.main(["run", str(p), "--out", str(tmp_path / "coarse")]) == cli.EXIT_OK
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("warning: fixed_dt 0.05 exceeds 10x the suggested step ")
        # any other RuntimeWarning the filters make an error still raises
        monkeypatch.setattr(cli, "cmd_gate", lambda args: int(np.log(np.zeros(1))[0]))
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            cli.main(["gate", "--preset", "thm1-core"])


def test_sweep_w_difference_bounded_by_ceiling(tmp_path):
    # L-infinity ceiling: ||w_a - w_b||_{L2(Omega x (0,T))} <= w* sqrt(|Omega| T)
    import math

    from taxis_cascade import monitors as M

    cfg = small_cfg(tmp_path, name="thm2-decay", t_end=0.4, snapshot_every=0.1)
    sweep = cli.sweep_epsilon(cfg, [1e-1, 1e-3], out_root=str(tmp_path / "cap"))
    setup = cfg.build_setup()
    consts = M.BoundConstants.from_setup(
        setup.grid, setup.params.kinetics, setup.params.resupply,
        setup.params.mu, setup.initial.u0, setup.initial.v0, setup.initial.w0)
    dw = sweep.diffs[0][4]
    assert dw <= consts.w_star * math.sqrt(setup.grid.volume * cfg.t_end)


def test_mms_constant_solution_reports_exact():
    import taxis_cascade.solver as S

    constant = S.MmsSpec(u=S.MmsComponent(base=1.0), v=S.MmsComponent(base=1.0),
                         w=S.MmsComponent(base=0.0))
    study = cli.mms_study([8, 16], t_end=0.1, dt_coeff=1.0, mms=constant)
    for name in "uvw":
        assert study.orders_l2[name] is None  # rounding-level errors: "exact"
    assert any("exact" in row for row in study.table_rows())


def test_mms_levels_must_ascend():
    from taxis_cascade.errors import StructuralError

    for levels in ([32, 16], [8, 8]):
        with pytest.raises(StructuralError):
            cli.mms_study(levels)


def test_mms_refuses_a_study_that_spans_no_time(monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(S, "run", lambda setup: runs.append(setup))
    with pytest.raises(DomainError, match="t_end > 0"):
        cli.mms_study([16], t_end=0.0)
    assert cli.main(["mms", "--levels", "16,32", "--t-end", "0"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert runs == []


def test_mms_temporal_share_first_order():
    # at a fixed grid, halving dt removes the (first-order) temporal error
    # share while the spatial floor stays: successive differences halve
    errs = {}
    for coeff in (1.0, 0.5, 0.25):
        study = cli.mms_study([24], t_end=0.125, dt_coeff=coeff)
        errs[coeff] = study.levels[0].errors["l2_w"]
    share_1 = errs[1.0] - errs[0.5]
    share_2 = errs[0.5] - errs[0.25]
    assert 1.8 < share_1 / share_2 < 2.2


def test_verify_weak_subcommand(tmp_path, capsys):
    cfg = small_cfg(tmp_path, t_end=0.5, snapshot_every=0.025)
    p = write_cfg(tmp_path, cfg)
    assert cli.main(["run", str(p)]) == 0
    csv = tmp_path / "weakform.csv"
    code = cli.main(["verify-weak", "--traj", str(tmp_path / "out"),
                     "--out", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "test_fn,identity,value,budget,pass"
    assert any("mass_inequality" in ln for ln in lines)
    assert len(lines) == 1 + 5 * 3 + 1


@pytest.mark.parametrize("corrupt", ["bad-header", "huge-header", "tiny-header", "mixed-time",
                                     "snapshot-is-a-directory", "manifest-is-a-directory",
                                     "nan-entry"])
def test_verify_weak_corrupt_snapshot_exits_one(tmp_path, capsys, corrupt):
    p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.25, snapshot_every=0.125))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    if corrupt == "bad-header":
        snap = sorted((tmp_path / "out").glob("w_*.fld"))[-1]
        data = snap.read_bytes()
        snap.write_bytes(b"FLD1 12 12 1.0 1.0 \xff" + data[data.index(b"\n"):])
    elif corrupt == "huge-header":
        # no payload, and the time of another snapshot: the listing reads
        # the header alone, and refuses the file by its grid
        snap = sorted((tmp_path / "out").glob("u_*.fld"))[-1]
        snap.write_bytes(b"FLD1 4294967296 4294967296 1.0 1.0 0.125\n")
    elif corrupt == "tiny-header":
        # a grid that Grid refuses is refused naming the file
        snap = sorted((tmp_path / "out").glob("u_*.fld"))[-1]
        snap.write_bytes(b"FLD1 3 3 1.0 1.0 0.125\n")
    elif corrupt == "snapshot-is-a-directory":
        # a complete triple by name, of directories
        for name in "uvw":
            (tmp_path / "out" / f"{name}_99999999.fld").mkdir()
        snap = tmp_path / "out" / "u_99999999.fld"
    elif corrupt == "manifest-is-a-directory":
        snap = tmp_path / "out" / "manifest.txt"
        snap.unlink()
        snap.mkdir()
    elif corrupt == "nan-entry":
        # one v entry of the middle snapshot; min() over the mass rows
        # would skip its NaN slack
        snap = sorted((tmp_path / "out").glob("v_*.fld"))[1]
        data = bytearray(snap.read_bytes())
        data[-8:] = np.float64(np.nan).tobytes()
        snap.write_bytes(bytes(data))
    else:
        # every file is sound, but the middle triple takes its v from t_end
        snaps = sorted((tmp_path / "out").glob("v_*.fld"))
        snap = snaps[1]
        snap.write_bytes(snaps[-1].read_bytes())
    code = cli.main(["verify-weak", "--traj", str(tmp_path / "out"),
                     "--out", str(tmp_path / "weakform.csv")])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert snap.name in err


@pytest.mark.parametrize("command", ["run", "gate", "sweep-epsilon", "verify-weak"])
def test_a_config_or_an_older_manifest_with_lin_tol_is_refused(tmp_path, capsys, command):
    # no solve iterates, so [time] has no lin_tol; a run written while the
    # key existed carries it in its manifest, and verify-weak refuses that too
    if command == "verify-weak":
        p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.25, snapshot_every=0.125))
        assert cli.main(["run", str(p)]) == 0
        manifest = tmp_path / "out" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("[time]\n", "[time]\nlin_tol = 1e-10\n", 1))
        argv = ["verify-weak", "--traj", str(tmp_path / "out"),
                "--out", str(tmp_path / "weakform.csv")]
    else:
        bad = tmp_path / "lin_tol.ini"
        bad.write_text("[time]\nlin_tol = 1e-10\n")
        argv = [command, str(bad)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad config: unknown key in [time] 'lin_tol'\n"


def test_verify_weak_refuses_a_trajectory_that_spans_no_time(tmp_path, capsys):
    # a t_end = 0 run is one snapshot; its test functions would have no
    # support, and dividing by b - a = 0 wrote NaN rows and failed identities
    p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.0))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    csv = tmp_path / "weakform.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["verify-weak", "--traj", str(tmp_path / "out"), "--out", str(csv)])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "spans no time" in err
    assert not csv.exists()


@pytest.mark.parametrize("snapshot_every", [0.25, 0.0025], ids=["two-snapshots", "dense"])
def test_verify_weak_refuses_a_basis_function_without_a_snapshot_inside(
        tmp_path, capsys, snapshot_every):
    # to t = 0.05 at the preset's snapshot_every 0.25 the trajectory is the
    # states at 0 and 0.05; const_x_plateau, supported on (0, 0.0375), sees
    # only its value 1 at t = 0, and six rows read false on any solution
    cfg = replace(preset("thm1-core").config, t_end=0.05,
                  snapshot_every=snapshot_every, out_dir=str(tmp_path / "out"))
    assert cli.main(["run", str(write_cfg(tmp_path, cfg))]) == 0
    capsys.readouterr()
    csv = tmp_path / "weakform.csv"
    code = cli.main(["verify-weak", "--traj", str(tmp_path / "out"), "--out", str(csv)])
    out, err = capsys.readouterr()
    if snapshot_every == 0.0025:
        assert code == 0 and err == ""
        assert all(line.endswith(",true") for line in csv.read_text().splitlines()[1:])
        return
    assert code == 1 and out == "" and not csv.exists()
    assert err == ("error: test function const_x_plateau supported on (0, 0.0375) holds "
                   "no snapshot strictly inside it (2 snapshots over [0, 0.05]); "
                   "write snapshots more often\n")


@pytest.mark.parametrize("out", ["folder", "folder/missing/weakform.csv"],
                         ids=["out-is-a-directory", "out-has-no-directory"])
def test_verify_weak_checks_its_output_before_the_quadrature(tmp_path, capsys,
                                                           monkeypatch, out):
    p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.25, snapshot_every=0.125))
    assert cli.main(["run", str(p)]) == 0
    capsys.readouterr()
    (tmp_path / "folder").mkdir()
    loads, load = [], weakform.load_trajectory
    monkeypatch.setattr(weakform, "load_trajectory", lambda *a: loads.append(a) or load(*a))
    code = cli.main(["verify-weak", "--traj", str(tmp_path / "out"),
                     "--out", str(tmp_path / out)])
    assert code == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert loads == []
    assert list((tmp_path / "folder").iterdir()) == []


@pytest.mark.parametrize("argv, culprit", [
    (["run", "{missing}"], "nope.ini"),
    (["gate", "{missing}"], "nope.ini"),
    (["run", "{folder}"], "{folder}"),
    (["run", "--preset", "thm2-decay", "--t-end", "0.1", "--out", "{afile}"], "afile"),
    (["run", "{good}", "--out", "{afile}"], "afile"),
    (["mms", "--levels", "8", "--t-end", "0.01", "--out", "{afile}"], "afile"),
    # a run clears the snapshot names of its directory before the first step
    (["run", "--preset", "thm2-decay", "--t-end", "0.1", "--out", "{snapdir}"],
     "u_00000000.fld"),
], ids=["run-missing-ini", "gate-missing-ini", "run-ini-is-a-folder",
        "run-out-is-a-file", "run-ini-out-is-a-file", "mms-out-is-a-file",
        "run-out-holds-a-snapshot-directory"])
def test_missing_input_or_file_output_is_one_error_line(tmp_path, capsys, monkeypatch, argv,
                                                        culprit):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    snapdir = tmp_path / "snapdir"
    (snapdir / "u_00000000.fld").mkdir(parents=True)
    good = write_cfg(tmp_path, small_cfg(tmp_path, out_dir=None))
    names = dict(missing=tmp_path / "nope.ini", folder=tmp_path, afile=afile, good=good,
                 snapdir=snapdir)
    argv = [a.format(**names) for a in argv]
    steps = []
    monkeypatch.setattr(S, "step", lambda *a, **k: steps.append(a))
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert culprit.format(**names) in err
    assert steps == []
    assert afile.read_text() == "kept\n"
    assert (snapdir / "u_00000000.fld").is_dir()


def test_watchdog_exit_code(tmp_path, capsys):
    # passes every gate, but the enormous growth offset drives u past the
    # 1e8 watchdog ceiling on the first step
    cfg = small_cfg(tmp_path, t_end=1.0,
                    f_law="purepower(1.0, 1e30, 3.0)",
                    init_u="constant(9e7)")
    p = write_cfg(tmp_path, cfg)
    code = cli.main(["run", str(p)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out.startswith("run case: steps=")
    assert err.startswith("aborted: BlowUpError: ") and err.count("\n") == 1
    manifest = (tmp_path / "out" / "manifest.txt").read_text()
    assert "failed" in manifest
    assert (tmp_path / "out" / "timeseries.csv").exists()  # partial outputs


def test_aborted_mms_study_exits_two_with_one_aborted_line(capsys):
    # dt = 100 h^2 drives u negative on the first step
    code = cli.main(["mms", "--levels", "16", "--dt-coeff", "100", "--t-end", "3"])
    assert code == 2
    # the advice on the coarse step, then the abort
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("warning: fixed_dt ")
    assert err[1].startswith("aborted: mms level 16: PositivityError: ")


def test_aborted_sweep_member_exits_two_with_one_aborted_line(tmp_path, monkeypatch,
                                                              capsys):
    real_run = S.run

    def second_member_fails(setup):
        result = real_run(setup)
        if setup.params.epsilon == 1e-2:
            result = replace(result, failure="BlowUpError: u left the trusted range")
        return result

    monkeypatch.setattr(S, "run", second_member_fails)
    p = write_cfg(tmp_path, small_cfg(tmp_path, t_end=0.2, snapshot_every=0.1))
    code = cli.main(["sweep-epsilon", str(p), "--eps", "1e-1,1e-2",
                     "--out", str(tmp_path / "sweep")])
    assert code == 2
    out, err = capsys.readouterr()
    assert "eps_hi,eps_lo" not in out
    assert err == "aborted: sweep member eps=0.01: BlowUpError: u left the trusted range\n"
