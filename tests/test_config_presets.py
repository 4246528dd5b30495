from dataclasses import replace

import numpy as np
import pytest

from taxis_cascade import kinetics as K
from taxis_cascade import solver as S
from taxis_cascade.config import Config, format_config, load_config, parse_config
from taxis_cascade.errors import DomainError, StructuralError
from taxis_cascade.presets import preset, preset_names


def test_parse_format_round_trip_all_presets():
    for name in preset_names():
        cfg = preset(name).config
        text = format_config(cfg)
        back = parse_config(text, label=cfg.label)
        assert back == cfg.resolved()
        # a second round is a fixed point
        assert format_config(back) == text


def test_parse_errors_carry_context():
    with pytest.raises(StructuralError) as err:
        parse_config("[grid]\nnx = not-a-number\n")
    assert "nx" in str(err.value)
    with pytest.raises(StructuralError) as err:
        parse_config("[grid\nnx = 4\n")  # malformed section header
    assert "line" in str(err.value).lower() or "parse" in str(err.value).lower()
    for law, message in (("purepower(1.0, 2.0)", "purepower needs (K, L, alpha)"),
                         ("logistic", "logistic needs (a, b, alpha)"),
                         ("allee(1.0)", "allee takes no arguments"),
                         ("cubicish", "unknown growth law 'cubicish'")):
        with pytest.raises(StructuralError) as err:
            parse_config(f"[kinetics]\nf_law = {law}\n").build_kinetics()
        assert str(err.value) == f"kinetics.f_law: {message}"
    for recipe, message in (("constant()", "constant needs (value)"),
                            ("gaussian(1, 2)",
                             "gaussian needs (cx, cy, width, amplitude, floor)"),
                            ("sparkle(1)", "unknown recipe 'sparkle'")):
        with pytest.raises(StructuralError) as err:
            parse_config(f"[initial]\nu = {recipe}\n").build_setup()
        assert str(err.value) == f"initial.u: {message}"


@pytest.mark.parametrize("text, hint", [
    ("[grid]\nnX = 999\n", "unknown key in [grid] 'nX' (did you mean 'nx'?)"),
    ("[tiem]\nt_end = 2.0\n", "unknown section '[tiem]' (did you mean '[time]'?)"),
    ("[model]\nepsilonn = 0.1\n",
     "unknown key in [model] 'epsilonn' (did you mean 'epsilon'?)"),
])
def test_unknown_sections_and_keys_rejected_with_hint(text, hint):
    with pytest.raises(StructuralError) as err:
        parse_config(text)
    assert hint in str(err.value)


def test_written_manifest_parses_back(tmp_path):
    cfg = replace(preset("thm1-core").config, nx=8, ny=8, t_end=0.01,
                  out_dir=str(tmp_path))
    S.run(cfg.build_setup())
    back = parse_config((tmp_path / "manifest.txt").read_text(), label=cfg.label)
    assert back == cfg.resolved()


def test_case_sensitive_envelope_keys():
    cfg = parse_config("[kinetics]\nk_f = 2.0\nK_f = 0.5\n")
    assert cfg.k_f == 2.0 and cfg.K_f == 0.5


def test_unknown_recipe_and_law():
    cfg = parse_config("[initial]\nu = vortex(1.0)\n")
    with pytest.raises(StructuralError):
        cfg.build_initial(cfg.build_grid())
    cfg2 = parse_config("[kinetics]\nf_law = cubicish\n")
    with pytest.raises(StructuralError):
        cfg2.build_kinetics()


def test_random_recipe_needs_seed_and_is_reproducible():
    import numpy as np
    base = ("[grid]\nnx = 8\nny = 8\n"
            "[initial]\nu = random(0.1, 0.5)\nv = constant(1.0)\nw = constant(0.0)\n")
    cfg = parse_config(base)
    with pytest.raises(StructuralError):
        cfg.build_initial(cfg.build_grid())
    cfg2 = parse_config(base + "seed = 42\n")
    a = cfg2.build_initial(cfg2.build_grid())
    b = cfg2.build_initial(cfg2.build_grid())
    assert np.array_equal(a.u0, b.u0)
    assert 0.1 <= a.u0.min() and a.u0.max() <= 0.5


def test_random_recipe_refuses_a_reversed_range():
    cfg = parse_config("[grid]\nnx = 8\nny = 8\n"
                       "[initial]\nu = random(0.8, 0.2)\nseed = 42\n")
    with pytest.raises(DomainError, match=r"initial.u: random needs lo <= hi, got \(0.8, 0.2\)"):
        cfg.build_initial(cfg.build_grid())
    equal = parse_config("[initial]\nu = random(0.5, 0.5)\nseed = 42\n")
    assert np.all(equal.build_initial(equal.build_grid()).u0 == 0.5)


def test_file_loading(tmp_path):
    p = tmp_path / "case.ini"
    p.write_text(format_config(preset("thm1-core").config))
    cfg = load_config(p)
    assert cfg.label == "case"
    assert cfg.nx == 40


# the verdicts each preset is built to give: (global existence, eventual regularity)
EXPECTED_VERDICTS = {
    "thm1-core": (True, False),
    "thm1-subquadratic-g": (True, False),
    "allee": (True, False),
    "thm2-decay": (True, True),
    "gate-fail-alpha": (False, False),
}


def test_preset_gate_expectations_match():
    assert list(EXPECTED_VERDICTS) == preset_names()
    for name, (existence, regularity) in EXPECTED_VERDICTS.items():
        params = preset(name).config.build_params()
        ks = params.kinetics
        assert K.global_existence_gate(ks).passed is existence, name
        assert K.eventual_regularity_gate(ks, params).passed is regularity, name
        assert K.validate_envelope(ks).holds, name


def test_unknown_preset():
    with pytest.raises(StructuralError):
        preset("thm9-wild")


def test_subquadratic_margin():
    ks = preset("thm1-subquadratic-g").config.build_kinetics()
    gate = K.global_existence_gate(ks)
    assert gate.passed
    assert gate.margins["min_condition"] == pytest.approx(1.8 - 1.4, abs=1e-12)


def test_thm2_preset_resupply_integrable():
    params = preset("thm2-decay").config.build_params()
    gate = K.eventual_regularity_gate(params.kinetics, params)
    assert gate.margins["resupply_integrable"] > 0


def test_gate_fail_alpha_margins():
    ks = preset("gate-fail-alpha").config.build_kinetics()
    gate = K.global_existence_gate(ks)
    assert not gate.passed
    assert not gate.checks["alpha_supercritical"]  # 2.2 < 1 + sqrt(2)
