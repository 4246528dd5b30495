"""Canonical experiment configurations, one per studied parameter regime."""

from __future__ import annotations

from dataclasses import dataclass, replace

from taxis_cascade.config import Config
from taxis_cascade.errors import StructuralError


@dataclass(frozen=True)
class Preset:
    name: str
    config: Config
    description: str


_BASE = Config(
    nx=40, ny=40, Lx=1.0, Ly=1.0,
    t_end=20.0, dt_max=0.02, safety=0.2,
    cadence=0.25, delta=1e-2, q=2.0,
    snapshot_every=0.25,
)

# steady resupply without nutrient decay, the setting of the existence presets
_STEADY = dict(
    mu=0.0, epsilon=1e-3,
    profile="constant", amplitude=0.1, decay_lambda=0.0,
    init_w="gaussian(0.5, 0.5, 0.22, 0.5, 0.3)",
)
_THM1_INIT = dict(
    init_u="gaussian(0.35, 0.35, 0.16, 0.8, 0.2)",
    init_v="gaussian(0.62, 0.58, 0.18, 0.25, 0.85)",
)


def _preset(name, description, **kw) -> Preset:
    cfg = replace(_BASE, label=name, out_dir=f"runs/{name}", **kw)
    return Preset(name, cfg, description)


_PRESETS = {
    p.name: p for p in (
        # at safety 0.3 the adaptive SBDF2 run takes 76 steps at 256^2 to
        # t = 0.1, where Euler steps at 0.2 took 114, with a quarter of their
        # time error; 0.4 takes 57 steps with twice the time error of w
        # (2.1e-4 against 1.1e-4, relative to a run at safety 0.0375), and
        # at 1.0 the time error passes Euler's (CHANGES.md, the safety
        # curves on thm1-256)
        _preset("thm1-core",
                "cubic degradation in both species, steady resupply",
                f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)",
                safety=0.3,
                **_STEADY, **_THM1_INIT),
        _preset("thm1-subquadratic-g",
                "large forager exponent buys a subquadratic exploiter law",
                f_law="purepower(1.0, 1.0, 6.0)", g_law="purepower(1.0, 1.0, 1.8)",
                **_STEADY, **_THM1_INIT),
        _preset("allee",
                "bistable forager law above its survival threshold",
                f_law="allee", g_law="purepower(1.0, 1.0, 3.0)",
                init_u="gaussian(0.4, 0.4, 0.18, 0.6, 1.2)",
                init_v="gaussian(0.6, 0.6, 0.2, 0.25, 0.85)",
                **_STEADY),
        # at safety 0.4 the adaptive SBDF2 run takes 642 steps at 40^2 to
        # t = 5, where 0.2 took 1263; its time error of w against a
        # Richardson reference is 4.7e-6, 1.1e-5, 1.9e-5 and 3.1e-5 at 0.2,
        # 0.3, 0.4 and 0.5, second order, and 0.5 comes too close to the
        # bench's error bound (CHANGES.md, the safety curve on decay-40)
        _preset("thm2-decay",
                "decaying resupply and positive nutrient decay; the nutrient "
                "dies out and the tail should look smooth",
                t_end=40.0, safety=0.4,
                mu=0.5, epsilon=0.0,
                f_law="purepower(1.0, 1.0, 3.0)", g_law="purepower(1.0, 1.0, 3.0)",
                profile="gaussian", amplitude=0.3, center=(0.5, 0.5), width=0.15,
                decay_lambda=1.0,
                init_u="gaussian(0.4, 0.45, 0.18, 0.7, 0.3)",
                init_v="gaussian(0.6, 0.55, 0.2, 0.25, 0.85)",
                init_w="gaussian(0.5, 0.5, 0.2, 0.3, 0.1)"),
        _preset("gate-fail-alpha",
                "forager exponent below the supercritical threshold; must be "
                "rejected by the gate",
                f_law="purepower(1.0, 1.0, 2.2)", g_law="purepower(1.0, 1.0, 3.0)",
                **_STEADY, **_THM1_INIT),
    )
}


def preset_names() -> list[str]:
    return list(_PRESETS)


def preset(name: str) -> Preset:
    try:
        return _PRESETS[name]
    except KeyError:
        raise StructuralError(
            f"unknown preset {name!r}; known: {', '.join(_PRESETS)}") from None
