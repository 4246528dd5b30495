"""A seeded campaign of adaptive runs over the admissible parameter space.

Each draw sits inside the global-existence gate with a law that meets its
default envelope, so every run must finish clean: no abort, no clamp, no
monitor failure and no per-step violation.  The draws come from a seeded
numpy generator with a fixed count, so an unrelated edit never redraws them.
"""

import numpy as np

from taxis_cascade import solver
from taxis_cascade.config import Config

SEED = 2024
DRAWS = 40


def _gaussian(rng) -> str:
    """An initial recipe: centre, width, amplitude and floor drawn at random."""
    args = (*rng.uniform(0.2, 0.8, 2), rng.uniform(0.03, 0.2), rng.uniform(0.5, 5.0),
            rng.uniform(0.0, 0.5))
    return f"gaussian({', '.join(repr(float(a)) for a in args)})"


def _coefficient(rng) -> float:
    return float(rng.uniform(0.2, 3.0))


def draw_config(rng) -> Config:
    alpha = float(rng.uniform(2.5, 7.0))
    beta = float(rng.uniform((alpha + 1.0) / (alpha - 1.0) + 0.05, 7.0))
    g_name = "purepower" if rng.random() < 0.5 else "logistic"
    return Config(
        nx=24, ny=24, t_end=2.0, dt_max=0.05,
        safety=float(rng.choice([0.3, 0.6, 1.0])),
        mu=0.0 if rng.random() < 0.5 else float(rng.uniform(0.05, 1.0)),
        epsilon=0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.5)),
        f_law=f"purepower({_coefficient(rng)!r}, {_coefficient(rng)!r}, {alpha!r})",
        g_law=f"{g_name}({_coefficient(rng)!r}, {_coefficient(rng)!r}, {beta!r})",
        profile="constant" if rng.random() < 0.5 else "gaussian",
        amplitude=float(rng.uniform(0.0, 1.0)),
        decay_lambda=0.0 if rng.random() < 0.5 else float(rng.uniform(0.1, 2.0)),
        init_u=_gaussian(rng), init_v=_gaussian(rng), init_w=_gaussian(rng),
        cadence=0.25, label="campaign")


def test_campaign_over_admissible_parameters_runs_clean():
    rng = np.random.default_rng(SEED)
    for k in range(DRAWS):
        cfg = draw_config(rng)
        result = solver.run(cfg.build_setup())
        where = f"draw {k}: {cfg}"
        assert result.completed, f"{where}: {result.failure}"
        assert result.total_clamps == 0, where
        assert result.report.failures() == [], where
        assert all(s.violations == 0 for s in result.step_checks.values()), where
