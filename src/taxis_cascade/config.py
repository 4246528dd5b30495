"""INI-style run configuration: parsing, canonical formatting, assembly.

Sections: [grid], [time], [model], [kinetics], [resupply], [initial],
[monitors], [output], or instead of [initial] an [mms] manufactured triple,
which is then the initial data.  Values with arguments use call syntax, e.g.
``gaussian(0.4, 0.4, 0.18, 0.7, 0.3)``.  Key case is preserved (k_f and K_f
are distinct constants).
"""

from __future__ import annotations

import configparser
import difflib
import math
import re
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from taxis_cascade import grid as gridmod
from taxis_cascade import kinetics as kin
from taxis_cascade import solver
from taxis_cascade.errors import DomainError, StructuralError

_CALL_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*(?:\((.*)\))?\s*$")


def _number(raw: str) -> float:
    """The finite float that raw spells; NaN and +-inf raise ValueError."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(raw)
    return value


def _parse_call(text: str, where: str, known: dict, kind: str) -> tuple[str, list[float]]:
    """(name, arguments) of ``name(a, ...)``; ``known`` maps each name to its argument names."""
    m = _CALL_RE.match(text)
    if not m:
        raise StructuralError(f"{where}: cannot parse {text!r}")
    name = m.group(1).lower()
    args = []
    if m.group(2) is not None and m.group(2).strip():
        for tok in m.group(2).split(","):
            try:
                args.append(_number(tok))
            except ValueError as exc:
                raise StructuralError(f"{where}: bad number {tok!r} in {text!r}") from exc
    arg_names = known.get(name)
    if arg_names is None:
        raise StructuralError(f"{where}: unknown {kind} {name!r}")
    if len(args) != len(arg_names):
        need = f"needs ({', '.join(arg_names)})" if arg_names else "takes no arguments"
        raise StructuralError(f"{where}: {name} {need}")
    return name, args


LAW_ARGS = {name: tuple(f.name for f in fields(cls)) for name, cls in kin.LAWS.items()}
RECIPES = {"constant": ("value",), "gaussian": ("cx", "cy", "width", "amplitude", "floor"),
           "random": ("lo", "hi")}


# the kinetic constants a config may set; unset ones default from the laws
KINETIC_KEYS = ("alpha", "beta", "k_f", "K_f", "l_f", "L_f", "k_g", "K_g", "l_g", "L_g")


@dataclass
class Config:
    # [grid]
    nx: int = 40
    ny: int = 40
    Lx: float = 1.0
    Ly: float = 1.0
    # [time]
    t_end: float = 1.0
    dt_max: float = 0.02
    safety: float = 0.2
    fixed_dt: float | None = None
    # [model]
    mu: float = 0.0
    epsilon: float = 0.0
    # [kinetics]
    f_law: str = "purepower(1.0, 1.0, 3.0)"
    g_law: str = "purepower(1.0, 1.0, 3.0)"
    alpha: float | None = None
    beta: float | None = None
    k_f: float | None = None
    K_f: float | None = None
    l_f: float | None = None
    L_f: float | None = None
    k_g: float | None = None
    K_g: float | None = None
    l_g: float | None = None
    L_g: float | None = None
    # [resupply]
    profile: str = "constant"
    amplitude: float = 0.0
    center: tuple[float, float] = (0.5, 0.5)
    width: float = 0.1
    decay_lambda: float = 0.0
    # [initial]
    init_u: str = "constant(1.0)"
    init_v: str = "constant(1.0)"
    init_w: str = "constant(0.0)"
    seed: int | None = None
    # [monitors]
    cadence: float = 0.25
    delta: float = 1e-2
    q: float = 2.0
    # [output]
    out_dir: str | None = None
    snapshot_every: float = 0.0
    # [mms]
    mms_u: solver.MmsComponent | None = None
    mms_v: solver.MmsComponent | None = None
    mms_w: solver.MmsComponent | None = None
    label: str = "run"

    # -- assembly ----------------------------------------------------------

    def build_law(self, text: str, where: str) -> kin.GrowthLaw:
        name, args = _parse_call(text, where, LAW_ARGS, "growth law")
        return kin.LAWS[name](*args)

    def build_kinetics(self) -> kin.KineticSpec:
        law_f = self.build_law(self.f_law, "kinetics.f_law")
        law_g = self.build_law(self.g_law, "kinetics.g_law")
        overrides = {key: getattr(self, key) for key in KINETIC_KEYS
                     if getattr(self, key) is not None}
        return kin.KineticSpec.from_laws(law_f, law_g, **overrides)

    def build_resupply(self) -> kin.ResupplySpec:
        return kin.ResupplySpec(profile=self.profile, amplitude=self.amplitude,
                                center=self.center, width=self.width,
                                decay_lambda=self.decay_lambda)

    def build_grid(self) -> gridmod.Grid:
        return gridmod.Grid(self.nx, self.ny, self.Lx, self.Ly)

    def _build_field(self, recipe: str, g: gridmod.Grid, rng, where: str) -> np.ndarray:
        name, args = _parse_call(recipe, where, RECIPES, "recipe")
        if name == "constant":
            return np.full(g.shape, args[0])
        if name == "gaussian":
            cx, cy, width, amp, floor = args
            if not width > 0:
                raise DomainError(f"{where}: gaussian needs positive width, got {width!r}")
            return floor + amp * gridmod.gaussian(g, cx, cy, width)
        lo, hi = args
        if not hi >= lo:
            raise DomainError(f"{where}: random needs lo <= hi, got ({lo!r}, {hi!r})")
        if rng is None:
            raise StructuralError(f"{where}: random recipe requires [initial] seed")
        return lo + (hi - lo) * rng.random(g.shape)

    def build_initial(self, g: gridmod.Grid) -> kin.InitialData:
        mms = self.build_mms()
        if mms is not None:
            u0, v0, w0 = mms.fields(g, 0.0)
            return kin.InitialData(u0=u0, v0=v0, w0=w0)
        rng = np.random.default_rng(self.seed) if self.seed is not None else None
        return kin.InitialData(
            u0=self._build_field(self.init_u, g, rng, "initial.u"),
            v0=self._build_field(self.init_v, g, rng, "initial.v"),
            w0=self._build_field(self.init_w, g, rng, "initial.w"),
        )

    def build_mms(self) -> solver.MmsSpec | None:
        comps = (self.mms_u, self.mms_v, self.mms_w)
        if all(c is None for c in comps):
            return None
        if any(c is None for c in comps):
            raise StructuralError("[mms] needs all of u, v, w")
        return solver.MmsSpec(*comps)

    def build_params(self) -> solver.ModelParams:
        return solver.ModelParams(mu=self.mu, epsilon=self.epsilon,
                                  resupply=self.build_resupply(),
                                  kinetics=self.build_kinetics(), mms=self.build_mms())

    def build_setup(self, out_dir=None) -> solver.RunSetup:
        g = self.build_grid()
        params = self.build_params()
        control = solver.StepControl(dt_max=self.dt_max, safety=self.safety)
        if out_dir is None and self.out_dir is not None:
            out_dir = Path(self.out_dir)
        return solver.RunSetup(
            grid=g, params=params, initial=self.build_initial(g), control=control,
            t_end=self.t_end, monitor_cadence=self.cadence,
            monitor_delta=self.delta, monitor_q=self.q,
            snapshot_every=self.snapshot_every, out_dir=out_dir,
            config_text=format_config(self), label=self.label, fixed_dt=self.fixed_dt)

    def resolved(self) -> "Config":
        """Fill the unset kinetic constants from the laws' defaults."""
        ks = self.build_kinetics()
        return replace(self, **{key: getattr(ks, key) for key in KINETIC_KEYS})


def _pair(raw: str) -> tuple[float, float]:
    toks = raw.replace(",", " ").split()
    if len(toks) != 2:
        raise ValueError(raw)
    return (_number(toks[0]), _number(toks[1]))


def _seed(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError(raw)
    return value


def _mms_component(raw: str) -> solver.MmsComponent:
    """Five finite numbers: base cos_amp cos_rate flat_amp flat_rate."""
    toks = raw.split()
    if len(toks) != 5:
        raise ValueError(raw)
    return solver.MmsComponent(*(_number(t) for t in toks))


# section -> key -> (Config field, converter); the only keys parse_config
# accepts, in the order format_config writes them
_SCHEMA: dict[str, dict[str, tuple[str, object]]] = {
    "grid": {"nx": ("nx", int), "ny": ("ny", int), "Lx": ("Lx", _number),
             "Ly": ("Ly", _number)},
    "time": {key: (key, _number) for key in ("t_end", "dt_max", "safety", "fixed_dt")},
    "model": {"mu": ("mu", _number), "epsilon": ("epsilon", _number)},
    "kinetics": {"f_law": ("f_law", str), "g_law": ("g_law", str),
                 **{key: (key, _number) for key in KINETIC_KEYS}},
    "resupply": {"profile": ("profile", str), "center": ("center", _pair),
                 "width": ("width", _number), "amplitude": ("amplitude", _number),
                 "decay_lambda": ("decay_lambda", _number)},
    "initial": {"u": ("init_u", str), "v": ("init_v", str), "w": ("init_w", str),
                "seed": ("seed", _seed)},
    "monitors": {"cadence": ("cadence", _number), "delta": ("delta", _number),
                 "q": ("q", _number)},
    "output": {"dir": ("out_dir", str), "snapshot_every": ("snapshot_every", _number)},
    "mms": {"u": ("mms_u", _mms_component), "v": ("mms_v", _mms_component),
            "w": ("mms_w", _mms_component)},
}


def _format_value(value, conv) -> str:
    if conv is _number:
        return repr(value)
    if conv is _pair:
        return f"{value[0]!r} {value[1]!r}"
    if conv is _mms_component:
        return " ".join(map(repr, astuple(value)))
    return str(value)


def format_config(cfg: Config) -> str:
    """Canonical INI text in _SCHEMA order; parsing it back gives cfg.resolved().

    Unset (None) values and sections left empty are omitted, and so are the
    Gaussian-only resupply keys of any other profile and the [initial]
    section of a manufactured config, whose [mms] triple is its initial data.
    """
    r = cfg.resolved()
    manufactured = any(getattr(r, attr) is not None for attr, _ in _SCHEMA["mms"].values())
    text = []
    for section, keys in _SCHEMA.items():
        if section == "initial" and manufactured:
            continue
        lines = []
        for key, (attr, conv) in keys.items():
            value = getattr(r, attr)
            if value is None or (key in ("center", "width") and r.profile != "gaussian"):
                continue
            lines.append(f"{key} = {_format_value(value, conv)}\n")
        if lines:
            text.append(f"[{section}]\n" + "".join(lines) + "\n")
    return "".join(text)


def _unknown(kind: str, name: str, known) -> str:
    # keys are case-sensitive (k_f vs K_f), so a case slip is the first guess
    close = ([k for k in known if k.lower() == name.lower()]
             or difflib.get_close_matches(name, list(known), n=1))
    hint = f" (did you mean {close[0]!r}?)" if close else ""
    return f"unknown {kind} {name!r}{hint}"


def parse_config(text: str, label: str = "run") -> Config:
    """Parse INI text into a Config; unknown sections, keys and bad values raise.

    Every problem found is listed in one StructuralError, unknown names with
    the closest known one as a hint.
    """
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # keep k_f / K_f distinct
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise StructuralError(f"config parse error: {exc}") from exc
    errors: list[str] = []
    sections = [f"[{name}]" for name in _SCHEMA]
    if parser.defaults():
        errors.append(_unknown("section", f"[{parser.default_section}]", sections))
    if parser.has_section("mms") and parser.has_section("initial"):
        errors.append("[initial] next to [mms], whose triple is the initial data")
    cfg = Config(label=label)
    for section in parser.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            errors.append(_unknown("section", f"[{section}]", sections))
            continue
        for key, raw in parser.items(section):
            if key not in keys:
                errors.append(_unknown(f"key in [{section}]", key, keys))
                continue
            attr, conv = keys[key]
            try:
                setattr(cfg, attr, conv(raw))
            except (TypeError, ValueError):
                errors.append(f"bad value [{section}] {key} = {raw!r}")
    if errors:
        raise StructuralError("bad config: " + "; ".join(errors))
    return cfg


def load_config(path, label: str | None = None) -> Config:
    path = Path(path)
    return parse_config(path.read_text(), label=label or path.stem)
