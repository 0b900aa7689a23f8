"""Experiment configuration: plain-text `key = value` files with [section]
headers, a closed schema (unknown keys are errors, each with its line number),
and full validation before any run starts.

Environment variables with the prefix TUMORHS_ override single keys, e.g.
TUMORHS_MODEL__GAMMA=40 sets [model] gamma.  parse_config returns a fully
populated ExperimentConfig; build_setup turns it (plus an optional gamma
override for sweeps) into a solver.RunSetup and the space-time test bump the
monitors use.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import analytic, model, solver
from .grid import Grid, TestFunction

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "build_setup",
    "render_config",
    "DEFAULT_CONFIG_TEXT",
]

ENV_PREFIX = "TUMORHS_"


class ConfigError(ValueError):
    """Carries a list of (line_number_or_None, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = "; ".join(
            (f"line {ln}: {msg}" if ln is not None else msg) for ln, msg in self.errors)
        super().__init__(lines)


def _float_list(s: str) -> tuple:
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def _selection(s: str) -> str:
    if s not in ("all", "direct"):
        raise ValueError(f"expected 'all' or 'direct', got {s!r}")
    return s


# section -> key -> (caster, default); the schema is closed.
_SCHEMA = {
    "model": {
        "gamma": (float, 40.0),
        "p_h": (float, 1.0),
        "p_b": (float, 2.0),
        "c_b": (float, 1.0),
        "g0": (float, 1.0),
        "c1": (float, 0.1),
        "c2": (float, 0.5),
        "c_star": (float, 0.4),
    },
    "reactions": {
        "family": (str, "default"),   # default | off
    },
    "grid": {
        "dimension": (int, 1),
        "box_half_width": (float, 3.9),
        "cells": (int, 272),
    },
    "initial": {
        "builder": (str, "prerelaxed"),  # plateau | prerelaxed | barenblatt | file
        "theta": (float, 0.55),
        "radius": (float, 1.2),
        "edge_width": (float, 0.3),
        "height": (str, "pressure"),     # pressure | density (plateau family)
        "relax_time": (float, 0.02),
        "relax_gamma": (float, 80.0),
        "barenblatt_mass": (float, 1.0),
        "barenblatt_t0": (float, 0.1),
        "file": (str, ""),
        "nutrient_deficit_depth": (float, 0.0),
        "nutrient_deficit_radius": (float, 0.5),
    },
    "time": {
        "horizon": (float, 1.25),
        "snapshot_dt": (float, 1.25e-3),
        "cfl_safety": (float, 0.4),
    },
    "monitors": {
        "selection": (_selection, "all"),  # all | direct (skip zeta/weight extras)
        "zeta_center": (float, 0.0),
        "zeta_radius": (float, 1.5),
        "zeta_t_center": (float, 0.4),
        "zeta_t_halfwidth": (float, 0.3),
    },
    "barrier": {
        "s0": (float, 0.0),              # 0 -> derived from the initial radius
        "radius_slack": (float, 1.05),
    },
    "sweep": {
        "gammas": (_float_list, (10.0, 20.0, 40.0, 80.0)),
    },
    "output": {
        "directory": (str, "out"),
    },
}

@dataclass
class ExperimentConfig:
    values: dict            # section -> key -> parsed value

    def get(self, section: str, key: str):
        return self.values[section][key]


def _parse_lines(text: str):
    """Yield (line_no, section, key, raw_value) plus syntax errors."""
    section = None
    errors = []
    entries = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in _SCHEMA:
                errors.append((ln, f"unknown section [{section}]"))
                section = None
            continue
        if "=" not in line:
            errors.append((ln, f"expected `key = value`, got {line!r}"))
            continue
        if section is None:
            errors.append((ln, "key outside of any [section]"))
            continue
        key, _, value = line.partition("=")
        entries.append((ln, section, key.strip().lower(), value.strip()))
    return entries, errors


def parse_config_text(text: str, env: dict | None = None) -> ExperimentConfig:
    entries, errors = _parse_lines(text)
    values = {sec: {k: default for k, (_, default) in keys.items()}
              for sec, keys in _SCHEMA.items()}
    for ln, section, key, raw in entries:
        schema = _SCHEMA[section]
        if key not in schema:
            errors.append((ln, f"unknown key {key!r} in [{section}]"))
            continue
        caster, _ = schema[key]
        try:
            values[section][key] = caster(raw)
        except ValueError as exc:
            errors.append((ln, f"[{section}] {key}: {exc}"))
    env = os.environ if env is None else env
    for name, raw in env.items():
        if not name.startswith(ENV_PREFIX):
            continue
        rest = name[len(ENV_PREFIX):].lower()
        if "__" not in rest:
            errors.append((None, f"malformed override {name} (use SECTION__KEY)"))
            continue
        section, key = rest.split("__", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            errors.append((None, f"unknown override {name}"))
            continue
        caster, _ = _SCHEMA[section][key]
        try:
            values[section][key] = caster(raw)
        except ValueError as exc:
            errors.append((None, f"override {name}: {exc}"))
    if errors:
        raise ConfigError(errors)
    cfg = ExperimentConfig(values=values)
    _validate(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _validate(cfg: ExperimentConfig) -> None:
    errors = []
    v = cfg.values
    try:
        params = _model_params(cfg)
    except ValueError as exc:
        raise ConfigError([(None, str(exc))])
    family = v["reactions"]["family"]
    if family not in ("default", "off"):
        errors.append((None, f"unknown reaction family {family!r}"))
    if family == "default":
        spec = model.default_reactions(params, c_star=v["model"]["c_star"])
        report = model.validate(params, spec)
        if not report.passed:
            for name, point, value in report.failures:
                errors.append((None, f"reaction assumption violated: {name} "
                                     f"(worst {value:.3e} at {point})"))
    d = v["grid"]["dimension"]
    if d not in (1, 2):
        errors.append((None, "grid dimension must be 1 or 2"))
    if v["grid"]["cells"] < 8:
        errors.append((None, "at least 8 cells per axis required"))
    if params.gamma <= params.gamma_floor(d if d in (1, 2) else 1):
        errors.append((None, "gamma must exceed max(1, 2 - 4/d)"))
    for g_sweep in v["sweep"]["gammas"]:
        if g_sweep <= params.gamma_floor(d if d in (1, 2) else 1):
            errors.append((None, f"sweep gamma {g_sweep} below the admissible floor"))
    if list(v["sweep"]["gammas"]) != sorted(set(v["sweep"]["gammas"])):
        errors.append((None, "sweep gammas must be strictly increasing"))

    T = v["time"]["horizon"]
    snap = v["time"]["snapshot_dt"]
    if T < 0:
        errors.append((None, "time horizon must be nonnegative"))
    if T > 0:
        if snap <= 0:
            errors.append((None, "snapshot_dt must be positive"))
        else:
            k = round(T / snap)
            if k < 1 or abs(k * snap - T) > 1e-9 * max(T, 1.0):
                errors.append((None, "horizon must be an integer multiple of snapshot_dt"))
    if not 0.0 < v["time"]["cfl_safety"] <= 1.0:
        errors.append((None, "cfl_safety must lie in (0, 1]"))

    L = v["grid"]["box_half_width"]

    ini = v["initial"]
    if ini["builder"] not in ("plateau", "prerelaxed", "barenblatt", "file"):
        errors.append((None, f"unknown initial builder {ini['builder']!r}"))
    if ini["builder"] in ("plateau", "prerelaxed"):
        if not 0.0 < ini["theta"] < 1.0:
            errors.append((None, "initial theta must lie in (0, 1)"))
        if not 0.0 < ini["edge_width"] < ini["radius"]:
            errors.append((None, "need 0 < edge_width < radius"))
        if ini["height"] not in ("pressure", "density"):
            errors.append((None, "initial height must be 'pressure' or 'density'"))
    if not 0.0 <= ini["nutrient_deficit_depth"] <= 1.0:
        errors.append((None, "nutrient_deficit_depth must lie in [0, 1]"))

    # support containment against the barrier ball at the final time
    if family == "default" and T > 0 and ini["builder"] != "file":
        spec = model.default_reactions(params, c_star=v["model"]["c_star"])
        support = _initial_support_radius(cfg)
        S0 = v["barrier"]["s0"] or 0.5 * (v["barrier"]["radius_slack"] * support) ** 2
        G0 = float(spec.G(0.0, params.c_B))
        if G0 <= 0:
            errors.append((None, "barrier requires G(0, c_B) > 0"))
        else:
            barrier_T = math.sqrt(2.0 * S0 * math.exp(2.0 * G0 * T))
            if support > math.sqrt(2.0 * S0):
                errors.append((None, "initial support exceeds the barrier ball sqrt(2 S0)"))
            if support + barrier_T > L:
                errors.append((None,
                               f"box half-width {L:g} too small: initial support {support:g} "
                               f"plus barrier radius {barrier_T:g} at the horizon must fit"))

    zc = v["monitors"]["zeta_center"]
    zr = v["monitors"]["zeta_radius"]
    if v["monitors"]["selection"] == "all" and T > 0:
        if not (-L < zc - zr and zc + zr < L):
            errors.append((None, "zeta support is not strictly inside the box"))
        t0 = v["monitors"]["zeta_t_center"] - v["monitors"]["zeta_t_halfwidth"]
        t1 = v["monitors"]["zeta_t_center"] + v["monitors"]["zeta_t_halfwidth"]
        if not (0.0 < t0 and t1 < T):
            errors.append((None, "zeta time window is not strictly inside (0, T)"))
    if errors:
        raise ConfigError(errors)


def _model_params(cfg: ExperimentConfig, gamma_override: float | None = None):
    m = cfg.values["model"]
    gamma = m["gamma"] if gamma_override is None else gamma_override
    return model.ModelParams(gamma=gamma,
                             p_H=m["p_h"], p_B=m["p_b"], c_B=m["c_b"],
                             g0=m["g0"], c1=m["c1"], c2=m["c2"])


def _initial_support_radius(cfg: ExperimentConfig) -> float:
    ini = cfg.values["initial"]
    if ini["builder"] in ("plateau", "prerelaxed"):
        return ini["radius"]
    if ini["builder"] == "barenblatt":
        params = _model_params(cfg)
        prm = analytic.BarenblattParams(
            m=params.gamma + 1.0, d=cfg.values["grid"]["dimension"],
            mass=ini["barenblatt_mass"],
            kappa=params.gamma / (params.gamma + 1.0), t0=ini["barenblatt_t0"])
        return analytic.barenblatt_support_radius(0.0, prm)
    return cfg.values["grid"]["box_half_width"]


def reaction_spec(cfg: ExperimentConfig, params) -> model.ReactionSpec:
    if cfg.values["reactions"]["family"] == "off":
        return solver.reactions_off(params)
    return model.default_reactions(params, c_star=cfg.values["model"]["c_star"])


def barrier_params(cfg: ExperimentConfig, setup) -> analytic.BarrierParams | None:
    """Support barrier of one run (a solver.RunSetup), or None without reactions.

    Pi(x, t) = G0 |S(t) - |x|^2/2|_+ with S(t) = S0 exp(2 G0 t), G0 = G(0, c_B),
    is a super-solution of the pressure equation only if it starts above the
    initial pressure: Pi(x, 0) >= p0(x), i.e. S0 >= p0/G0 + |x|^2/2 on the
    initial support.  S0 is the larger of that bound and the configured
    value ([barrier] s0, or the one derived from the initial radius).
    """
    if cfg.values["reactions"]["family"] == "off":
        return None
    support = _initial_support_radius(cfg)
    S0 = cfg.values["barrier"]["s0"] or \
        0.5 * (cfg.values["barrier"]["radius_slack"] * support) ** 2
    spec = setup.spec
    G0 = float(spec.G(0.0, spec.params.c_B))
    p0 = model.pressure_from_density(setup.n0, setup.params.gamma)
    inside = p0 > 0.0
    if G0 > 0.0 and inside.any():
        S0 = max(S0, float(np.max(p0[inside] / G0
                                  + 0.5 * setup.grid.radius[inside] ** 2)))
    return analytic.BarrierParams.for_run(S0, spec)


def build_setup(cfg: ExperimentConfig, gamma_override: float | None = None):
    """RunSetup, test bump and weight flag for one run of this experiment:
    selection = all turns on both extras (the bump only when T > 0), direct
    neither."""
    params = _model_params(cfg, gamma_override)
    spec = reaction_spec(cfg, params)
    gv = cfg.values["grid"]
    g = Grid.symmetric(gv["dimension"], gv["box_half_width"], gv["cells"])
    ini = cfg.values["initial"]
    if ini["builder"] == "plateau":
        n0, p0 = solver.initial_plateau(g, params, theta=ini["theta"],
                                        radius=ini["radius"], edge=ini["edge_width"],
                                        height=ini["height"])
    elif ini["builder"] == "prerelaxed":
        n0, p0 = solver.initial_prerelaxed(g, params, spec, theta=ini["theta"],
                                           radius=ini["radius"], edge=ini["edge_width"],
                                           t_relax=ini["relax_time"],
                                           gamma_prep=ini["relax_gamma"])
    elif ini["builder"] == "barenblatt":
        n0, p0 = solver.initial_barenblatt(g, params, mass=ini["barenblatt_mass"],
                                           t0=ini["barenblatt_t0"])
    elif ini["builder"] == "file":
        n0, p0 = solver.initial_from_csv(g, params, ini["file"])
    else:
        raise ConfigError([(None, f"unknown builder {ini['builder']!r}")])
    if ini["nutrient_deficit_depth"] > 0.0:
        c0 = solver.nutrient_deficit(g, params, ini["nutrient_deficit_depth"],
                                     ini["nutrient_deficit_radius"])
    else:
        c0 = solver.nutrient_uniform(g, params)
    tv = cfg.values["time"]
    setup = solver.RunSetup(grid=g, params=params, spec=spec, n0=n0, c0=c0,
                            T=tv["horizon"], snapshot_dt=tv["snapshot_dt"],
                            cfl_safety=tv["cfl_safety"])
    extras = cfg.values["monitors"]["selection"] == "all"
    zeta = None
    if extras and tv["horizon"] > 0:
        mv = cfg.values["monitors"]
        zeta = TestFunction(center=(mv["zeta_center"],) * gv["dimension"],
                            radius=mv["zeta_radius"],
                            t_center=mv["zeta_t_center"],
                            t_halfwidth=mv["zeta_t_halfwidth"])
    return setup, zeta, extras


def render_config(cfg: ExperimentConfig) -> str:
    """Canonical echo of the effective configuration (defaults filled in)."""
    out = []
    for section in _SCHEMA:
        out.append(f"[{section}]")
        for key in _SCHEMA[section]:
            val = cfg.values[section][key]
            if isinstance(val, tuple):
                val = ", ".join(f"{x:g}" for x in val)
            out.append(f"{key} = {val}")
        out.append("")
    return "\n".join(out)


DEFAULT_CONFIG_TEXT = """\
# Standard 1D stiff-limit experiment.
[model]
gamma = 40

[grid]
dimension = 1
box_half_width = 3.9
cells = 272

[initial]
builder = prerelaxed
theta = 0.55
radius = 1.2
edge_width = 0.3
relax_time = 0.02
relax_gamma = 80

[time]
horizon = 1.25
snapshot_dt = 1.25e-3

[monitors]
zeta_center = 0.0
zeta_radius = 1.5
zeta_t_center = 0.4
zeta_t_halfwidth = 0.3

[sweep]
gammas = 10, 20, 40, 80
"""
