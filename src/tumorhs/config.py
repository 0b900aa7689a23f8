"""Experiment configuration: plain-text `key = value` files with [section]
headers and a closed schema (unknown keys are errors, each with its line
number).

Environment variables with the prefix TUMORHS_ override single keys, e.g.
TUMORHS_MODEL__GAMMA=40 sets [model] gamma.  read_config_text reads a config
(schema, casts and overrides) into a fully populated ExperimentConfig;
parse_config_text reads it and then validates it by building the run.
build_setup turns a config (plus an optional gamma override for sweeps) into
a solver.RunSetup and the space-time test bump the monitors use; each value
is checked once, by the constructor or builder that uses it, and validation
turns the first such error into a ConfigError.  The rules no builder owns
live here: the reaction assumptions, the sweep gammas and the barrier's fit
in the box.  Every config error is thus a ConfigError raised before any run
starts.
"""

from __future__ import annotations

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


def read_config_text(text: str, env: dict | None = None) -> ExperimentConfig:
    """The config as written: schema and casts, with the env overrides
    applied, but no rule on the values (a run directory's echo is reloaded
    this way)."""
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
    return ExperimentConfig(values=values)


def parse_config_text(text: str, env: dict | None = None) -> ExperimentConfig:
    cfg = read_config_text(text, env)
    _validate(cfg)
    return cfg


def parse_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def _validate(cfg: ExperimentConfig) -> None:
    """The rules no builder owns, then the run itself: build_setup checks
    every value it uses, and its first error becomes a ConfigError entry.
    It builds only on reactions that meet the model's assumptions, so no
    warmup runs on reactions that do not."""
    try:
        params = _model_params(cfg)
        spec = reaction_spec(cfg, params)
    except ValueError as exc:
        raise ConfigError([(None, str(exc))]) from None
    failures = model.validate(params, spec).failures if spec.family == "default" else []
    errors = [(None, f"reaction assumption violated: {name} (worst {value:.3e} at {point})")
              for name, point, value in failures]
    gammas = cfg.values["sweep"]["gammas"]
    for g in gammas:
        try:
            _model_params(cfg, g)
        except ValueError as exc:
            errors.append((None, f"sweep gamma {g:g}: {exc}"))
    if list(gammas) != sorted(set(gammas)):
        errors.append((None, "sweep gammas must be strictly increasing"))
    if not failures:
        try:
            setup = build_setup(cfg)[0]
            if spec.family == "default" and setup.T > 0 \
                    and cfg.values["initial"]["builder"] != "file":
                _check_barrier_fit(cfg, spec, setup.T)
        except (ValueError, OSError, solver.SolverError) as exc:
            errors.append((None, str(exc)))
    if errors:
        raise ConfigError(errors)


def _check_barrier_fit(cfg: ExperimentConfig, spec, T: float) -> None:
    """The support barrier of the configured S0 must hold the initial
    support, and the box must hold the initial support plus the barrier
    radius at the horizon."""
    support = _initial_support_radius(cfg)
    prm = analytic.BarrierParams.for_run(_barrier_s0(cfg), spec)
    if support > analytic.barrier_radius(0.0, prm):
        raise ValueError("initial support exceeds the barrier ball sqrt(2 S0)")
    L, barrier_T = cfg.values["grid"]["box_half_width"], analytic.barrier_radius(T, prm)
    if support + barrier_T > L:
        raise ValueError(f"box half-width {L:g} too small: initial support {support:g} "
                         f"plus barrier radius {barrier_T:g} at the horizon must fit")


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
    family = cfg.values["reactions"]["family"]
    if family == "off":
        return solver.reactions_off(params)
    if family == "default":
        return model.default_reactions(params, c_star=cfg.values["model"]["c_star"])
    raise ValueError(f"unknown reaction family {family!r}")


def _barrier_s0(cfg: ExperimentConfig) -> float:
    """[barrier] s0, or the one derived from the initial support radius."""
    bv = cfg.values["barrier"]
    return bv["s0"] or 0.5 * (bv["radius_slack"] * _initial_support_radius(cfg)) ** 2


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
    S0 = _barrier_s0(cfg)
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
    selection = all turns on both extras (the bump only when T > 0, with its
    support strictly inside the box and (0, T)), direct neither.  Each value
    is checked by the constructor or builder that uses it, which raises a
    ValueError (an OSError for an unreadable initial-data file, a
    solver.SolverError for a failed warmup)."""
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
        raise ValueError(f"unknown initial builder {ini['builder']!r}")
    if ini["nutrient_deficit_depth"] != 0.0:       # nutrient_deficit checks it
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
        zeta.check_support(g, tv["horizon"])
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
