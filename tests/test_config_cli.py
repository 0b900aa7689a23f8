"""Config parsing/validation, output layout, and the command-line surface."""

import json
import pathlib
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tumorhs import config as config_mod
from tumorhs import analytic, cli, limit, runio, solver
from tumorhs.config import ConfigError, parse_config_text
from tumorhs.grid import Grid

STANDARD_CFG = pathlib.Path(__file__).resolve().parent.parent / "configs" / "standard1d.cfg"

MINIMAL = """
[model]
gamma = 12
[grid]
dimension = 1
box_half_width = 2.6
cells = 96
[initial]
builder = plateau
theta = 0.4
radius = 0.6
edge_width = 0.25
[barrier]
radius_slack = 1.3
[time]
horizon = 0.06
snapshot_dt = 2e-3
[monitors]
zeta_center = 0.0
zeta_radius = 0.8
zeta_t_center = 0.03
zeta_t_halfwidth = 0.02
"""


# ---------------------------------------------------------------------------
# parsing and validation
# ---------------------------------------------------------------------------

def test_minimal_config_fills_defaults():
    cfg = parse_config_text(MINIMAL, env={})
    assert cfg.get("model", "gamma") == 12.0
    assert cfg.get("model", "p_h") == 1.0                 # default
    assert cfg.get("sweep", "gammas") == (10.0, 20.0, 40.0, 80.0)
    echo = config_mod.render_config(cfg)
    assert "[model]" in echo and "gamma = 12.0" in echo


def test_gamma_below_one_rejected():
    with pytest.raises(ConfigError, match="gamma > 1"):
        parse_config_text(MINIMAL.replace("gamma = 12", "gamma = 0.5"), env={})


def test_unknown_key_reports_line_number():
    bad = MINIMAL + "\ntypo_key = 3\n"
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, env={})
    assert any("typo_key" in msg and ln is not None for ln, msg in err.value.errors)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text(MINIMAL + "\n[mystery]\nx = 1\n", env={})


def test_coarse_cadence_accepted_in_2d():
    # the snapshot spacing of a 2D run is not tied to an explicit CFL step
    coarse = MINIMAL.replace("snapshot_dt = 2e-3", "snapshot_dt = 3e-2")
    coarse = coarse.replace("dimension = 1", "dimension = 2")
    cfg = parse_config_text(coarse, env={})
    assert cfg.get("grid", "dimension") == 2 and cfg.get("time", "snapshot_dt") == 3e-2


def test_standard_config_runs_at_gamma_160(tmp_path, monkeypatch):
    # no cadence rule: the implicit step is not bounded by an explicit CFL dt
    cfg = parse_config_text(STANDARD_CFG.read_text(encoding="utf-8"),
                            env={"TUMORHS_MODEL__GAMMA": "160"})
    assert cfg.get("model", "gamma") == 160.0
    monkeypatch.setenv("TUMORHS_MODEL__GAMMA", "160")
    assert cli.main(["run", "--config", str(STANDARD_CFG), "--out", str(tmp_path),
                     "--assert"]) == 0


def test_box_too_small_for_barrier():
    small = MINIMAL.replace("box_half_width = 2.6", "box_half_width = 1.2")
    with pytest.raises(ConfigError, match="barrier"):
        parse_config_text(small, env={})


PLATEAU_2D = """
[model]
gamma = 20
[grid]
dimension = 2
box_half_width = 3.9
cells = 96
[initial]
builder = plateau
theta = 0.55
radius = 1.2
edge_width = 0.3
[time]
horizon = 0.005
snapshot_dt = 2.5e-3
[monitors]
selection = direct
"""


def test_barrier_starts_above_the_initial_pressure(tmp_path):
    # G0 * S0 from the support radius alone (0.6 * 0.794) lies below the
    # plateau pressure 0.55, and on 96^2 the support overtakes that ball by
    # t = 0.0025; S0 >= p0/G0 + |x|^2/2 makes the barrier a super-solution
    cfg = parse_config_text(PLATEAU_2D, env={})
    _, _, setup, run_dir = limit.run_once(cfg, tmp_path)
    traj = runio.load_trajectory(run_dir)
    prm = config_mod.barrier_params(cfg, setup)
    G0 = 0.5 * prm.rate
    p0, r = traj.p[0], setup.grid.radius
    inside = p0 > 0.0
    assert np.all(G0 * (prm.S0 - 0.5 * r[inside] ** 2) >= p0[inside] * (1.0 - 1e-12))
    ok, fails = analytic.barrier_check(traj, prm)
    assert ok, fails
    radius_only = analytic.BarrierParams.for_run(0.5 * (1.05 * 1.2) ** 2, setup.spec)
    assert not analytic.barrier_check(traj, radius_only)[0]


def test_env_override():
    cfg = parse_config_text(MINIMAL, env={"TUMORHS_MODEL__GAMMA": "24"})
    assert cfg.get("model", "gamma") == 24.0
    with pytest.raises(ConfigError, match="unknown override"):
        parse_config_text(MINIMAL, env={"TUMORHS_MODEL__NOPE": "1"})


def test_monitor_selection_is_closed():
    for ok in ("all", "direct"):
        parse_config_text(MINIMAL + f"selection = {ok}\n", env={})
    bad = MINIMAL + "selection = basic\n"       # appended to [monitors]
    with pytest.raises(ConfigError) as err:
        parse_config_text(bad, env={})
    line = len(bad.splitlines())
    assert any(ln == line and "selection" in msg and "basic" in msg
               for ln, msg in err.value.errors)
    with pytest.raises(ConfigError, match="expected 'all' or 'direct', got 'basic'"):
        parse_config_text(MINIMAL, env={"TUMORHS_MONITORS__SELECTION": "basic"})


def test_monitor_selection_picks_the_extras(tmp_path):
    # all: the zeta pair and the weighted bound; direct: neither
    for selection, extras in (("direct", False), ("all", True)):
        cfg_path = tmp_path / f"{selection}.cfg"
        cfg_path.write_text(MINIMAL + f"selection = {selection}\n", encoding="utf-8")
        out = tmp_path / selection
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        accum = runio.load_summary(next(out.iterdir()))["accumulated"]
        assert ("weighted_ab_neg_l3" in accum) == extras
        compl = [k for k in accum if k.startswith("compl_")]
        assert compl == (["compl_defect", "compl_lhs", "compl_lhs_bound", "compl_rhs"]
                         if extras else [])


def test_zeta_window_must_fit():
    late = MINIMAL.replace("zeta_t_center = 0.03", "zeta_t_center = 0.08")
    with pytest.raises(ConfigError, match="zeta"):
        parse_config_text(late, env={})


def test_horizon_must_be_multiple_of_cadence():
    off = MINIMAL.replace("horizon = 0.06", "horizon = 0.061")
    with pytest.raises(ConfigError, match="multiple"):
        parse_config_text(off, env={})


def _schema_cases():
    """Single-key env overrides of MINIMAL: every numeric key of the schema
    at -1, 0 and 2, under each builder and with reactions on and off (no 2D
    prerelaxed, whose warmup is slow), plus a deep nutrient deficit of
    negative radius and a missing initial-data file."""
    for builder in ("plateau", "prerelaxed", "barenblatt"):
        for family in ("default", "off"):
            base = {"TUMORHS_INITIAL__BUILDER": builder, "TUMORHS_REACTIONS__FAMILY": family}
            for section, keys in config_mod._SCHEMA.items():
                for key, (caster, _) in keys.items():
                    if caster not in (float, int):
                        continue
                    for value in ("-1", "0", "2"):
                        if (builder, key, value) != ("prerelaxed", "dimension", "2"):
                            yield {**base, f"TUMORHS_{section}__{key}".upper(): value}
            yield {**base, "TUMORHS_INITIAL__NUTRIENT_DEFICIT_DEPTH": "0.5",
                   "TUMORHS_INITIAL__NUTRIENT_DEFICIT_RADIUS": "-1"}
    for family in ("default", "off"):
        yield {"TUMORHS_INITIAL__BUILDER": "file", "TUMORHS_REACTIONS__FAMILY": family,
               "TUMORHS_INITIAL__FILE": "no-such-dir/n0.csv"}


def test_every_parsed_config_builds():
    # a config either fails to parse with a ConfigError or builds its run
    escaped = []
    for env in _schema_cases():
        try:
            cfg = parse_config_text(MINIMAL, env=env)
        except ConfigError:
            continue
        try:
            config_mod.build_setup(cfg)
        except Exception as exc:   # noqa: BLE001 - collect every escape
            escaped.append((env, repr(exc)))
    assert not escaped


@pytest.mark.parametrize("key, value, match", [
    ("REACTIONS__FAMILY", "mystery", "unknown reaction family 'mystery'"),
    ("INITIAL__BUILDER", "mystery", "unknown initial builder 'mystery'"),
    ("INITIAL__NUTRIENT_DEFICIT_DEPTH", "-0.5", "depth in \\[0, 1\\]"),
    ("SWEEP__GAMMAS", "8, 0.5", "sweep gamma 0.5: gamma > 1"),
    ("SWEEP__GAMMAS", "16, 8", "strictly increasing"),
    ("TIME__HORIZON", "1000", "plus barrier radius inf at the horizon"),
])
def test_each_rule_is_a_config_error(key, value, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(MINIMAL, env={f"TUMORHS_{key}": value})


def test_no_build_on_reactions_that_fail_the_assumptions(monkeypatch):
    built = []
    monkeypatch.setattr(config_mod, "build_setup", lambda cfg: built.append(cfg))
    with pytest.raises(ConfigError, match="reaction assumption violated"):
        parse_config_text(MINIMAL, env={"TUMORHS_MODEL__C_STAR": "2"})
    assert built == []


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("env, match", [
    ({"MONITORS__ZETA_RADIUS": "-1"}, "zeta"),
    ({"BARRIER__S0": "-1"}, "barrier S0 must be positive"),
    ({"INITIAL__BUILDER": "prerelaxed", "INITIAL__RELAX_TIME": "-1"}, "t_relax"),
])
def test_config_error_is_reported_before_any_run(tmp_path, capsys, monkeypatch,
                                                 command, env, match):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL, encoding="utf-8")
    for key, value in env.items():
        monkeypatch.setenv(f"TUMORHS_{key}", value)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("config error: ") and match in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# run directory layout and binary round trip
# ---------------------------------------------------------------------------

def run_cli(args, cwd):
    return cli.main([*args])


def test_run_directory_layout_and_roundtrip(tmp_path, monkeypatch):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["run", "--config", str(cfg_path), "--out", "o"])
    assert rc == 0
    run_dirs = list((tmp_path / "o").iterdir())
    assert len(run_dirs) == 1
    d = run_dirs[0]
    for name in ("config.echo.cfg", "manifest.json", "fields.bin",
                 "final_state.csv", "monitors.csv", "summary.json"):
        assert (d / name).exists(), name
    import tumorhs
    manifest = json.loads((d / "manifest.json").read_text())
    assert manifest["version"] == tumorhs.__version__
    assert sorted(manifest) == ["config_hash", "dtype", "fields", "grid", "snapshots",
                                "times", "version"]
    # the layout follows from the manifest: one block per snapshot and field
    assert (d / "fields.bin").stat().st_size == (
        manifest["snapshots"] * len(manifest["fields"]) * manifest["grid"]["cells"] * 8)
    traj = runio.load_trajectory(d)
    assert len(traj) == manifest["snapshots"]
    assert np.all(np.isfinite(traj.n))
    # monitor CSV header starts with t, dt
    head = (d / "monitors.csv").read_text().splitlines()[0]
    assert head.startswith("t,dt,")


def test_reload_restores_every_model_parameter(tmp_path):
    text = MINIMAL.replace("gamma = 12", "gamma = 12\np_h = 1.2\nc1 = 0.2\nc2 = 0.72")
    cfg_path = tmp_path / "params.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    d = next((tmp_path / "o").iterdir())
    expected = config_mod._model_params(parse_config_text(text, env={}))
    assert (expected.p_H, expected.c1, expected.c2) == (1.2, 0.2, 0.72)
    assert runio.load_trajectory(d).params == expected
    # without summary.json gamma comes from the echoed config too
    (d / "summary.json").unlink()
    assert runio.load_trajectory(d).params == expected


def test_reload_does_not_reread_the_initial_data_file(tmp_path):
    # the echo names a CSV that has since gone: reloading reads the config
    # as written and builds nothing
    g = Grid.symmetric(1, 2.6, 96)
    params = config_mod._model_params(parse_config_text(MINIMAL, env={}))
    n0, _ = solver.initial_plateau(g, params, theta=0.4, radius=0.6, edge=0.25)
    csv = tmp_path / "n0.csv"
    np.savetxt(csv, np.column_stack([g.coords[0], n0]), delimiter=",",
               header="x0,value", comments="", fmt="%.17g")
    cfg_path = tmp_path / "file.cfg"
    cfg_path.write_text(MINIMAL.replace("builder = plateau", f"builder = file\nfile = {csv}"),
                        encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    d = next((tmp_path / "o").iterdir())
    csv.unlink()
    traj = runio.load_trajectory(d)
    assert traj.params == params
    assert np.array_equal(traj.n[0], n0)


def test_repeated_runs_bitwise_identical(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    a = next((tmp_path / "a").iterdir())
    b = next((tmp_path / "b").iterdir())
    assert a.name == b.name                     # content-hash naming
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert {"fields.bin", "monitors.csv", "summary.json", "timing.json"} <= set(names)
    for name in names:
        if name != "timing.json":               # wall-clock runtime lives here
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
    timing = json.loads((a / "timing.json").read_text())
    assert set(timing) == {"runtime_s", "steps", "dt_min", "dt_max", "steps_at_marks",
                           "front_courant", "nutrient_residual_max",
                           "density_window_mean", "monitor_s", "write_s"}
    assert timing["monitor_s"] > 0.0 and timing["write_s"] > 0.0
    assert 0.0 < timing["dt_min"] <= timing["dt_max"]
    assert 0 < timing["steps_at_marks"] <= timing["steps"]
    assert timing["front_courant"] == solver.FRONT_COURANT
    assert 0.0 <= timing["nutrient_residual_max"] <= 1e-10
    assert timing["density_window_mean"] is None         # 1D works on every cell
    # 2D: the same step rule, on the support's box
    cfg_2d = tmp_path / "plateau2d.cfg"
    cfg_2d.write_text(PLATEAU_2D, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_2d), "--out", str(tmp_path / "c")]) == 0
    timing = json.loads((next((tmp_path / "c").iterdir()) / "timing.json").read_text())
    assert timing["front_courant"] == solver.FRONT_COURANT
    assert 0.0 < timing["density_window_mean"] < 1.0


WALL_REACHING = """
[model]
gamma = 4
p_h = 4
[reactions]
family = off
[grid]
box_half_width = 1.0
cells = 64
[initial]
builder = barenblatt
barenblatt_mass = 1.5
barenblatt_t0 = 0.05
[time]
horizon = 0.5
snapshot_dt = 0.01
[monitors]
selection = direct
"""


@pytest.mark.parametrize("flags, code", [(["--assert"], cli.ASSERT_FAIL), ([], 1)])
def test_run_failure_is_one_line_and_an_exit_code(tmp_path, capsys, flags, code):
    # the Barenblatt support reaches the wall at t = 0.054
    cfg_path = tmp_path / "wall.cfg"
    cfg_path.write_text(WALL_REACHING, encoding="utf-8")
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out), *flags]) == code
    err, = capsys.readouterr().err.splitlines()
    run_dir, = out.iterdir()
    assert err.startswith("run failed: support reached the box boundary at t=0.05")
    assert err.endswith(f"; partial dump in {run_dir}")
    assert sorted(p.name for p in run_dir.iterdir()) == ["fields.partial.bin",
                                                          "partial.json"]


def test_failed_partial_dump_is_reported_and_leaves_no_file(tmp_path, capsys,
                                                            monkeypatch):
    def full_disk(fh, state):
        fh.write(bytes(8))                  # a truncated first block
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(runio, "write_snapshot", full_disk)
    cfg_path = tmp_path / "wall.cfg"
    cfg_path.write_text(WALL_REACHING, encoding="utf-8")
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--assert"]) == cli.ASSERT_FAIL
    err, = capsys.readouterr().err.splitlines()
    assert err.startswith("run failed: support reached the box boundary at t=0.05")
    assert err.endswith("; no partial dump could be written: "
                        "[Errno 28] No space left on device")
    run_dir, = out.iterdir()
    assert list(run_dir.iterdir()) == []


def test_report_aggregates_and_refuses_mixed_versions(tmp_path):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL, encoding="utf-8")
    out = tmp_path / "runs"
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert cli.main(["report", "--out", str(out)]) == 0
    table = (out / "report.csv").read_text().splitlines()
    assert table[0].startswith("run_dir,gamma,")
    assert len(table) == 2
    # tamper a copied summary with a different version stamp
    run_dir = next(p for p in out.iterdir() if p.is_dir())
    clone = out / (run_dir.name + "-old")
    shutil.copytree(run_dir, clone)
    summary = json.loads((clone / "summary.json").read_text())
    summary["version"] = "0.0.0"
    (clone / "summary.json").write_text(json.dumps(summary))
    assert cli.main(["report", "--out", str(out)]) == 1


def test_sweep_emits_directory_per_gamma(tmp_path):
    cfg = MINIMAL + "\n[sweep]\ngammas = 8, 16\n"
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(cfg, encoding="utf-8")
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(dirs) == 3                       # two runs plus the sweep summary
    sweep_dir = next(p for p in dirs if p.name.endswith("-sweep"))
    assert (sweep_dir / "sweep.csv").exists()
    assert (sweep_dir / "sweep.json").exists()


def _tree_bytes(root):
    """relative path -> bytes of every file under root except timing.json"""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name != "timing.json"}


def test_sweep_outputs_and_progress_independent_of_worker_count(tmp_path, capsys):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL + "\n[sweep]\ngammas = 8, 16, 32\n", encoding="utf-8")
    trees = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out),
                         "--workers", str(workers)]) == 0
        lines = capsys.readouterr().out.splitlines()
        summary = next(i for i, ln in enumerate(lines) if ln.startswith("sweep summary:"))
        progress = [ln.split(":")[0] for ln in lines[:summary] if ln.startswith("gamma=")]
        assert progress == ["gamma=8", "gamma=16", "gamma=32"]
        assert not any(ln.startswith("gamma=") for ln in lines[summary:])
        trees.append(_tree_bytes(out))
    assert len(trees[0]) == 3 * 6 + 2           # six files per gamma, sweep.json/csv
    assert trees[0] == trees[1]


def test_sweep_prints_each_gamma_as_it_finishes(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "mini.cfg"
    cfg_path.write_text(MINIMAL + "\n[sweep]\ngammas = 8, 16\n", encoding="utf-8")
    printed_before_run = []
    run_once = limit.run_once

    def recording_run_once(*args, **kwargs):
        printed_before_run.append(capsys.readouterr().out)
        return run_once(*args, **kwargs)

    monkeypatch.setattr(limit, "run_once", recording_run_once)
    out = tmp_path / "sw"
    assert cli.main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert printed_before_run[0] == ""
    assert printed_before_run[1].startswith("gamma=8: done")


def test_graph_residual_gate_at_large_gamma(tmp_path, monkeypatch, capsys):
    # gamma^gamma overflows a float at gamma = 160; the gate must still report
    for key, value in (("MODEL__GAMMA", "160"), ("TIME__HORIZON", "1e-3"),
                       ("TIME__SNAPSHOT_DT", "1e-4"), ("MONITORS__SELECTION", "direct")):
        monkeypatch.setenv(f"TUMORHS_{key}", value)
    assert cli.main(["run", "--config", str(STANDARD_CFG), "--out", str(tmp_path),
                     "--assert"]) == 0
    assert "PASS graph residual bound:" in capsys.readouterr().out


def test_focusing_emits_alpha_table(tmp_path):
    out = tmp_path / "foc"
    assert cli.main(["focusing", "--out", str(out), "--assert"]) == 0
    table = (out / "integrability.csv").read_text().splitlines()
    alphas = {float(line.split(",")[0]) for line in table[1:]}
    assert alphas == {2.0, 3.0, 3.5, 4.0, 4.5, 6.0}
    assert (out / "focusing_trace.csv").exists()


def test_validate_subcommand_passes_for_defaults(capsys):
    assert cli.main(["validate"]) == 0
    out = capsys.readouterr().out
    assert "all structural assumptions hold" in out


def test_barenblatt_subcommand_small(tmp_path):
    rc = cli.main(["barenblatt-convergence", "--out", str(tmp_path),
                   "--gammas", "3", "--cells", "100", "200",
                   "--horizon", "0.5"])
    assert rc == 0
    assert (tmp_path / "barenblatt_convergence.csv").exists()


def test_barenblatt_csv_repeats_bit_for_bit(tmp_path):
    args = ["barenblatt-convergence", "--gammas", "3", "--cells", "20", "40"]
    assert cli.main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([*args, "--out", str(tmp_path / "b")]) == 0
    csv = (tmp_path / "a" / "barenblatt_convergence.csv").read_bytes()
    assert csv == (tmp_path / "b" / "barenblatt_convergence.csv").read_bytes()
    assert csv.splitlines()[0] == b"gamma,N,h,l1_error"
    timing = json.loads((tmp_path / "a" / "barenblatt_timing.json").read_text())
    assert [(row["gamma"], row["N"]) for row in timing] == [(3.0, 20), (3.0, 40)]
    assert all(row["runtime_s"] > 0.0 for row in timing)


def test_console_script_installed():
    proc = subprocess.run([sys.executable, "-m", "tumorhs.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
