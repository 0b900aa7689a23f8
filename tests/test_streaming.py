"""Every run streams: each snapshot goes to fields.bin and to the monitor
pass as the run reaches it, and no history is kept."""

import json
import tracemalloc

import numpy as np
import pytest

from tumorhs import cli, config, limit, monitors, runio, solver

# 1D, 96 cells: blocks of 42 snapshots, 101 snapshots (a partial last block)
STREAM_1D = """
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
horizon = 0.2
snapshot_dt = 2e-3
[monitors]
zeta_center = 0.0
zeta_radius = 0.8
zeta_t_center = 0.03
zeta_t_halfwidth = 0.02
"""

# 2D, {cells}^2 cells on [-3.9, 3.9]^2, T = 0.04 with {snapshots} snapshots
STREAM_2D = """
[model]
gamma = 12
[grid]
dimension = 2
box_half_width = 3.9
cells = {cells}
[initial]
builder = plateau
theta = 0.55
radius = 1.2
edge_width = 0.3
[time]
horizon = 0.04
snapshot_dt = {snapshot_dt!r}
[monitors]
zeta_center = 0.0
zeta_radius = 1.5
zeta_t_center = 0.02
zeta_t_halfwidth = 0.01
"""


def stream_2d(cells: int, snapshots: int):
    text = STREAM_2D.format(cells=cells, snapshot_dt=0.04 / (snapshots - 1))
    return config.parse_config_text(text, env={})


def assert_same_bytes(a: dict, b: dict, what: str) -> None:
    assert list(a) == list(b), what
    for name in a:
        assert np.asarray(a[name]).tobytes() == np.asarray(b[name]).tobytes(), (what, name)


@pytest.mark.parametrize("case", ["1d", "2d"])
def test_streamed_report_has_the_bits_of_compute_report(tmp_path, case):
    # 2D: 24^2 cells, blocks of 7 snapshots, 11 snapshots
    cfg = (config.parse_config_text(STREAM_1D, env={}) if case == "1d"
           else stream_2d(24, 11))
    streamed, want, setup, run_dir = limit.run_once(cfg, tmp_path)
    loaded = runio.load_trajectory(run_dir)
    size = monitors._BLOCK_CELLS // loaded.n[0].size
    assert 1 < size < len(loaded) and len(loaded) % size != 0
    # the report of the reloaded run is the report the run streamed
    _, zeta, weight_on = config.build_setup(cfg)
    weight = monitors.build_weight(setup.grid) if weight_on else None
    got = monitors.compute_report(loaded, setup.spec, zeta=zeta, weight=weight)
    for part in ("series", "accum", "meta", "extremes"):
        assert_same_bytes(getattr(want, part), getattr(got, part), part)
    # the returned trajectory holds the first and the last snapshot of the run
    assert np.array_equal(streamed.times, loaded.times[[0, -1]])
    for name in ("n", "p", "c", "snap_dts"):
        assert np.array_equal(getattr(streamed, name), getattr(loaded, name)[[0, -1]]), name
    assert len(streamed.dts) == loaded.meta["steps"] == streamed.meta["steps"]


def peak_bytes(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def kept_run(cfg) -> list:
    """solver.run of the config with a sink that keeps every snapshot."""
    kept = []
    solver.run(config.build_setup(cfg)[0], sink=lambda k, state, snap_dt: kept.append(state))
    return kept


def test_streamed_run_memory_does_not_grow_with_the_snapshots(tmp_path):
    # the same 32^2 run with 11 and with 81 snapshots; one snapshot of n, p
    # and c is 24 KiB, so a kept history grows by 70 of them
    snapshot = 3 * 32 * 32 * 8
    few, many = stream_2d(32, 11), stream_2d(32, 81)
    limit.run_once(few, tmp_path / "warm")   # imports and caches
    streamed = (peak_bytes(lambda: limit.run_once(many, tmp_path / "b"))
                - peak_bytes(lambda: limit.run_once(few, tmp_path / "a")))
    held = peak_bytes(lambda: kept_run(many)) - peak_bytes(lambda: kept_run(few))
    assert held > 60 * snapshot
    # what grows is a few scalars per snapshot: the series and the manifest
    assert abs(streamed) < 8 * snapshot


def test_zero_horizon_run_writes_its_one_snapshot(tmp_path, capsys):
    text = STREAM_1D.replace("horizon = 0.2", "horizon = 0")
    traj, report, _, run_dir = limit.run_once(config.parse_config_text(text, env={}),
                                              tmp_path / "once")
    assert len(traj) == 1 and len(report.series["t"]) == 1
    cfg_path = tmp_path / "zero.cfg"
    cfg_path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "cli"),
                     "--assert"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert not [ln for ln in lines if ln.startswith("FAIL")]
    assert sum(ln.startswith("PASS") for ln in lines) >= 6
    for d in (run_dir, next((tmp_path / "cli").iterdir())):
        manifest = json.loads((d / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["snapshots"] == 1 and manifest["times"] == [0.0]
        assert (d / "fields.bin").stat().st_size == 3 * 96 * 8
        loaded = runio.load_trajectory(d)
        assert len(loaded) == 1 and np.array_equal(loaded.n[0], traj.n[0])
        assert loaded.meta["steps"] == 0
