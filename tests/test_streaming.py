"""A run with an output directory streams: each snapshot goes to fields.bin
and to the monitor pass as the run reaches it, and no history is kept."""

import tracemalloc

import numpy as np
import pytest

from tumorhs import config, limit, monitors, runio

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
    held, want, _, _ = limit.run_once(cfg)
    streamed, got, _, run_dir = limit.run_once(cfg, out_root=tmp_path)
    size = monitors._BLOCK_CELLS // held.n[0].size
    assert 1 < size < len(held) and len(held) % size != 0
    for part in ("series", "accum", "meta", "extremes"):
        assert_same_bytes(getattr(want, part), getattr(got, part), part)
    # the streamed trajectory holds the first and the last snapshot of the
    # run and its whole dt record; fields.bin holds every snapshot
    assert np.array_equal(streamed.times, held.times[[0, -1]])
    for name in ("n", "p", "c", "snap_dts"):
        assert np.array_equal(getattr(streamed, name), getattr(held, name)[[0, -1]]), name
    assert np.array_equal(streamed.dts, held.dts)
    assert streamed.meta["steps"] == held.meta["steps"]
    loaded = runio.load_trajectory(run_dir)
    assert np.array_equal(loaded.times, held.times)
    for name in ("n", "p", "c"):
        assert np.array_equal(getattr(loaded, name), getattr(held, name)), name


def peak_bytes(cfg, out_root) -> int:
    tracemalloc.start()
    try:
        limit.run_once(cfg, out_root=out_root)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_streamed_run_memory_does_not_grow_with_the_snapshots(tmp_path):
    # the same 32^2 run with 11 and with 81 snapshots; one snapshot of n, p
    # and c is 24 KiB, so a held history grows by 70 of them
    snapshot = 3 * 32 * 32 * 8
    few, many = stream_2d(32, 11), stream_2d(32, 81)
    limit.run_once(few, out_root=tmp_path / "warm")   # imports and caches
    streamed = peak_bytes(many, tmp_path / "b") - peak_bytes(few, tmp_path / "a")
    held = peak_bytes(many, None) - peak_bytes(few, None)
    assert held > 60 * snapshot
    # what grows is a few scalars per snapshot: the series and the manifest
    assert abs(streamed) < 8 * snapshot
