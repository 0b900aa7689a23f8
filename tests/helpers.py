"""Helpers shared by the test modules."""

import dataclasses

import numpy as np

from tumorhs import solver


def held_run(setup: solver.RunSetup) -> solver.Trajectory:
    """solver.run(setup) with a sink that keeps each snapshot: the run's
    trajectory with every snapshot in it."""
    states, snap_dts = [], []

    def keep(k, state, snap_dt):
        states.append(state)
        snap_dts.append(snap_dt)

    traj = solver.run(setup, sink=keep)
    return dataclasses.replace(
        traj, times=solver.snapshot_times(setup.T, setup.snapshot_dt),
        n=np.stack([s.n for s in states]), p=np.stack([s.p for s in states]),
        c=np.stack([s.c for s in states]), snap_dts=np.array(snap_dts))
