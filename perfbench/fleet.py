"""The seeded synthetic fleet every workload draws its inputs from.

Each meter has its own base level, a daily cycle with a morning and an
evening peak at meter-specific hours, a low night-time standby floor, and
whole standby stretches (nobody home) of a few hours on some days.  That
gives the symbol streams realistic run structure: long runs of the lowest
symbols at night and during standby, short runs around the peaks, so RLE
runs, ``match`` patterns and kNN neighbourhoods behave as on real fleets.

The program under test receives only the arrays built here.
"""

from __future__ import annotations

import numpy as np

SECONDS_PER_DAY = 86400


def readings(seed: int, n_meters: int, days: int, samples_per_day: int,
             stream: int = 0) -> np.ndarray:
    """``(n_meters, days * samples_per_day)`` non-negative power readings.

    ``stream`` derives an independent generator from the same seed, so
    one run can draw several fleets (the initial store, the appended days)
    that never share random numbers.
    """
    rng = np.random.default_rng([int(seed), int(stream)])
    n = days * samples_per_day
    hours = (np.arange(n) % samples_per_day) * (24.0 / samples_per_day)
    day_of = np.arange(n) // samples_per_day

    level = np.exp(rng.normal(5.0, 0.6, size=(n_meters, 1)))
    morning = rng.uniform(6.0, 9.0, size=(n_meters, 1))
    evening = rng.uniform(17.5, 21.5, size=(n_meters, 1))
    m_amp = rng.uniform(0.3, 1.2, size=(n_meters, 1))
    e_amp = rng.uniform(0.6, 2.0, size=(n_meters, 1))
    cycle = (
        0.6
        + m_amp * np.exp(-0.5 * ((hours - morning) / 1.2) ** 2)
        + e_amp * np.exp(-0.5 * ((hours - evening) / 1.8) ** 2)
    )
    night = (hours < 5.0) | (hours >= 23.5)
    standby = np.where(night[None, :], 0.15, 1.0)

    # Away stretches: on ~30 % of meter-days, 3-9 hours at standby draw.
    away_day = rng.random((n_meters, days)) < 0.3
    start = rng.uniform(8.0, 15.0, size=(n_meters, days))
    length = rng.uniform(3.0, 9.0, size=(n_meters, days))
    s = start[:, day_of]
    away = away_day[:, day_of] & (hours >= s) & (hours < s + length[:, day_of])
    standby = np.where(away, 0.1, standby)

    noise = rng.lognormal(0.0, 0.15, size=(n_meters, n))
    return level * cycle * standby * noise


def timestamps(days: int, samples_per_day: int) -> np.ndarray:
    """Sample times in seconds, from 0, for ``days`` days."""
    return np.arange(days * samples_per_day) * (SECONDS_PER_DAY / samples_per_day)
