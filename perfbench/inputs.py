"""Seeded benchmark inputs.

Every workload draws its inputs from a fixed library of entries, entry k
being generated from library seed k.  The run seed only chooses which
entries a run uses and in which order, so every seed maps onto inputs
for which a tight-tolerance reference is stored (see references/).
"""

from __future__ import annotations

import numpy as np

DT = 0.1
COURTEOUS_STEPS = 120   # 12 s: cruise, brake, low cruise, accelerate
EGOISTIC_STEPS = 400    # 40 s: about three such cycles

# Library entries per workload, and how many of them one run uses.  A
# courteous step costs from 23 to 56 ms depending on the profile, so any
# subset that fits in one run would measure the subset more than the
# code: a run sweeps the whole, small, library.  Egoistic steps vary by
# about 10% between profiles; four of sixteen keep runs within ~3% of
# each other.  Fit time varies about threefold between demonstration
# sets, so a run fits all of them.
LIBRARY = {"courteous": 3, "egoistic": 16, "irl-fit": 16}
PER_RUN = {"courteous": 3, "egoistic": 4, "irl-fit": 16}

# shipped synthetic profile range
SPEED_LOW = (6.0, 10.0)
SPEED_HIGH = (14.0, 22.0)

# a library salt per profile family keeps the two families independent
_FAMILY_SALT = {"courteous": 101, "egoistic": 202}


def lead_profile(rng: np.random.Generator, n_steps: int,
                 dt: float = DT) -> np.ndarray:
    """Piecewise-linear lead speeds: cruise, brake, low cruise, accelerate.

    Cycles repeat until the profile covers n_steps samples; steady
    cruising would wash the courtesy effect out of the episode, so every
    cruise phase is short.
    """
    horizon = n_steps * dt
    v = float(rng.uniform(*SPEED_HIGH))
    t_knots = [0.0]
    v_knots = [v]
    t = 0.0
    while t < horizon:
        t += float(rng.uniform(0.5, 2.0))           # cruise
        t_knots.append(t)
        v_knots.append(v)
        v_low = float(rng.uniform(*SPEED_LOW))
        t += (v - v_low) / float(rng.uniform(1.5, 3.0))   # brake
        t_knots.append(t)
        v_knots.append(v_low)
        t += float(rng.uniform(1.0, 3.0))           # low cruise
        t_knots.append(t)
        v_knots.append(v_low)
        v = float(rng.uniform(*SPEED_HIGH))
        t += (v - v_low) / float(rng.uniform(1.0, 2.0))   # accelerate
        t_knots.append(t)
        v_knots.append(v)
    return np.interp(np.arange(n_steps) * dt, t_knots, v_knots)


def library_profile(family: str, index: int) -> np.ndarray:
    """Lead profile of one library entry of a profile family."""
    n_steps = {"courteous": COURTEOUS_STEPS,
               "egoistic": EGOISTIC_STEPS}[family]
    rng = np.random.default_rng([_FAMILY_SALT[family], index])
    return lead_profile(rng, n_steps)


def pick_entries(seed: int, workload: str) -> list:
    """Library indices a run of the workload uses, in run order."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(LIBRARY[workload])
    return [int(k) for k in order[:PER_RUN[workload]]]
