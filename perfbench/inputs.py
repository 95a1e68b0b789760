"""Seeded input generator: every matrix the benchmark hands to the program.

Plain numpy, independent of the package's own generators, so that no change
to the package changes the inputs.  Each random CM's discord branch is read
off its invariants, so every round holds a fixed number on each branch.  The
same seed gives the same inputs.
"""

import numpy as np

from refcheck import balanced_split_cm

# The paper's two experimental runs: input variances after modulation
# (gamma-units), squeezing of the quantum part and the detectors'
# common-mode-rejection noise.
COHERENT_RUN = {"kind": "coherent", "squeezing_db": 0.0, "v_x": 7.1, "v_p": 1.0}
SQUEEZED_RUN = {"kind": "squeezed", "squeezing_db": -3.0, "v_x": 9.84, "v_p": 38.4}
CMR = {"coherent": 3.9e-3, "squeezed": 0.047}

# The paper's measured split-squeezed CM (modes A, B) and its one-sigma errors.
MEASURED_CM = np.array([
    [5.42, 0.23, 4.06, 0.04],
    [0.23, 19.28, 0.45, 17.29],
    [4.06, 0.45, 4.73, 0.55],
    [0.04, 17.29, 0.55, 17.70],
])
MEASURED_CM_ERRORS = np.array([
    [0.05, 0.02, 0.03, 0.01],
    [0.02, 0.17, 0.01, 0.15],
    [0.03, 0.01, 0.04, 0.02],
    [0.01, 0.15, 0.02, 0.16],
])
MEASURED_DISCORD = 0.49
MEASURED_PPT_MIN_EIG = 0.84

# Random CMs drawn from this fixed stream appear in every run.  On
# homodyne-case CMs the oracle's cost jumps between about 0.1 s and 1.6 s
# under any change of the input, even a local rotation, so seeded draws of
# them would move the round time and its tail from seed to seed.  All of them
# come from this stream; the seed draws heterodyne-case CMs, whose cost
# stays within 0.08-0.16 s.
CORE_SEED = 14116922


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _local(rng, z_max):
    z = rng.uniform(-z_max, z_max)
    return (_rotation(rng.uniform(0, 2 * np.pi)) @ np.diag([np.exp(z), np.exp(-z)])
            @ _rotation(rng.uniform(0, 2 * np.pi)))


def _beamsplitter(t):
    a, b = np.sqrt(t), np.sqrt(1 - t)
    one = np.eye(2)
    return np.block([[a * one, b * one], [b * one, -a * one]])


def random_two_mode_cm(rng, nus=None, t_range=(0.05, 0.95)):
    """S diag(nu1, nu1, nu2, nu2) S^T, S = local ops, beamsplitter, local ops.

    Thermal values nu in [1, 2.5] and local squeezing |z| <= 0.6 unless nus
    is given.
    """
    if nus is None:
        nus = rng.uniform(1.0, 2.5, 2)
    inner = np.zeros((4, 4))
    outer = np.zeros((4, 4))
    for k in range(2):
        inner[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _local(rng, 0.6)
        outer[2 * k:2 * k + 2, 2 * k:2 * k + 2] = _local(rng, 0.6)
    s = outer @ _beamsplitter(rng.uniform(*t_range)) @ inner
    g = s @ np.diag(np.repeat(nus, 2)) @ s.T
    return (g + g.T) / 2


def near_pure_pair(rng, tag):
    """Mode B pure but for the 0.1-1% of mode A's thermal noise a beamsplitter leaks in."""
    g = random_two_mode_cm(rng, nus=(rng.uniform(1.2, 2.5), 1.0), t_range=(0.99, 0.999))
    return (f"{tag}-nearpure/B", g, 1)


def branch(g, measured_mode):
    """Adesso-Datta branch label from the invariants, measured mode in the beta slot."""
    kept = 1 - measured_mode
    a = np.linalg.det(g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2])
    b = np.linalg.det(g[2 * measured_mode:2 * measured_mode + 2,
                        2 * measured_mode:2 * measured_mode + 2])
    c = np.linalg.det(g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2])
    d = np.linalg.det(g)
    return "heterodyne-case" if (d - a * b) ** 2 <= (1 + b) * c * c * (a + d) else "homodyne-case"


def random_pairs(rng, heterodyne, homodyne, tag):
    """(item id, CM, measured mode) with the given number of items on each branch."""
    quota = {"heterodyne-case": heterodyne, "homodyne-case": homodyne}
    out = []
    while any(quota.values()):
        g = random_two_mode_cm(rng)
        mode = int(rng.integers(0, 2))
        label = branch(g, mode)
        if quota[label]:
            quota[label] -= 1
            out.append((f"{tag}-{label[:3]}-{len(out)}/{'AB'[mode]}", g, mode))
    return out


def stratified_grid(rng, n, hi=1.0, lo=0.2):
    """n transmittances from hi down to lo, one uniform draw per equal stratum."""
    return hi - (hi - lo) * (np.arange(n) + rng.uniform(0, 1, n)) / n


def oracle_items(seed, near_pure=2, curve_points=5):
    """(item id, CM, measured mode) pairs of the oracle audit.

    Random CMs, 8 on each branch (4 heterodyne-case ones seeded), two CMs
    whose measured mode is nearly pure, the noisy CMs along both
    discord-versus-loss curves measured on either mode, and the measured CM
    on either mode.
    """
    rng = np.random.default_rng(seed)
    core = np.random.default_rng(CORE_SEED)
    items = random_pairs(core, 4, 8, "core")
    items += [near_pure_pair(core, f"core-{k}") for k in range(near_pure)]
    items += random_pairs(rng, 4, 0, "rand")
    for run in (COHERENT_RUN, SQUEEZED_RUN):
        for t in stratified_grid(rng, curve_points):
            g = balanced_split_cm(run["v_x"], run["v_p"], t, CMR[run["kind"]])
            for mode in (0, 1):
                items.append((f"{run['kind']}-t{t:.4f}/{'AB'[mode]}", g, mode))
    items += [("measured/A", MEASURED_CM, 0), ("measured/B", MEASURED_CM, 1)]
    order = rng.permutation(len(items))
    return [items[i] for i in order]


def symmetric_lossy_tmsv(squeezing_db, eta):
    """Two-mode squeezed vacuum with power transmittance eta on both modes."""
    r = -squeezing_db / 10.0 * np.log(10.0) / 2.0
    m = np.cosh(2 * r)
    c = np.sinh(2 * r)
    g = np.block([[m * np.eye(2), c * np.diag([1.0, -1.0])],
                  [c * np.diag([1.0, -1.0]), m * np.eye(2)]])
    return eta * g + (1 - eta) * np.eye(4)


def separable_cm(rng, n_noise=3):
    """Product of pure squeezed states plus classical noise: PPT-separable."""
    g = np.zeros((4, 4))
    for k in range(2):
        z = rng.uniform(-0.4, 0.4)
        r = _rotation(rng.uniform(0, 2 * np.pi))
        g[2 * k:2 * k + 2, 2 * k:2 * k + 2] = r @ np.diag([np.exp(2 * z), np.exp(-2 * z)]) @ r.T
    for _ in range(n_noise):
        v = rng.normal(0, 1, 4)
        g += rng.uniform(0.1, 3.0) * np.outer(v, v)
    return (g + g.T) / 2
