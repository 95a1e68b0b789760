"""Reference computations the benchmark checks the program against.

Everything here is plain numpy, written apart from the package: symplectic
eigenvalues from eig(i Omega gamma), the bosonic entropy function, the
conditional-CM determinant of a Gaussian measurement seed, the symmetric-state
GEoF closed form of Giedke et al. (PRL 91, 107901, 2003), the balanced-split
covariance matrix of the paper's experiment and a CSV read-back.  Conventions
match the package: quadratures (x1, p1, x2, p2, ...), vacuum = identity,
entropies in nats.
"""

import csv

import numpy as np


def omega(n_modes):
    return np.kron(np.eye(n_modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def symplectic_eigenvalues(g):
    """Ascending symplectic eigenvalues: moduli of eig(i Omega gamma), paired."""
    g = np.asarray(g, dtype=float)
    ev = np.sort(np.abs(np.linalg.eigvals(1j * omega(g.shape[0] // 2) @ g)))
    return 0.5 * (ev[0::2] + ev[1::2])


def entropy_f(x):
    """f(x) = ((x+1)/2) ln((x+1)/2) - ((x-1)/2) ln((x-1)/2), with f(x <= 1) = 0."""
    if x <= 1.0:
        return 0.0
    up, down = (x + 1) / 2, (x - 1) / 2
    return float(up * np.log(up) - down * np.log(down))


def entropy(g):
    return sum(entropy_f(v) for v in symplectic_eigenvalues(g))


def mutual_information(g):
    """S(A) + S(B) - S(AB) of a two-mode CM."""
    g = np.asarray(g, dtype=float)
    return entropy(g[:2, :2]) + entropy(g[2:, 2:]) - entropy(g)


def single_mode_entropy(block):
    return entropy_f(float(np.sqrt(np.linalg.det(block))))


def seed_grid(theta_points=24, logs_points=13, s_max=1e6):
    """Measurement seeds (theta, s): heterodyne s = 1 and near-homodyne s = 1e+-6."""
    thetas = np.linspace(0.0, np.pi, theta_points, endpoint=False)
    s = np.exp(np.linspace(-np.log(s_max), np.log(s_max), logs_points))
    th, ss = np.meshgrid(thetas, s, indexing="ij")
    return th.ravel(), ss.ravel()


def conditional_dets(g, measured_mode, thetas, s):
    """det of alpha - delta (beta + sigma)^-1 delta^T for each seed (theta, s).

    sigma = R(theta) diag(s, 1/s) R(theta)^T sits on the measured mode; the
    2x2 inverse is written out so the whole grid is one broadcast pass.
    """
    g = np.asarray(g, dtype=float)
    kept = 1 - measured_mode
    a = g[2 * kept:2 * kept + 2, 2 * kept:2 * kept + 2]
    b = g[2 * measured_mode:2 * measured_mode + 2, 2 * measured_mode:2 * measured_mode + 2]
    d = g[2 * kept:2 * kept + 2, 2 * measured_mode:2 * measured_mode + 2]
    c, sn = np.cos(thetas), np.sin(thetas)
    inv_s = 1.0 / s
    m00 = b[0, 0] + c * c * s + sn * sn * inv_s
    m11 = b[1, 1] + sn * sn * s + c * c * inv_s
    m01 = b[0, 1] + c * sn * (s - inv_s)
    det_m = m00 * m11 - m01 * m01
    # delta M^-1 delta^T with M^-1 = [[m11, -m01], [-m01, m00]] / det_m
    q = (np.einsum("i,j->ij", d[:, 0], d[:, 0])[..., None] * m11
         - (np.einsum("i,j->ij", d[:, 0], d[:, 1])
            + np.einsum("i,j->ij", d[:, 1], d[:, 0]))[..., None] * m01
         + np.einsum("i,j->ij", d[:, 1], d[:, 1])[..., None] * m00) / det_m
    e = a[..., None] - q
    return e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]


def partial_transpose(g):
    """Flip the sign of p on the first mode."""
    flip = np.ones(np.asarray(g).shape[0])
    flip[1] = -1.0
    return np.asarray(g, dtype=float) * np.outer(flip, flip)


def symmetric_geof(g):
    """GEoF of a symmetric two-mode state from its smallest PT symplectic eigenvalue.

    E_F = f((1 + nu^2) / (2 nu)) for nu < 1, else 0 (Giedke et al. 2003).
    """
    nu = symplectic_eigenvalues(partial_transpose(g))[0]
    return entropy_f((1.0 + nu * nu) / (2.0 * nu)) if nu < 1.0 else 0.0


def balanced_split_cm(v_x, v_p, t=1.0, cmr=0.0):
    """(A, B') CM of a diag(v_x, v_p) input split 50:50, loss t on B, then CMR noise.

    Blocks (gamma_in + 1)/2 and (gamma_in - 1)/2; B' = t B + (1 - t) 1 and the
    cross block scales by sqrt(t); CMR adds diag(a, a, t a, t a).
    """
    g_in = np.diag([v_x, v_p])
    one = np.eye(2)
    g = np.zeros((4, 4))
    g[:2, :2] = (g_in + one) / 2
    g[2:, 2:] = t * (g_in + one) / 2 + (1 - t) * one
    g[:2, 2:] = g[2:, :2] = np.sqrt(t) * (g_in - one) / 2
    return g + np.diag([cmr, cmr, t * cmr, t * cmr])


def split_state_cm(v_x, v_p):
    """Three-mode (A, B, E) CM of the split state, E an untouched vacuum mode."""
    g = np.eye(6)
    g[:4, :4] = balanced_split_cm(v_x, v_p)
    return g


def duan_value(g, gain, sign=1):
    """Product criterion for (g x_A + s x_B, g p_A - s p_B); below 1 is entangled."""
    vx = np.array([gain, 0.0, sign, 0.0])
    vp = np.array([0.0, gain, 0.0, -sign])
    return float((vx @ g @ vx / 2) * (vp @ g @ vp / 2) / ((gain * gain + 1) ** 2 / 4))


def read_csv(path):
    """(header, float rows) of a CSV file with one header line."""
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, data


def cm_estimate(columns):
    """Gamma-unit CM estimate of raw quadrature columns: 2 x sample covariance."""
    return 2.0 * np.cov(np.asarray(columns, dtype=float).T, ddof=1)


def demodulated_split_cm(v_x, v_p, squeezing_db, gain):
    """(A, B) CM of the split squeezed input after subtracting the x record from x_B.

    The x modulation (variance v_x minus the squeezed quantum part) reaches
    x_A and x_B with amplitude sqrt(1/2) each; demodulation with gain g
    leaves -g sqrt(1/2) of it on x_B, so g x_A + x_B carries none.
    """
    s = 10.0 ** (squeezing_db / 10.0)
    half = np.sqrt(0.5)
    load = np.array([half, 0.0, -gain * half, 0.0])
    return balanced_split_cm(s, v_p) + (v_x - s) * np.outer(load, load)
