"""Normalized log-domain integration of the lattice Cauchy problem.

The raw solution u grows superexponentially, so the integrator evolves the
normalized profile w = u / sum(u) together with log of the total mass:

    dw/dt      = A w - (1' A w) w
    dlogU/dt   = 1' A w

with A the truncated generator (Dirichlet outside the box).  Steps come
from an embedded Dormand-Prince 5(4) pair with a PI controller, a hard step
ceiling against the log-scale diagonal, and renormalization after every
accepted step.  The cumulative probability flux through the outer shell is
integrated alongside so an undersized box is detectable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .config import parse_box_policy
from .errors import NumericalError, StiffnessError
from .potential import PotentialField

TOL_MIN, TOL_MAX = 1e-12, 1e-4
STEP_CEILING_FACTOR = 0.5


def choose_box_radius(t: float, d: int, policy: str = "default") -> int:
    """Box radius large enough for the walks that matter up to time t.

    ``policy`` is a ``solver.box_policy`` config value: ``fixed:N`` gives
    radius N.  The default policy covers both the jump-count range (paths
    with more than t log t jumps contribute negligibly) and the diffusive
    bulk (2dt jumps plus ten standard deviations), with a floor of 20.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    fixed = parse_box_policy(policy)
    if fixed is not None:
        return fixed
    jumps = t * math.log(max(t, 3.0))
    diffusive = 2 * d * t + 10.0 * math.sqrt(2 * d * t) + 20.0
    return int(math.ceil(max(jumps, diffusive, 20.0)))


@dataclass(frozen=True)
class GeneratorOperator:
    """Truncated generator Delta + xi on B_r with Dirichlet condition."""

    dimension: int
    radius: int
    diag: np.ndarray         # xi(z) - 2d
    nbr: np.ndarray          # (n, 2d), sentinel n for missing neighbors
    out_degree: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        ext = np.append(v, 0.0)
        return self.diag * v + ext[self.nbr].sum(axis=1)

    def as_dense(self) -> np.ndarray:
        n = self.size
        a = np.zeros((n, n))
        np.fill_diagonal(a, self.diag)
        idx = np.arange(n)
        for col in range(self.nbr.shape[1]):
            nb = self.nbr[:, col]
            ok = nb < n
            a[idx[ok], nb[ok]] += 1.0
        return a


def build_generator(f: PotentialField) -> GeneratorOperator:
    box = geometry.build_box(f.dimension, f.radius)
    return GeneratorOperator(
        dimension=f.dimension,
        radius=f.radius,
        diag=f.values - 2.0 * f.dimension,
        nbr=box.nbr,
        out_degree=box.out_degree.astype(np.float64),
    )


@dataclass(frozen=True)
class SolutionProfile:
    """Normalized mass profile at one time: weights sum to one."""

    time: float
    log_mass: float
    weights: np.ndarray
    dimension: int
    radius: int

    @property
    def coords(self) -> np.ndarray:
        return geometry.build_box(self.dimension, self.radius).coords


@dataclass(frozen=True)
class Trajectory:
    profiles: list
    accepted_steps: int
    rejected_steps: int
    boundary_mass_bound: float
    clamped_weights: int
    max_clamped_magnitude: float

    def profile_at(self, t: float) -> SolutionProfile:
        for p in self.profiles:
            if p.time == t:
                return p
        raise KeyError(f"no profile recorded at t={t}")


def growth_rate(profile: SolutionProfile) -> float:
    """log U(t) / t."""
    if profile.time <= 0:
        raise ValueError("growth rate needs t > 0")
    return profile.log_mass / profile.time


def localization_site(profile: SolutionProfile) -> np.ndarray:
    """Site of the largest weight; value ties go to the lex-smallest site."""
    w = profile.weights
    top = w.max()
    cand = np.nonzero(w == top)[0]
    coords = geometry.unrank(profile.dimension, cand)
    keys = tuple(coords[:, a] for a in reversed(range(coords.shape[1])))
    return coords[np.lexsort(keys)[0]]


def mass_within(profile: SolutionProfile, center, radius: float) -> float:
    """Total weight within l1 distance ``radius`` of ``center``."""
    if radius < 0:
        raise ValueError("radius must be >= 0")
    center = np.asarray(center, dtype=np.int64)
    dist = np.abs(profile.coords - center[None, :]).sum(axis=1)
    return float(profile.weights[dist <= radius].sum())


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_ERR = _DP_B5 - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                             -92097 / 339200, 187 / 2100, 1 / 40])


def integrate(f: PotentialField, t_end: float, output_times=None,
              tol: float = 1e-9) -> Trajectory:
    """Integrate the normalized system on the field's box up to t_end.

    Steps land exactly on every requested output time, so recorded profiles
    carry no interpolation error.  Aborts on step-size underflow or any
    non-finite state.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}]")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if output_times is None:
        output_times = [t_end]
    outputs = sorted(set(float(t) for t in output_times))
    if outputs and (outputs[0] < 0 or outputs[-1] > t_end):
        raise ValueError("output times must lie in [0, t_end]")

    op = build_generator(f)
    n = op.size
    d = f.dimension
    shell = np.nonzero(op.out_degree > 0)[0]
    shell_deg = op.out_degree[shell]

    def rhs(y):
        w = y[:n]
        g = op.apply(w)
        s = g.sum()
        dy = np.empty_like(y)
        dy[:n] = g - s * w
        dy[n] = s
        dy[n + 1] = (w[shell] * shell_deg).sum()
        return dy

    y = np.zeros(n + 2)
    y[0] = 1.0  # origin indicator; canonical index 0 is the origin
    t = 0.0
    profiles = []
    pending = list(outputs)
    clamped = 0
    max_clamp = 0.0
    accepted = rejected = 0

    def record(tau):
        profiles.append(SolutionProfile(
            time=tau, log_mass=float(y[n]), weights=y[:n].copy(),
            dimension=d, radius=f.radius))

    while pending and pending[0] <= 0.0:
        record(pending.pop(0))

    h_max = STEP_CEILING_FACTOR / (float(f.values.max(initial=0.0)) + 2 * d)
    rtol = tol
    atol = tol * 1e-6
    h = h_max * 1e-3
    err_prev = 1.0
    k = np.empty((7, n + 2))
    k[0] = rhs(y)
    h_floor = max(1e-14, 1e-13 * max(t_end, 1.0))

    while t < t_end:
        target = pending[0] if pending else t_end
        h = min(h, h_max, target - t)
        if h <= 0:
            h = h_floor
        for stage in range(1, 6):
            ys = y + h * (k[:stage].T @ _DP_A[stage - 1])
            k[stage] = rhs(ys)
        y_new = y + h * (k[:6].T @ _DP_A[5])
        k[6] = rhs(y_new)
        err_vec = h * (k.T @ _DP_ERR)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean((err_vec / scale) ** 2)))
        if not np.isfinite(err) or not np.isfinite(y_new).all():
            raise NumericalError(f"non-finite state at t={t:.6g}, h={h:.3g}")
        if err <= 1.0:
            t_new = t + h
            w = y_new[:n]
            neg = w < 0.0
            if neg.any():
                clamped += int(neg.sum())
                max_clamp = max(max_clamp, float(-w[neg].min()))
                w[neg] = 0.0
            total = w.sum()
            y_new[:n] = w / total
            y_new[n] += math.log(total)
            y = y_new
            t = t_new
            accepted += 1
            if pending and t >= pending[0] - 1e-15 * max(1.0, t):
                t = pending.pop(0)
                record(t)
            k[0] = rhs(y)
            fac = 0.9 * err ** -0.12 * err_prev ** 0.04
            err_prev = max(err, 1e-10)
        else:
            rejected += 1
            fac = max(0.2, 0.9 * err ** -0.2)
        h = h * min(5.0, max(0.2, fac))
        if h < h_floor:
            raise StiffnessError(
                f"step size underflow at t={t:.6g} (h={h:.3g}, err={err:.3g})")
    return Trajectory(profiles=profiles, accepted_steps=accepted,
                      rejected_steps=rejected,
                      boundary_mass_bound=float(y[n + 1]),
                      clamped_weights=clamped,
                      max_clamped_magnitude=max_clamp)


def trajectory_to_jsonl(traj: Trajectory, deltas=(0.0,), radii=None) -> str:
    """One JSON object per output time: t, logMass, argmax, mass table."""
    lines = []
    for p in traj.profiles:
        site = localization_site(p)
        table = {}
        if radii:
            for r in radii:
                table[f"{r:g}"] = mass_within(p, site, r)
        lines.append(json.dumps({
            "t": p.time,
            "logMass": p.log_mass,
            "argmax": [int(c) for c in site],
            "mass_within": table,
        }, sort_keys=True))
    return "\n".join(lines) + "\n"
