"""Normalized log-domain integration of the lattice Cauchy problem.

The raw solution u = exp(tA) delta_0 grows superexponentially, so the
integrator carries the normalized profile w = u / sum(u) and log U, the log
of the total mass.  A is the truncated generator (Dirichlet outside the box).

The method is uniformization.  With mu the smallest diagonal entry of A,
B = A - mu I has no negative entries, so exp(tA) = exp(t mu) exp(tB) and the
Taylor series of exp(tB) w sums nonnegative terms without cancellation.
[0, t_end] is cut into substeps of length at most SUBSTEP_NORM / Lambda,
where Lambda = max diag(B) + 2d bounds the l1 norm of B, and every output
time is a substep end.  On each substep the series stops at the first term
whose geometric tail bound falls below tol * 1e-6 in l1, an absolute bound
against the normalized mass of one; w is then renormalized and log U grows
by the log of the sum plus tau * mu.  The probability flux through the outer
shell is bounded per substep, so an undersized box is detectable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import geometry
from .config import parse_box_policy
from .errors import NumericalError
from .potential import PotentialField

TOL_MIN, TOL_MAX = 1e-12, 1e-4
SUBSTEP_NORM = 16.0  # tau * Lambda per substep; bounds each series' terms


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
    nbr: np.ndarray          # (n, 2d) Fortran order, sentinel n if missing
    out_degree: np.ndarray

    @property
    def size(self) -> int:
        return self.diag.shape[0]

    def apply(self, v: np.ndarray) -> np.ndarray:
        ext = np.append(v, 0.0)
        out = self.diag * v
        for col in self.nbr.T:  # contiguous columns: one gather each
            out += ext[col]
        return out

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
    accepted_steps: int  # substeps of the series
    matvecs: int
    boundary_mass_bound: float

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


def integrate(f: PotentialField, t_end: float, output_times=None,
              tol: float = 1e-9) -> Trajectory:
    """Integrate the normalized system on the field's box up to t_end.

    Substeps land exactly on every requested output time, so recorded
    profiles carry no interpolation error.  Raises NumericalError for a
    non-finite potential.
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
    if not np.isfinite(op.diag).all():
        raise NumericalError("non-finite potential")
    d = f.dimension
    shell = np.nonzero(op.out_degree > 0)[0]
    shell_deg = op.out_degree[shell]
    mu = float(op.diag.min())
    b = replace(op, diag=op.diag - mu)  # B = A - mu I, no negative entries
    lam = float(b.diag.max()) + 2 * d  # bounds the l1 norm of B
    atol = tol * 1e-6

    w = np.zeros(op.size)
    w[0] = 1.0  # origin indicator; canonical index 0 is the origin
    t = log_mass = flux = 0.0
    substeps = matvecs = 0
    profiles = []
    pending = list(outputs)

    def record(time):
        profiles.append(SolutionProfile(
            time=time, log_mass=log_mass, weights=w.copy(),
            dimension=d, radius=f.radius))

    while pending and pending[0] <= 0.0:
        record(pending.pop(0))
    while t < t_end:
        target = pending[0] if pending else t_end
        tau = min(SUBSTEP_NORM / lam, target - t)
        term, acc = w, w.copy()
        k, tail = 0, math.inf
        while tail > atol:
            k += 1
            term = b.apply(term) * (tau / k)
            acc += term
            # each later term is at most x times the one before it in l1,
            # so a geometric series bounds the dropped tail
            x = tau * lam / (k + 1)
            if x < 1.0:
                tail = float(term.sum()) * x / (1.0 - x)
        matvecs += k
        substeps += 1
        # every term is nonnegative and the normalizer is at least one, so
        # the shell weight at the substep end bounds it along the substep
        flux += tau * (float(acc[shell] @ shell_deg) + 2 * d * tail)
        total = float(acc.sum())
        w = acc / total
        log_mass += math.log(total) + tau * mu
        if tau == target - t:
            t = target
            if pending:
                record(pending.pop(0))
        else:
            t += tau
    return Trajectory(profiles=profiles, accepted_steps=substeps,
                      matvecs=matvecs, boundary_mass_bound=flux)


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
