"""Exact small-instance oracles for the lattice Cauchy problem.

Two independent routes to the same solution:

* ``dense_exponential_oracle`` applies the generator exponential to the
  initial indicator by scaling-and-squaring of a cancellation-free
  (uniformized) Taylor series with a certified remainder.
* ``path_sum_fk`` enumerates continuous-time walk paths and integrates the
  waiting times in closed form; the waiting-time integral over the time
  simplex equals the divided difference of s -> exp(t s) at the potential
  values along the path, which ``simplex_integral`` evaluates stably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .errors import ResourceCapError
from .potential import PotentialField
from .solver import build_generator

DEFAULT_ORACLE_SITE_LIMIT = 200
DEFAULT_PATH_BUDGET = 5_000_000
_SERIES_CAP = 800


def _dd_exp_rows(x: np.ndarray, t: float) -> np.ndarray:
    """Row-wise divided difference of exp(t s) over all nodes of each row.

    Works on the bidiagonal (Opitz) form: the divided difference equals the
    corner entry of exp(tJ) with the nodes on the diagonal of J and ones
    above it.  Shifting by the row minimum makes tJ entrywise nonnegative,
    so every Taylor term is nonnegative and the series never cancels; one
    term costs O(nodes) because only the first row of exp(tJ) is tracked.
    Confluent and clustered nodes need no special casing.  The plain
    divided-difference recurrence is catastrophically unstable here: paths
    revisit sites, and repeated nodes make intermediate table entries blow
    up while the result is tiny.
    """
    rows, m = x.shape
    xmin = x.min(axis=1)
    diag = t * (x - xmin[:, None])
    u = np.zeros_like(x)
    u[:, 0] = 1.0
    acc = u.copy()
    for k in range(1, _SERIES_CAP + 1):
        shifted = np.empty_like(u)
        shifted[:, 0] = 0.0
        shifted[:, 1:] = u[:, :-1]
        u = (u * diag + t * shifted) / k
        acc += u
        # converge against the corner entry (the output), which can sit many
        # orders below the rest of the row
        if k >= m and (u.max(axis=1) <= 1e-18 * acc[:, m - 1]).all():
            break
    return acc[:, m - 1] * np.exp(t * xmin)


def simplex_integral(etas, t: float) -> float:
    """Integral of exp(sum t_i eta_i + (t - sum t_i) eta_n) over the simplex
    {t_i >= 0, sum_{i<n} t_i < t}; equals the divided difference of
    s -> exp(t s) at the nodes, symmetric in the eta's and always positive.
    """
    x = np.asarray(etas, dtype=np.float64).ravel()
    if x.size == 0:
        raise ValueError("need at least one node")
    if not np.isfinite(x).all():
        raise ValueError("nodes must be finite")
    if not (t > 0.0 and math.isfinite(t)):
        raise ValueError("t must be positive and finite")
    return float(_dd_exp_rows(x[None, :], t)[0])


def uppb_bound_check(etas, t: float) -> bool:
    """True iff the simplex integral obeys its product upper bound.

    Requires the maximum node to be attained exactly once.  The bound is
    exp(t eta_k) / prod_{i != k} (eta_k - eta_i).
    """
    x = np.asarray(etas, dtype=np.float64).ravel()
    k = int(np.argmax(x))
    gaps = x[k] - np.delete(x, k)
    if not (gaps > 0.0).all():
        raise ValueError("maximum must be attained only once")
    lhs = simplex_integral(x, t)
    rhs = math.exp(t * x[k]) / np.prod(gaps)
    return lhs <= rhs * (1.0 + 1e-9)


# --- dense generator exponential ------------------------------------------------

@dataclass(frozen=True)
class OracleSolution:
    log_mass: float
    weights: np.ndarray
    remainder_bound: float  # certified relative truncation bound


def dense_exponential_oracle(f: PotentialField, t: float, *,
                             site_limit: int = DEFAULT_ORACLE_SITE_LIMIT
                             ) -> OracleSolution:
    """exp(t(Delta+xi)) applied to the origin indicator, certified.

    Shifting by the minimal diagonal entry makes every Taylor term
    nonnegative (no cancellation); scaling-and-squaring keeps the series
    short.  The certified truncation bound is propagated through the
    squarings and must come out below 1e-12.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    n = geometry.ball_size(f.dimension, f.radius)
    if n > site_limit:
        raise ResourceCapError(f"{n} sites exceed the oracle limit {site_limit}")
    origin = 0  # canonical index of the origin
    if t == 0.0:
        w = np.zeros(n)
        w[origin] = 1.0
        return OracleSolution(0.0, w, 0.0)
    a = build_generator(f).as_dense()
    mu = float(a.diagonal().min())
    b = a - mu * np.eye(n)  # entrywise nonnegative
    norm = float(np.abs(b).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(max(norm * t, 1e-300) / 0.5)))
    m = b * (t / (1 << squarings))
    theta = norm * t / (1 << squarings)
    term = np.eye(n)
    e = np.eye(n)
    k = 0
    rem = math.inf
    while rem > 1e-17:
        k += 1
        term = term @ m / k
        e = e + term
        # geometric tail of the scalar majorant series
        ratio = theta / (k + 1)
        rem = (theta ** (k + 1) / math.factorial(k + 1)) / max(1e-300, 1.0 - ratio) \
            if ratio < 1.0 else math.inf
        if k > 120:
            break
    bound = rem * (1 << squarings) * math.e  # growth through the squarings
    for _ in range(squarings):
        e = e @ e
        scale = e.max()
        if not np.isfinite(scale):
            raise ResourceCapError("oracle overflow; box or time too large")
    u = e[:, origin]
    mass = float(u.sum())
    return OracleSolution(log_mass=t * mu + math.log(mass),
                          weights=u / mass,
                          remainder_bound=float(bound))


# --- Feynman-Kac path sum -------------------------------------------------------

@dataclass(frozen=True)
class PathSumResult:
    """Truncated path expansion of the solution, with a certified tail."""

    values: np.ndarray      # per-site solution values, canonical order
    tail_bound: float       # certified bound on the truncated remainder
    paths: int              # number of enumerated paths
    max_jumps: int

    def value_at(self, d: int, site) -> float:
        return float(self.values[int(geometry.rank(d, np.asarray(site)))])


def _poisson_tail_bound(lam: float, n: int) -> float:
    """Certified upper bound on P(Poisson(lam) > n)."""
    if n + 2 <= lam:
        return 1.0
    log_term = -lam + (n + 1) * math.log(lam) - math.lgamma(n + 2)
    return min(1.0, math.exp(log_term) / (1.0 - lam / (n + 2)))


def path_sum_all(f: PotentialField, t: float, max_jumps: int, *,
                 path_budget: int = DEFAULT_PATH_BUDGET) -> PathSumResult:
    """Sum the walk expansion over every path with at most ``max_jumps`` jumps.

    Each n-jump path contributes exp(-2dt) times the divided difference of
    exp(t s) at the potential values it visits; paths are enumerated level
    by level and never leave the field's ball (consistent with the Dirichlet
    oracle).  The tail bound exp(t max xi) P(Poisson(2dt) > N) certifies the
    truncation of the full expectation.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    d = f.dimension
    box = geometry.build_box(d, f.radius)
    n = box.size
    damp = math.exp(-2 * d * t)
    acc = np.zeros(n)
    paths = np.zeros((1, 1), dtype=np.int64)  # start at the origin
    total_paths = 1
    acc[0] += damp * math.exp(t * float(f.values[0]))
    for _ in range(max_jumps):
        last = paths[:, -1]
        nbrs = box.nbr[last]                      # (P, 2d)
        ok = nbrs < n
        rows = np.repeat(np.arange(paths.shape[0]), 2 * d)[ok.ravel()]
        ext = nbrs.ravel()[ok.ravel()]
        paths = np.concatenate([paths[rows], ext[:, None]], axis=1)
        total_paths += paths.shape[0]
        if total_paths > path_budget:
            raise ResourceCapError(
                f"path enumeration exceeded budget {path_budget}")
        etas = f.values[paths]
        contrib = damp * _dd_exp_rows(etas, t)
        np.add.at(acc, paths[:, -1], contrib)
    tail = math.exp(t * float(f.values.max())) * _poisson_tail_bound(
        2 * d * t, max_jumps)
    return PathSumResult(values=acc, tail_bound=tail, paths=total_paths,
                         max_jumps=max_jumps)


def path_sum_fk(f: PotentialField, t: float, site, max_jumps: int, *,
                path_budget: int = DEFAULT_PATH_BUDGET) -> tuple[float, float]:
    """Solution value at one site from the truncated path expansion."""
    res = path_sum_all(f, t, max_jumps, path_budget=path_budget)
    return res.value_at(f.dimension, site), res.tail_bound
