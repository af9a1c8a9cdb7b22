"""Monte-Carlo ensembles over potential seeds and limit-law tests.

Every ensemble is a pure function of (master seed, parameters): per-seed
work items draw their field seed from a counter-based split of the master
seed, so results are identical under any execution schedule.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import randomness
from .errors import NumericalError
from .geometry import encode_sites
from .potential import certify, sample_dense, sparse_top_k
from .solver import choose_box_radius, integrate, mass_within
from .variational import (certified_lower_index, default_sparse_threshold,
                          psi_top2, require_certified, scale, sparse_start)

# ensemble kind -> seed-derivation tag (keeps kinds independent); gap and
# location share tag 11, as both read the same penalized-potential fields
_KIND_TAG = {"gap": 11, "location": 11, "gumbel": 13,
             "concentration": 14, "disconnected": 15}


@dataclass(frozen=True)
class LimitLaw:
    """A reference limit law with an exact CDF.

    gumbel_pam(d):     F(x) = exp(-2^d exp(-x + 2d))
    std_exponential:   F(x) = 1 - exp(-x) for x >= 0
    laplace_product:   per-coordinate F of density exp(-|x|)/2
    uniform01:         F(x) = x on [0, 1]
    """

    kind: str
    dimension: int = 1

    def __post_init__(self):
        if self.kind not in ("gumbel_pam", "std_exponential",
                             "laplace_product", "uniform01"):
            raise ValueError(f"unknown law {self.kind!r}")


def law_cdf(law: LimitLaw, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if law.kind == "gumbel_pam":
        d = law.dimension
        return np.exp(-(2.0 ** d) * np.exp(-x + 2.0 * d))
    if law.kind == "std_exponential":
        return np.where(x < 0.0, 0.0, 1.0 - np.exp(-np.maximum(x, 0.0)))
    if law.kind == "laplace_product":
        return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)),
                        1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
    return np.clip(x, 0.0, 1.0)


def kolmogorov_pvalue(lam: float, *, tail: float = 1e-10) -> float:
    """Asymptotic Kolmogorov tail 2 sum (-1)^{k-1} exp(-2 k^2 lam^2).

    The alternating series is truncated once the next term drops below
    ``tail``; clamped into [0, 1].
    """
    if lam <= 0.0:
        return 1.0
    total = 0.0
    sign = 1.0
    for k in range(1, 100_000):
        term = 2.0 * math.exp(-2.0 * k * k * lam * lam)
        if term < tail:
            break
        total += sign * term
        sign = -sign
    return min(1.0, max(0.0, total))


def ks_test(samples, law: LimitLaw) -> tuple[float, float]:
    """One-sample Kolmogorov-Smirnov distance and asymptotic p-value."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.shape[0]
    if n < 8:
        raise ValueError("need at least 8 samples")
    if not np.isfinite(x).all():
        raise NumericalError("samples must be finite")
    cdf = law_cdf(law, x)
    i = np.arange(1, n + 1)
    d_plus = (i / n - cdf).max()
    d_minus = (cdf - (i - 1) / n).max()
    d = float(max(d_plus, d_minus))
    return d, kolmogorov_pvalue(math.sqrt(n) * d)


@dataclass
class EnsembleRecord:
    """Per-seed samples of one statistic plus its test results."""

    statistic: str
    dimension: int
    t: Optional[float]
    sampler: str
    master_seed: int
    field_seeds: list
    samples: np.ndarray          # (N,) or (N, d) or (N, len(t_grid))
    tests: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def to_jsonl(self) -> str:
        lines = []
        for i, fs in enumerate(self.field_seeds):
            sample = self.samples[i]
            value = sample.tolist() if isinstance(sample, np.ndarray) else sample
            lines.append(json.dumps(
                {"seed_index": i, "field_seed": fs, "sample": value},
                sort_keys=True))
        return "\n".join(lines) + "\n"

    def summary_json(self) -> str:
        return json.dumps({
            "statistic": self.statistic,
            "d": self.dimension,
            "t": self.t,
            "sampler": self.sampler,
            "master_seed": self.master_seed,
            "n_seeds": len(self.field_seeds),
            "tests": self.tests,
            "meta": self.meta,
        }, sort_keys=True)


def ecdf_csv(samples, law: LimitLaw) -> str:
    """Table (x, F_N(x), F(x)) of the empirical vs reference CDF."""
    x = np.sort(np.asarray(samples, dtype=np.float64).ravel())
    n = x.shape[0]
    ref = law_cdf(law, x)
    rows = ["x,F_N,F"]
    for i in range(n):
        rows.append(f"{float(x[i])!r},{(i + 1) / n!r},{float(ref[i])!r}")
    return "\n".join(rows) + "\n"


def _map_seeds(fn, n_seeds: int, threads: int = 1) -> list:
    """Apply fn(seed_index) for every index; schedule-independent output."""
    if threads <= 1:
        return [fn(i) for i in range(n_seeds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, range(n_seeds)))


# --- penalized-potential ensembles (gap and location share the work) ---------

def _psi_ensemble(d: int, t: float, n_seeds: int, master_seed: int, *,
                  threshold: Optional[float] = None, threads: int = 1,
                  annulus_variant: bool = False):
    field_seeds = [randomness.spawn_seed(master_seed, _KIND_TAG["gap"], i)
                   for i in range(n_seeds)]
    r, u0 = sparse_start(t, d, threshold)

    def work(i):
        f, top = certify(lambda sf: require_certified(psi_top2(sf, t)),
                         d, r, u0, field_seeds[i])
        alt_gap = math.nan
        if annulus_variant:
            alt_gap = psi_top2(f, t, annulus_only=True).gap
        return top.site1, top.gap, f.threshold, alt_gap

    rows = _map_seeds(work, n_seeds, threads)
    sites = np.array([r[0] for r in rows], dtype=np.float64)
    gaps = np.array([r[1] for r in rows])
    thresholds = [r[2] for r in rows]
    alt_gaps = np.array([r[3] for r in rows])
    return field_seeds, sites, gaps, thresholds, alt_gaps


def gap_ensemble(d: int, t: float, n_seeds: int, master_seed: int, *,
                 threshold: Optional[float] = None, threads: int = 1,
                 annulus_variant: bool = True) -> EnsembleRecord:
    """Spacing between the two largest penalized-potential values.

    The limiting law of the gap is standard exponential; the record carries
    a KS test against it, plus the annulus-restricted variant of the same
    statistic for comparison.
    """
    seeds, _, gaps, thresholds, alt = _psi_ensemble(
        d, t, n_seeds, master_seed, threshold=threshold, threads=threads,
        annulus_variant=annulus_variant)
    dist, p = ks_test(gaps, LimitLaw("std_exponential"))
    tests = {"ks_distance": dist, "ks_pvalue": p, "law": "std_exponential"}
    if annulus_variant:
        da, pa = ks_test(alt, LimitLaw("std_exponential"))
        tests["annulus_ks_distance"] = da
        tests["annulus_ks_pvalue"] = pa
    return EnsembleRecord(
        statistic="gap", dimension=d, t=t, sampler="sparse",
        master_seed=master_seed, field_seeds=seeds, samples=gaps,
        tests=tests,
        meta={"thresholds": sorted(set(thresholds)),
              "default_threshold": default_sparse_threshold(t, d)})


def location_ensemble(d: int, t: float, n_seeds: int, master_seed: int, *,
                      threshold: Optional[float] = None, threads: int = 1
                      ) -> EnsembleRecord:
    """Rescaled argmax site X / r_t of the penalized potential.

    Limit: independent coordinates, standard exponential magnitude with a
    uniform random sign.  Reports per-coordinate KS, the positive-sign
    fraction, and inter-coordinate correlations.
    """
    seeds, sites, _, thresholds, _ = _psi_ensemble(
        d, t, n_seeds, master_seed, threshold=threshold, threads=threads)
    r_t = scale(t, d).r_t
    samples = sites / r_t
    law = LimitLaw("laplace_product", d)
    per_coord = [ks_test(samples[:, a], law) for a in range(d)]
    nonzero = samples[samples != 0.0]
    sign_fraction = float((nonzero > 0).mean()) if nonzero.size else math.nan
    corr = []
    for a in range(d):
        for b in range(a + 1, d):
            corr.append(float(np.corrcoef(samples[:, a], samples[:, b])[0, 1]))
    return EnsembleRecord(
        statistic="location", dimension=d, t=t, sampler="sparse",
        master_seed=master_seed, field_seeds=seeds, samples=samples,
        tests={
            "ks_distance_per_coord": [c[0] for c in per_coord],
            "ks_pvalue_per_coord": [c[1] for c in per_coord],
            "sign_fraction": sign_fraction,
            "intercoordinate_correlation": corr,
            "law": "laplace_product",
        },
        meta={"r_t": r_t, "thresholds": sorted(set(thresholds))})


def gumbel_ensemble(d: int, t: float, n_seeds: int, master_seed: int, *,
                    proxy: str = "variational", threshold: Optional[float] = None,
                    tol: float = 1e-8, threads: int = 1) -> EnsembleRecord:
    """Centered growth-rate statistic against the Gumbel-type reference law.

    ``variational`` proxies the growth rate by (lower index - 2d); the
    ``solver`` proxy integrates the equation (t <= 200 for cost).  Finite-t
    convergence is at iterated-log rate, so records are labeled qualitative.
    """
    if proxy not in ("variational", "solver"):
        raise ValueError("proxy must be 'variational' or 'solver'")
    if proxy == "solver" and t > 200:
        raise ValueError("solver proxy is limited to t <= 200")
    field_seeds = [randomness.spawn_seed(master_seed, _KIND_TAG["gumbel"], i)
                   for i in range(n_seeds)]
    centering = d * math.log(t) - d * math.log(math.log(math.log(t)))

    def work(i):
        if proxy == "variational":
            v = certified_lower_index(t, d, field_seeds[i], threshold=threshold)
            return v - 2.0 * d - centering
        r = choose_box_radius(t, d)
        f = sample_dense(d, r, seed=field_seeds[i])
        traj = integrate(f, t, [t], tol=tol)
        return traj.profile_at(t).log_mass / t - centering

    samples = np.array(_map_seeds(work, n_seeds, threads))
    dist, p = ks_test(samples, LimitLaw("gumbel_pam", d))
    return EnsembleRecord(
        statistic="gumbel", dimension=d, t=t, sampler=proxy,
        master_seed=master_seed, field_seeds=field_seeds, samples=samples,
        tests={"ks_distance": dist, "ks_pvalue": p, "law": "gumbel_pam",
               "quality": "finite-t, logloglog-rate convergence - qualitative"},
        meta={"proxy": proxy, "centering": centering,
              "median": float(np.median(samples))})


def concentration_ensemble(d: int, t_grid, delta: float, n_seeds: int,
                           master_seed: int, *, tol: float = 1e-8,
                           threads: int = 1) -> EnsembleRecord:
    """Mass fraction within delta * r_t of the penalized-potential argmax.

    For each seed the equation is integrated once across the whole grid on
    the box sized for the largest time; the argmax is recomputed per time
    from the same field.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid:
        raise ValueError("t_grid must not be empty")
    r_box = choose_box_radius(t_grid[-1], d)
    field_seeds = [randomness.spawn_seed(
        master_seed, _KIND_TAG["concentration"], i) for i in range(n_seeds)]

    def work(i):
        f = sample_dense(d, r_box, seed=field_seeds[i])
        traj = integrate(f, t_grid[-1], t_grid, tol=tol)
        row = np.empty(len(t_grid))
        for j, tt in enumerate(t_grid):
            top = psi_top2(f, tt,
                           search_radius=min(choose_box_radius(tt, d), r_box))
            r_t = scale(tt, d).r_t
            row[j] = mass_within(traj.profile_at(tt), top.site1, delta * r_t)
        return row

    samples = np.vstack(_map_seeds(work, n_seeds, threads))
    medians = np.median(samples, axis=0)
    quartiles = [np.percentile(samples, [25, 75], axis=0)[k].tolist()
                 for k in range(2)]
    return EnsembleRecord(
        statistic="concentration", dimension=d, t=t_grid[-1], sampler="solver",
        master_seed=master_seed, field_seeds=field_seeds, samples=samples,
        tests={"median_per_t": medians.tolist(),
               "q25_per_t": quartiles[0], "q75_per_t": quartiles[1]},
        meta={"t_grid": t_grid, "delta": delta, "box_radius": r_box})


def disconnected_check(d: int, n: int, rho: float, n_seeds: int,
                       master_seed: int, *, threads: int = 1) -> EnsembleRecord:
    """Frequency with which the top-floor(n^rho) sites of B_n are pairwise
    non-adjacent (no two at l1 distance one)."""
    if not (0.0 < rho < 0.5):
        raise ValueError("rho must lie in (0, 1/2)")
    m = max(1, int(math.floor(n ** rho)))
    field_seeds = [randomness.spawn_seed(
        master_seed, _KIND_TAG["disconnected"], i) for i in range(n_seeds)]

    def work(i):
        st = sparse_top_k(d, n, m, field_seeds[i])
        return float(sites_disconnected(st.coords, n))

    samples = np.array(_map_seeds(work, n_seeds, threads))
    return EnsembleRecord(
        statistic="disconnected", dimension=d, t=None, sampler="sparse",
        master_seed=master_seed, field_seeds=field_seeds, samples=samples,
        tests={"frequency": float(samples.mean())},
        meta={"n": n, "rho": rho, "m": m})


def sites_disconnected(coords: np.ndarray, radius: int) -> bool:
    """True iff no two of the given sites are l1-adjacent."""
    if coords.shape[0] < 2:
        return True
    d = coords.shape[1]
    keys = set(encode_sites(coords, radius + 1).tolist())
    for axis in range(d):
        shifted = coords.copy()
        shifted[:, axis] += 1
        for key in encode_sites(shifted, radius + 1).tolist():
            if key in keys:
                return False
    return True
