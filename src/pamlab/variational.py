"""Growth indices and penalized-potential maximizers.

The lower index penalizes a site's potential by the travel cost
(|z|/t) log+ xi(z); the upper index uses (|z|/t)(loglog|z| + c) over the
annulus t/(log t)^2 <= |z| <= t log t.  The penalized potential
xi(z) - (|z|/t) loglog|z| drives the localization statistics; its top-two
maximizers and their gap feed the limit-law ensembles.

Conventions (documented deviations from the naive formulas):

* log+ in the lower index: with the literal log, the index diverges over
  infinite volume as xi -> 0 far away; log+ only lowers the value, so it
  stays a valid lower-bound certificate.
* the loglog penalty is clamped to zero for |z| <= 2 where it is undefined;
  the asymptotic regime |z| ~ t never sees the clamp.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import geometry
from .errors import SparseValidityError
from .potential import (DEFAULT_RECORD_CAP, EXPONENTIAL, DistributionSpec,
                        PotentialField, SparseExceedanceField, certify)
from .solver import choose_box_radius

T_DOMAIN_MIN = math.exp(math.e)  # iterated logs positive from here on

Field = Union[PotentialField, SparseExceedanceField]


@dataclass(frozen=True)
class ScaleFunctions:
    """Localization scale and growth-rate centering at one time."""

    t: float
    r_t: float
    centering: Optional[float]
    dimension: int
    family: str
    gamma: Optional[float] = None


def scale(t: float, d: int, family: str = "exponential",
          gamma: Optional[float] = None) -> ScaleFunctions:
    """r_t = t / loglog t (exponential) and the centering d log t - d logloglog t.

    The Weibull variant has the superballistic scale
    t (log t)^{1/gamma - 1} / loglog t; its centering is not defined here.
    """
    if not t > T_DOMAIN_MIN:
        raise ValueError(f"scale functions need t > e^e ~ {T_DOMAIN_MIN:.4f}")
    loglog = math.log(math.log(t))
    if family == "exponential":
        return ScaleFunctions(
            t=t, r_t=t / loglog,
            centering=d * math.log(t) - d * math.log(loglog),
            dimension=d, family=family)
    if family == "weibull":
        if not (gamma and 0 < gamma < 1):
            raise ValueError("weibull scale needs 0 < gamma < 1")
        r_t = t * math.log(t) ** (1.0 / gamma - 1.0) / loglog
        return ScaleFunctions(t=t, r_t=r_t, centering=None,
                              dimension=d, family=family, gamma=gamma)
    raise ValueError(f"no scale functions for family {family!r}")


def evlb_reference(t: float, d: int, eps: float) -> float:
    """Eventual lower-bound reference curve d log t - (d+1+eps) logloglog t."""
    if not t > T_DOMAIN_MIN:
        raise ValueError("reference curve needs t > e^e")
    return d * math.log(t) - (d + 1 + eps) * math.log(math.log(math.log(t)))


def _site_data(f: Field, search_radius: Optional[float]):
    """Values, l1 norms and coords of the scanned sites."""
    coords = f.coords
    norms = geometry.norm1(coords).astype(np.float64)
    values = f.values
    if search_radius is not None and search_radius < f.radius:
        keep = norms <= search_radius
        return values[keep], norms[keep], coords[keep]
    return values, norms, coords


def _certified_max(f: Field, penalized: np.ndarray, what: str) -> float:
    """Largest penalized value (-inf if none), certified for sparse input."""
    out = float(penalized.max()) if penalized.size else -math.inf
    if isinstance(f, SparseExceedanceField) and f.threshold > 0.0 \
            and out < f.threshold:
        raise SparseValidityError(
            f"{what}={out:.6g} below threshold {f.threshold:.6g}: an"
            " unseen site could dominate; lower the threshold")
    return out


def lower_index(f: Field, t: float,
                search_radius: Optional[float] = None) -> float:
    """max over scanned sites of xi(z) - (|z|/t) log+ xi(z)."""
    if t <= 0:
        raise ValueError("t must be > 0")
    values, norms, _ = _site_data(f, search_radius)
    penalized = values - norms / t * np.maximum(np.log(values), 0.0)
    return _certified_max(f, penalized, "lower index")


def upper_index(f: Field, t: float, c: float,
                search_radius: Optional[float] = None) -> float:
    """max of xi(z) - (|z|/t)(loglog|z| + c) over the standard annulus.

    Annulus: max(3, t/(log t)^2) <= |z| <= t log t (inner radius floored so
    loglog is defined).  Returns -inf when the scanned annulus is empty
    (a sparse field with a positive threshold raises instead).
    """
    if t < 20:
        raise ValueError("upper index needs t >= 20")
    values, norms, _ = _site_data(f, search_radius)
    inner = max(3.0, t / math.log(t) ** 2)
    outer = t * math.log(t)
    keep = (norms >= inner) & (norms <= outer)
    nz = norms[keep]
    penalized = values[keep] - nz / t * (np.log(np.log(nz)) + c)
    return _certified_max(f, penalized, "upper index")


def penalized_potential(values: np.ndarray, norms: np.ndarray,
                        t: float) -> np.ndarray:
    """xi(z) - (|z|/t) loglog|z|, with the penalty zero for |z| <= 2."""
    pen = np.zeros_like(values)
    far = norms >= 3.0
    pen[far] = norms[far] / t * np.log(np.log(norms[far]))
    return values - pen


@dataclass(frozen=True)
class TopTwo:
    """Top two penalized-potential sites, their values, and the gap."""

    site1: np.ndarray
    value1: float
    site2: np.ndarray
    value2: float
    gap: float
    search_radius: float
    threshold: Optional[float]  # sparse threshold, when applicable
    certified: bool             # both values above the threshold


def psi_top2(f: Field, t: float, search_radius: Optional[float] = None,
             annulus_only: bool = False) -> TopTwo:
    """Top two maximizers of the penalized potential, lex tie rule.

    For sparse input the result is certified only when both values clear
    the sampling threshold (an unseen site has penalized value at most its
    potential, hence at most the threshold).  ``annulus_only`` restricts the
    scan to the upper-index annulus (a reporting variant).
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    values, norms, coords = _site_data(f, search_radius)
    if annulus_only:
        inner = max(3.0, t / math.log(t) ** 2)
        keep = (norms >= inner) & (norms <= t * math.log(t))
        values, norms, coords = values[keep], norms[keep], coords[keep]
    if values.size < 2:
        raise SparseValidityError(
            "need at least two scanned sites for a top-two result")
    pen = penalized_potential(values, norms, t)
    # top-2 with lex order among ties
    part = np.argpartition(-pen, 1)[:2]
    cutoff = pen[part].min()
    cand = np.nonzero(pen >= cutoff)[0]
    keys = tuple(coords[cand][:, a] for a in
                 reversed(range(coords.shape[1]))) + (-pen[cand],)
    order = np.lexsort(keys)[:2]
    i1, i2 = cand[order[0]], cand[order[1]]
    thr = f.threshold if isinstance(f, SparseExceedanceField) else None
    certified = thr is None or thr <= 0.0 or pen[i2] >= thr
    radius = float(search_radius if search_radius is not None else f.radius)
    return TopTwo(site1=coords[i1].copy(), value1=float(pen[i1]),
                  site2=coords[i2].copy(), value2=float(pen[i2]),
                  gap=float(pen[i1] - pen[i2]), search_radius=radius,
                  threshold=thr, certified=bool(certified))


def default_sparse_threshold(t: float, d: int) -> float:
    """d log r_t - 5: a handful of expected records per unit of intensity."""
    return max(0.0, d * math.log(scale(t, d).r_t) - 5.0)


def sparse_start(t: float, d: int, threshold: Optional[float] = None
                 ) -> tuple[int, float]:
    """Scan-box radius and starting threshold of the sparse field for time t."""
    u0 = default_sparse_threshold(t, d) if threshold is None else threshold
    return choose_box_radius(t, d), u0


def require_certified(top: TopTwo) -> TopTwo:
    """``top`` itself; raises when an unseen site could displace it."""
    if not top.certified:
        raise SparseValidityError("top-two below sparse threshold")
    return top


def certified_top2(t: float, d: int, seed: int, *,
                   spec: DistributionSpec = EXPONENTIAL,
                   threshold: Optional[float] = None,
                   record_cap: int = DEFAULT_RECORD_CAP,
                   annulus_only: bool = False) -> TopTwo:
    """Top-two penalized sites from sparse sampling, certified by ``certify``."""
    r, u0 = sparse_start(t, d, threshold)
    return certify(
        lambda f: require_certified(psi_top2(f, t, annulus_only=annulus_only)),
        d, r, u0, seed, spec=spec, record_cap=record_cap)[1]


def certified_lower_index(t: float, d: int, seed: int, *,
                          spec: DistributionSpec = EXPONENTIAL,
                          threshold: Optional[float] = None,
                          record_cap: int = DEFAULT_RECORD_CAP) -> float:
    """Lower index from sparse sampling, certified by ``certify``."""
    r, u0 = sparse_start(t, d, threshold)
    return certify(lambda f: lower_index(f, t), d, r, u0, seed, spec=spec,
                   record_cap=record_cap)[1]


@dataclass(frozen=True)
class VariationalSummary:
    """All variational statistics of one field at one time."""

    t: float
    lower: float
    upper: float
    upper_c: float
    top2: TopTwo
    search_radius: float
    sparse_threshold: Optional[float]

    def to_json(self) -> str:
        return json.dumps({
            "t": self.t,
            "N_lower": self.lower,
            "N_upper": self.upper,
            "c": self.upper_c,
            "psi1": self.top2.value1,
            "x1": [int(v) for v in self.top2.site1],
            "psi2": self.top2.value2,
            "x2": [int(v) for v in self.top2.site2],
            "gap": self.top2.gap,
            "searchRadius": self.search_radius,
            "sparseThreshold": self.sparse_threshold,
        }, sort_keys=True)


CSV_HEADER = "seed,t,N_lower,N_upper,psi1,psi2,gap,x1_coords,searchRadius"


def summary_csv_row(seed: int, s: VariationalSummary) -> str:
    x1 = ";".join(str(int(v)) for v in s.top2.site1)
    return (f"{seed},{s.t!r},{s.lower!r},{s.upper!r},{s.top2.value1!r},"
            f"{s.top2.value2!r},{s.top2.gap!r},{x1},{s.search_radius!r}")


def variational_summary(f: Field, t: float, c: float = 1.0,
                        search_radius: Optional[float] = None
                        ) -> VariationalSummary:
    top2 = psi_top2(f, t, search_radius)
    thr = f.threshold if isinstance(f, SparseExceedanceField) else None
    return VariationalSummary(
        t=t,
        lower=lower_index(f, t, search_radius),
        upper=upper_index(f, t, c, search_radius),
        upper_c=c,
        top2=top2,
        search_radius=top2.search_radius,
        sparse_threshold=thr,
    )
