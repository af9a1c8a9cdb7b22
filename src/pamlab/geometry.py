"""Exact l1-ball combinatorics and the canonical site enumeration.

The ball B_r = {z in Z^d : |z|_1 <= r} is enumerated shell by shell
(|z| = 0, 1, 2, ...), lexicographically within each shell.  This order is
radius-independent: the first ball_size(d, s) indices always enumerate B_s,
for every s.  All samplers key their random streams to this index, which is
what makes dense and sparse sampling couplable and iteration-order free.

Counts are exact integers.  Vectorized kernels work in int64 and refuse
balls with more than 2^62 sites; Python-int code paths have no such limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import LatticeSizeError

INT64_CAP = 1 << 62


def ball_size(d: int, r: int) -> int:
    """Number of lattice sites with |z|_1 <= r, exact.

    Uses the closed form sum_k 2^k C(d,k) C(r,k): choose k axes that carry
    a nonzero coordinate, a sign for each, and a composition of the radius.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if r < 0:
        raise ValueError(f"radius must be >= 0, got {r}")
    return sum(
        (1 << k) * math.comb(d, k) * math.comb(r, k)
        for k in range(min(d, r) + 1)
    )


def shell_size(d: int, s: int) -> int:
    """Number of sites with |z|_1 exactly s."""
    if s == 0:
        return 1
    return ball_size(d, s) - ball_size(d, s - 1)


def cumulative_ball_size(d: int, m: int) -> int:
    """sum_{j=0}^{m} ball_size(d, j); zero for m < 0."""
    if m < 0:
        return 0
    return sum(
        (1 << k) * math.comb(d, k) * math.comb(m + 1, k + 1)
        for k in range(min(d, m + 1) + 1)
    )


def check_indexable(d: int, r: int) -> int:
    """Return ball_size(d, r) after checking it fits the int64 kernels."""
    n = ball_size(d, r)
    if n >= INT64_CAP:
        raise LatticeSizeError(
            f"ball(d={d}, r={r}) has {n} sites, beyond 64-bit indexing"
        )
    return n


# --- int64 vectorized closed forms ------------------------------------------

def _comb_vec(n: np.ndarray, k: int) -> np.ndarray:
    """C(n, k) elementwise for int64 n >= 0.  Exact (stepwise divisions)."""
    out = np.ones_like(n)
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return np.where(n >= k, out, 0)


def _ball_vec(d: int, r: np.ndarray) -> np.ndarray:
    """ball_size(d, r) elementwise, int64; negative r counts as empty."""
    r = np.asarray(r, dtype=np.int64)
    if d == 1:
        return np.where(r < 0, 0, 2 * r + 1)
    if d == 2:
        return np.where(r < 0, 0, 2 * r * r + 2 * r + 1)
    rc = np.maximum(r, 0)
    out = np.zeros_like(rc)
    for k in range(d + 1):
        out = out + (1 << k) * math.comb(d, k) * _comb_vec(rc, k)
    return np.where(r < 0, 0, out)


def _shell_cum_vec(dim: int, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Sites in shell_dim(s) whose first coordinate is <= c, elementwise.

    dim >= 2.  The remaining coordinates run over shell_{dim-1}(s - |c'|),
    summed for c' from -s to c; both branches telescope into ball sizes.
    """
    below = _ball_vec(dim - 1, s + np.minimum(c, 0))
    above = (
        _ball_vec(dim - 1, s - 1)
        - _ball_vec(dim - 1, s - np.maximum(c, 0) - 1)
    )
    out = below + np.where(c > 0, above, 0)
    return np.where(c < -s, 0, out)


def _shell_unrank(dim: int, s: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Coordinates of the j-th site (lex order) of shell_dim(s), vectorized."""
    n = s.shape[0]
    coords = np.zeros((n, dim), dtype=np.int64)
    s = s.copy()
    j = j.copy()
    for axis in range(dim - 1):
        rem = dim - axis
        lo = -s
        hi = s.copy()
        # smallest c with (# first-coordinates <= c) > j
        while True:
            active = lo < hi
            if not active.any():
                break
            mid = (lo + hi) >> 1
            take = _shell_cum_vec(rem, s, mid) > j
            hi = np.where(active & take, mid, hi)
            lo = np.where(active & ~take, mid + 1, lo)
        c = lo
        j = j - _shell_cum_vec(rem, s, c - 1)
        coords[:, axis] = c
        s = s - np.abs(c)
    # last coordinate: shell of dimension 1 is {-s, +s}
    coords[:, dim - 1] = np.where(j > 0, s, -s)
    return coords


def _shell_rank(dim: int, coords: np.ndarray) -> np.ndarray:
    """Inverse of _shell_unrank: lex rank of each site within its shell."""
    s = np.abs(coords).sum(axis=1)
    j = np.zeros(coords.shape[0], dtype=np.int64)
    for axis in range(dim - 1):
        rem = dim - axis
        c = coords[:, axis]
        j = j + _shell_cum_vec(rem, s, c - 1)
        s = s - np.abs(c)
    j = j + np.where((coords[:, dim - 1] > 0) & (s > 0), 1, 0)
    return j


def _unrank_d2(idx: np.ndarray) -> np.ndarray:
    """Closed-form d=2 unranking: float inversion plus exact correction."""
    # smallest s with 2s^2+2s+1 > idx
    s = np.sqrt(np.maximum(2.0 * idx.astype(np.float64) - 1.0, 0.0))
    s = ((s - 1.0) / 2.0).astype(np.int64)
    s = np.maximum(s - 1, 0)
    for _ in range(3):
        s += _ball_vec(2, s) <= idx
    j = idx - _ball_vec(2, s - 1)
    # cumulative count of first coordinates <= c is min(2s+2c+1, 4s), c >= -s
    c = (j - 2 * s) // 2 - 1
    c = np.maximum(c, -s)

    shell_total = np.maximum(4 * s, 1)

    def cum(cc):
        return np.where(cc < -s, 0, np.minimum(2 * s + 2 * cc + 1, shell_total))

    for _ in range(3):
        c += cum(c) <= j
    j = j - cum(c - 1)
    s2 = s - np.abs(c)
    second = np.where(j > 0, s2, -s2)
    return np.stack([c, second], axis=1)


def unrank(d: int, idx: np.ndarray) -> np.ndarray:
    """Canonical index -> coordinates, vectorized.  Shape (n, d)."""
    idx = np.asarray(idx, dtype=np.int64)
    scalar = idx.ndim == 0
    idx = np.atleast_1d(idx)
    if idx.size and idx.min() < 0:
        raise ValueError("negative canonical index")
    if d == 1:
        # shell s occupies indices 2s-1 (site -s) and 2s (site +s)
        s = (idx + 1) >> 1
        coords = np.where(idx & 1, -s, s).reshape(-1, 1)
        return coords[0] if scalar else coords
    if d == 2:
        coords = _unrank_d2(idx)
        return coords[0] if scalar else coords
    # shell search: smallest s with ball_size(d, s) > idx
    lo = np.zeros_like(idx)
    hi = np.int64(1)
    while ball_size(d, int(hi)) <= int(idx.max(initial=0)):
        hi = hi * 2
    hi = np.full_like(idx, hi)
    while True:
        active = lo < hi
        if not active.any():
            break
        mid = (lo + hi) >> 1
        take = _ball_vec(d, mid) > idx
        hi = np.where(active & take, mid, hi)
        lo = np.where(active & ~take, mid + 1, lo)
    s = lo
    j = idx - _ball_vec(d, s - 1)
    coords = _shell_unrank(d, s, j)
    return coords[0] if scalar else coords


def rank(d: int, coords: np.ndarray) -> np.ndarray:
    """Coordinates -> canonical index, vectorized."""
    coords = np.asarray(coords, dtype=np.int64)
    scalar = coords.ndim == 1
    coords = np.atleast_2d(coords)
    if coords.shape[1] != d:
        raise ValueError(f"expected {d} coordinates per site")
    s = np.abs(coords).sum(axis=1)
    if d == 1:
        idx = 2 * s - np.where(coords[:, 0] < 0, 1, 0)
        idx = np.where(s == 0, 0, idx)
    else:
        idx = _ball_vec(d, s - 1) + _shell_rank(d, coords)
    return idx[0] if scalar else idx


def norm1(coords: np.ndarray) -> np.ndarray:
    """l1 norm of each site; accepts (d,) or (n, d)."""
    coords = np.asarray(coords)
    return np.abs(coords).sum(axis=-1)


# --- finite boxes for the solver ---------------------------------------------

@dataclass(frozen=True)
class Box:
    """The ball B_r with its neighbor structure (Dirichlet outside).

    ``nbr[i, j]`` is the site index of the j-th l1-neighbor of site i, or
    ``size`` (a sentinel one past the end) when that neighbor leaves the box.
    ``nbr`` and ``out_degree`` are built on first use, so callers that need
    only the coordinates do not pay for them.
    """

    dimension: int
    radius: int
    coords: np.ndarray      # (size, d) canonical order

    @property
    def size(self) -> int:
        return self.coords.shape[0]

    @cached_property
    def nbr(self) -> np.ndarray:
        """(size, 2d) int64 in Fortran order, so each column is contiguous."""
        d, r, n = self.dimension, self.radius, self.size
        nbr = np.full((n, 2 * d), n, dtype=np.int64, order="F")
        col = 0
        for axis in range(d):
            for step in (-1, 1):
                shifted = self.coords.copy()
                shifted[:, axis] += step
                inside = norm1(shifted) <= r
                nbr[inside, col] = rank(d, shifted[inside])
                col += 1
        return nbr

    @cached_property
    def out_degree(self) -> np.ndarray:
        """(size,) int64: the number of neighbors outside the box."""
        return (self.nbr == self.size).sum(axis=1).astype(np.int64)

    def index_of(self, site) -> int:
        """Canonical index of a site inside the box."""
        site = np.asarray(site, dtype=np.int64)
        if norm1(site) > self.radius:
            raise ValueError(f"site {site.tolist()} outside radius {self.radius}")
        return int(rank(self.dimension, site))


@lru_cache(maxsize=32)
def build_box(d: int, r: int) -> Box:
    """Construct (and memoize) B_r; its neighbor table is built lazily."""
    n = check_indexable(d, r)
    return Box(dimension=d, radius=r,
               coords=unrank(d, np.arange(n, dtype=np.int64)))


def encode_sites(coords: np.ndarray, radius: int) -> np.ndarray:
    """Pack coordinates into a single int64 key (for set membership tests)."""
    coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
    d = coords.shape[1]
    base = 2 * radius + 3
    if base ** d >= INT64_CAP:
        raise LatticeSizeError("box too large for packed site keys")
    key = np.zeros(coords.shape[0], dtype=np.int64)
    for axis in range(d):
        key = key * base + (coords[:, axis] + radius + 1)
    return key
