"""Random potential fields on l1 balls.

Dense sampling draws one value per site, keyed to the canonical site index,
so a field is a pure function of (seed, d, r, spec) no matter how it is
evaluated.  Exceedance sampling produces only the sites above a threshold,
either by scanning the same per-site stream (bitwise-coupled to the dense
field) or by simulating the exact exceedance law directly (count, placement,
conditional values), which reaches balls of billions of sites in O(count).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, TypeVar, Union

import numpy as np

from . import geometry, randomness
from .errors import ResourceCapError, SparseValidityError

DEFAULT_MEMORY_GIB = 2.0
DEFAULT_RECORD_CAP = 10_000_000
_SCAN_CHUNK = 1 << 22
# auto mode scans when the whole ball is cheap to sweep, else simulates
_AUTO_SCAN_LIMIT = 1 << 24

_FAMILIES = ("exponential", "weibull", "pareto")


@dataclass(frozen=True)
class DistributionSpec:
    """Marginal law of the potential at a single site.

    exponential: P(xi > x) = exp(-x)
    weibull:     P(xi > x) = exp(-x^gamma), 0 < gamma < 1
    pareto:      P(xi > x) = x^-alpha for x >= 1, alpha > d
    """

    family: str = "exponential"
    param: Optional[float] = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "exponential" and self.param is not None:
            raise ValueError("exponential law takes no parameter")
        if self.family == "weibull" and not (
            self.param is not None and 0.0 < self.param < 1.0
        ):
            raise ValueError("weibull requires 0 < gamma < 1")
        if self.family == "pareto" and not (
            self.param is not None and self.param > 0.0
        ):
            raise ValueError("pareto requires alpha > 0")

    def validate_for_dimension(self, d: int) -> None:
        if self.family == "pareto" and not self.param > d:
            raise ValueError(
                f"pareto alpha={self.param} must exceed d={d} for finite statistics"
            )

    def from_exponential(self, e: np.ndarray) -> np.ndarray:
        """Map Exp(1) draws to this law (inverse-CDF coupling)."""
        if self.family == "exponential":
            return e
        if self.family == "weibull":
            return e ** (1.0 / self.param)
        return np.exp(e / self.param)

    def survival(self, u: float) -> float:
        if u <= 0:
            return 1.0
        if self.family == "exponential":
            return math.exp(-u)
        if self.family == "weibull":
            return math.exp(-(u ** self.param))
        return min(1.0, u ** -self.param)

    def conditional_exceedance(self, u: float, e: np.ndarray) -> np.ndarray:
        """Exact draw of xi given xi > u, from fresh Exp(1) variables."""
        if self.family == "exponential":
            return u + e
        if self.family == "weibull":
            return (max(u, 0.0) ** self.param + e) ** (1.0 / self.param)
        base = max(u, 1.0)
        return base * np.exp(e / self.param)

    def label(self) -> str:
        if self.family == "exponential":
            return "exponential"
        return f"{self.family}({self.param:g})"


EXPONENTIAL = DistributionSpec("exponential")


@dataclass(frozen=True)
class PotentialField:
    """One realization of the potential on the full ball B_r.

    ``values[i]`` is the potential at canonical site index ``i``; the seed,
    dimension, radius and spec fully determine the content.
    """

    dimension: int
    radius: int
    spec: DistributionSpec
    seed: int
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (geometry.ball_size(self.dimension, self.radius),):
            raise ValueError("value array does not cover the ball exactly")

    @property
    def size(self) -> int:
        return self.values.shape[0]

    @property
    def coords(self) -> np.ndarray:
        return geometry.build_box(self.dimension, self.radius).coords

    def value_at(self, site) -> float:
        idx = geometry.rank(self.dimension, np.asarray(site, dtype=np.int64))
        return float(self.values[int(idx)])

    def with_value(self, site, value: float) -> "PotentialField":
        """Copy with one site overridden (for perturbation experiments)."""
        v = self.values.copy()
        v[int(geometry.rank(self.dimension, np.asarray(site)))] = value
        return PotentialField(self.dimension, self.radius, self.spec, self.seed, v)

    @classmethod
    def from_values(cls, d: int, r: int, values, spec: DistributionSpec = EXPONENTIAL,
                    seed: int = 0) -> "PotentialField":
        """Explicitly constructed field (tests, overrides); values >= 0 allowed."""
        v = np.ascontiguousarray(np.asarray(values, dtype=np.float64))
        return cls(d, r, spec, seed, v)


@dataclass(frozen=True)
class SparseExceedanceField:
    """The sites of B_r whose potential exceeds a threshold, with values."""

    dimension: int
    radius: int
    threshold: float
    spec: DistributionSpec
    seed: int
    coords: np.ndarray   # (n, d) canonical (ascending index) order
    values: np.ndarray   # (n,)
    method: str          # "scan" (coupled) or "binomial" (simulated law)
    attempt: int = 0

    @property
    def size(self) -> int:
        return self.values.shape[0]


Field = Union[PotentialField, SparseExceedanceField]
T = TypeVar("T")


def _budget_bytes(memory_gib: float) -> int:
    return int(memory_gib * (1 << 30))


def sample_dense(d: int, r: int, spec: DistributionSpec = EXPONENTIAL,
                 seed: int = 0, *, memory_gib: float = DEFAULT_MEMORY_GIB
                 ) -> PotentialField:
    """Draw the full i.i.d. field on B_r, one value per canonical index."""
    spec.validate_for_dimension(d)
    n = geometry.check_indexable(d, r)
    if 8 * n > _budget_bytes(memory_gib):
        raise ResourceCapError(
            f"dense field of {n} sites exceeds the {memory_gib} GiB budget"
        )
    values = np.empty(n, dtype=np.float64)
    for start in range(0, n, _SCAN_CHUNK):
        stop = min(start + _SCAN_CHUNK, n)
        e = randomness.site_exponentials(seed, start, stop - start)
        values[start:stop] = spec.from_exponential(e)
    return PotentialField(d, r, spec, seed, values)


def _distinct_indices(gen: np.random.Generator, n_total: int, count: int
                      ) -> np.ndarray:
    """Uniform sample of ``count`` distinct indices from range(n_total)."""
    if count > n_total:
        raise ValueError("cannot draw more distinct sites than the ball holds")
    if n_total <= max(1 << 20, 4 * count):
        return np.sort(gen.permutation(n_total)[:count])
    # rejection on whole batches keeps the law exactly uniform
    for _ in range(64):
        idx = gen.integers(0, n_total, size=count, dtype=np.int64)
        uniq = np.unique(idx)
        if uniq.size == count:
            return uniq
    # vanishing-probability fallback: Floyd's algorithm
    chosen = set()
    for j in range(n_total - count, n_total):
        t = int(gen.integers(0, j + 1))
        chosen.add(j if t in chosen else t)
    return np.sort(np.fromiter(chosen, dtype=np.int64, count=count))


def sample_exceedances(d: int, r: int, threshold: float, seed: int = 0, *,
                       spec: DistributionSpec = EXPONENTIAL,
                       method: str = "auto",
                       record_cap: int = DEFAULT_RECORD_CAP,
                       attempt: int = 0) -> SparseExceedanceField:
    """Sample {(z, xi(z)) : xi(z) > u} on B_r without touching every site.

    ``method="scan"`` filters the per-site stream and is bitwise identical
    to ``sample_dense`` restricted to the exceedance set.  ``"binomial"``
    simulates the identical joint law directly: a Binomial(l_r, S(u)) count,
    sites uniform without replacement, values from the conditional law above
    the threshold.  ``"auto"`` scans small balls and simulates large ones.
    """
    if threshold < 0:
        raise ValueError("threshold must be >= 0")
    spec.validate_for_dimension(d)
    n = geometry.check_indexable(d, r)
    expected = n * spec.survival(threshold)
    if expected > record_cap:
        raise ResourceCapError(
            f"expected {expected:.3g} exceedance records exceed cap {record_cap}"
            " (threshold too low)"
        )
    if method == "auto":
        method = "scan" if n <= _AUTO_SCAN_LIMIT else "binomial"
    if method == "scan":
        idx_parts, val_parts = [], []
        kept = 0
        for start in range(0, n, _SCAN_CHUNK):
            stop = min(start + _SCAN_CHUNK, n)
            e = randomness.site_exponentials(seed, start, stop - start)
            v = spec.from_exponential(e)
            mask = v > threshold
            kept += int(mask.sum())
            if kept > 4 * record_cap:
                raise ResourceCapError("exceedance records exceed cap")
            idx_parts.append(np.nonzero(mask)[0] + start)
            val_parts.append(v[mask])
        idx = np.concatenate(idx_parts)
        values = np.concatenate(val_parts)
    elif method == "binomial":
        if n >= (1 << 62):
            raise ResourceCapError("ball too large for 64-bit binomial sampling")
        gen = randomness.generator(seed, randomness.TAG_SPARSE, attempt)
        count = int(gen.binomial(n, spec.survival(threshold)))
        if count > 4 * record_cap:
            raise ResourceCapError("exceedance records exceed cap")
        idx = _distinct_indices(gen, n, count)
        e = gen.standard_exponential(count)
        values = spec.conditional_exceedance(threshold, e)
    else:
        raise ValueError(f"unknown method {method!r}")
    coords = geometry.unrank(d, idx) if idx.size else np.empty((0, d), np.int64)
    return SparseExceedanceField(d, r, float(threshold), spec, seed,
                                 coords, values, method, attempt)


_MAX_ATTEMPTS = 6


def certify(statistic: Callable[[SparseExceedanceField], T], d: int, r: int,
            u0: float, seed: int, *, spec: DistributionSpec = EXPONENTIAL,
            record_cap: int = DEFAULT_RECORD_CAP
            ) -> tuple[SparseExceedanceField, T]:
    """First exceedance field on B_r whose ``statistic`` is certified.

    ``statistic(field)`` raises ``SparseValidityError`` when an unseen site
    below the field's threshold could change its result.  Attempt i = 0..5
    samples at threshold u_i, with u_0 = u0 and u_{i+1} = max(0, u_i - 2),
    and stops after a failed attempt at u = 0 (there every site is seen).
    Returns the first certified (field, result); re-raises the last error
    when no attempt certifies.

    Each attempt redraws an independent field (its ``attempt`` tags the
    binomial stream), so the reported law is conditioned on certification;
    nesting the thresholds within one realization would remove that bias.
    """
    u = u0
    for attempt in range(_MAX_ATTEMPTS):
        f = sample_exceedances(d, r, u, seed, spec=spec,
                               record_cap=record_cap, attempt=attempt)
        try:
            return f, statistic(f)
        except SparseValidityError as err:
            last_err = err
        if u <= 0.0:
            break
        u = max(0.0, u - 2.0)
    raise last_err


# --- order statistics ---------------------------------------------------------

@dataclass(frozen=True)
class OrderStatistics:
    """Top-K values with their sites, strictly ordered.

    Rank k is 1-based; ties in value are broken by lexicographically
    smaller coordinates taking the better rank.
    """

    values: np.ndarray   # (K,) descending
    coords: np.ndarray   # (K, d)

    @property
    def entries(self):
        return [
            (k + 1, float(self.values[k]), tuple(int(c) for c in self.coords[k]))
            for k in range(self.values.shape[0])
        ]

    def value(self, k: int) -> float:
        return float(self.values[k - 1])

    def site(self, k: int) -> np.ndarray:
        return self.coords[k - 1]


def _lex_order_desc(values: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Sort order: value descending, then coordinates lex ascending."""
    keys = tuple(coords[:, axis] for axis in reversed(range(coords.shape[1])))
    return np.lexsort(keys + (-values,))


def order_stats(f: Field, k: int) -> OrderStatistics:
    """Top-k entries of a field; identical to a full sort of the field."""
    values = f.values
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > values.shape[0]:
        if isinstance(f, SparseExceedanceField):
            raise SparseValidityError(
                f"k={k} exceeds the {values.shape[0]} recorded exceedances; "
                "lower the threshold"
            )
        raise ValueError(f"k={k} exceeds the {values.shape[0]} sites")
    if isinstance(f, PotentialField):
        coords = None  # resolved lazily, only for the candidate set
    else:
        coords = f.coords
    n = values.shape[0]
    if k * 4 >= n:
        cand = np.arange(n, dtype=np.int64)
    else:
        part = np.argpartition(-values, k - 1)[:k]
        cutoff = values[part].min()
        # pull in every value tied with the cutoff so lex order can settle it
        cand = np.nonzero(values >= cutoff)[0]
    cand_vals = values[cand]
    if coords is None:
        cand_coords = geometry.unrank(f.dimension, cand)
    else:
        cand_coords = coords[cand]
    order = _lex_order_desc(cand_vals, cand_coords)[:k]
    return OrderStatistics(values=cand_vals[order].copy(),
                           coords=cand_coords[order].copy())


def threshold_for_expected(d: int, r: int, spec: DistributionSpec,
                           expected: float) -> float:
    """Threshold whose expected exceedance count over B_r is ``expected``."""
    n = geometry.ball_size(d, r)
    p = min(1.0, expected / n)
    if p >= 1.0:
        return 0.0
    if spec.family == "exponential":
        return -math.log(p)
    if spec.family == "weibull":
        return (-math.log(p)) ** (1.0 / spec.param)
    return p ** (-1.0 / spec.param)


def sparse_top_k(d: int, r: int, k: int, seed: int, *,
                 spec: DistributionSpec = EXPONENTIAL,
                 expected: Optional[float] = None,
                 record_cap: int = DEFAULT_RECORD_CAP) -> OrderStatistics:
    """Top-k of a huge ball via exceedance sampling, exact in law.

    Valid whenever the k-th value lands above the threshold (then no unseen
    site can displace the result); ``certify`` lowers the threshold otherwise.
    """
    if expected is None:
        expected = max(8.0 * k, k + 64.0)

    def top_k(sf: SparseExceedanceField) -> OrderStatistics:
        st = order_stats(sf, k)
        if sf.threshold > 0.0 and st.values[-1] <= sf.threshold:
            raise SparseValidityError(
                f"top-{k} reaches down to the threshold {sf.threshold:.6g}")
        return st

    u0 = threshold_for_expected(d, r, spec, expected)
    return certify(top_k, d, r, u0, seed, spec=spec, record_cap=record_cap)[1]


# --- asymptotic envelope checks -----------------------------------------------

def envelope_check(d: int, r_list: Iterable[int], delta: float, c: float,
                   seed: int = 0) -> list[dict]:
    """Check the extreme-value envelopes of the running maximum M_r.

    For each radius: upper bound d log r + loglog r + (loglog r)^delta,
    lower bound d log r - (1+c) logloglog r, plus the ratio M_r / log r.
    Radii below 20 are rejected (iterated logs must be positive).
    """
    rows = []
    for r in r_list:
        if r < 20:
            raise ValueError("envelope check needs r >= 20")
        m = sparse_top_k(d, r, 1, seed).value(1)
        logr = math.log(r)
        llr = math.log(logr)
        upper = d * logr + llr + llr ** delta
        lower = d * logr - (1.0 + c) * math.log(llr)
        rows.append({
            "r": r,
            "max": m,
            "upper_ok": m <= upper,
            "lower_ok": m >= lower,
            "ratio": m / logr,
        })
    return rows


def order_asymptotics_check(d: int, n: int, beta: float,
                            seeds: Iterable[int]) -> np.ndarray:
    """Per-seed samples of M_n^(floor(n^beta)) / log n."""
    if not (0.0 < beta < 1.0):
        raise ValueError("beta must lie in (0, 1)")
    if n < 100:
        raise ValueError("n must be >= 100")
    k = int(math.floor(n ** beta))
    out = []
    for s in seeds:
        st = sparse_top_k(d, n, k, s)
        out.append(st.value(k) / math.log(n))
    return np.asarray(out)


# --- serialization ------------------------------------------------------------

_MAGIC = b"PAMF"
_BIN_VERSION = 1
_BIN_HEADER = "<4sIIqQBBdQd"
_FAMILY_CODE = {"exponential": 0, "weibull": 1, "pareto": 2}
_FAMILY_NAME = {v: k for k, v in _FAMILY_CODE.items()}


def _header_line(f: Field) -> str:
    kind = "dense" if isinstance(f, PotentialField) else "sparse"
    thr = "" if kind == "dense" else f" threshold={f.threshold!r} method={f.method}"
    param = "" if f.spec.param is None else f" param={f.spec.param!r}"
    return (f"# pamlab-field v1 kind={kind} d={f.dimension} r={f.radius}"
            f" family={f.spec.family}{param} seed={f.seed}{thr}\n")


def write_field_text(f: Field, path) -> None:
    """Columnar text: one line per site, coordinates then a %.17g value."""
    coords = f.coords
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_header_line(f))
        for row, v in zip(coords, f.values):
            fh.write(" ".join(str(int(c)) for c in row))
            fh.write(f" {v:.17g}\n")


def read_field_text(path) -> Field:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("# pamlab-field v1"):
            raise ValueError("not a pamlab field text file")
        meta = dict(tok.split("=", 1) for tok in header.split()[3:])
        d = int(meta["d"])
        rows = [line.split() for line in fh if line.strip()]
    coords = np.array([[int(c) for c in row[:d]] for row in rows],
                      dtype=np.int64).reshape(len(rows), d)
    values = np.array([float(row[d]) for row in rows], dtype=np.float64)
    spec = DistributionSpec(meta["family"],
                            float(meta["param"]) if "param" in meta else None)
    if meta["kind"] == "dense":
        return PotentialField(d, int(meta["r"]), spec, int(meta["seed"]), values)
    return SparseExceedanceField(d, int(meta["r"]), float(meta["threshold"]),
                                 spec, int(meta["seed"]), coords, values,
                                 meta.get("method", "scan"))


def write_field_binary(f: Field, path) -> None:
    """Fixed little-endian layout: header struct, then coords and values."""
    kind = 0 if isinstance(f, PotentialField) else 1
    thr = float("nan") if kind == 0 else f.threshold
    param = float("nan") if f.spec.param is None else f.spec.param
    n = f.values.shape[0]
    header = struct.pack(
        _BIN_HEADER, _MAGIC, _BIN_VERSION, f.dimension, f.radius, n,
        kind, _FAMILY_CODE[f.spec.family], param, f.seed, thr,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        if kind == 1:
            fh.write(f.coords.astype("<i8").tobytes())
        fh.write(f.values.astype("<f8").tobytes())


def read_field_binary(path) -> Field:
    with open(path, "rb") as fh:
        head = fh.read(struct.calcsize(_BIN_HEADER))
        magic, ver, d, r, n, kind, fam, param, seed, thr = struct.unpack(
            _BIN_HEADER, head)
        if magic != _MAGIC or ver != _BIN_VERSION:
            raise ValueError("not a pamlab field binary file")
        spec = DistributionSpec(_FAMILY_NAME[fam],
                                None if math.isnan(param) else param)
        if kind == 1:
            coords = np.frombuffer(fh.read(8 * n * d), dtype="<i8")
            coords = coords.reshape(n, d).astype(np.int64)
        values = np.frombuffer(fh.read(8 * n), dtype="<f8").astype(np.float64)
    if kind == 0:
        return PotentialField(d, r, spec, seed, values)
    return SparseExceedanceField(d, r, thr, spec, seed, coords, values, "scan")
