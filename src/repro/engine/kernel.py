"""Vectorized Algorithm 1 decision kernels (scalar-oracle replicas).

Two kernels evaluate exactly the arithmetic of
:meth:`repro.core.reactive.ReactivePolicy.decide`:

- :func:`decide_batch` — one decision for *many lanes at once*, as a
  handful of axis-1 array ops over a stacked ``(lanes, window)`` matrix.
- :func:`decide_lane` — one decision for a single lane, with the hot
  reductions (mean/std/skew/quantile) replaced by cheaper replications
  that are bit-for-bit equal to the numpy originals.

Both describe a lane the same way: a :class:`Curve` the lanes of one
call share, plus the lane's thresholds (a :class:`LaneRow`, stacked
into :class:`LaneParams` for the batch).

Byte identity with the scalar oracle is the contract, so every shortcut
is certified at import time by :func:`certify` against deterministic
probe arrays. When a probe disagrees on the installed numpy build, the
corresponding fast path is disabled and the kernel degrades to the exact
ops the oracle itself uses — slower, never different. Two facts are
relied on *unconditionally* because they are integer logic, not float
summation: ``searchsorted(sort(w), k)`` equals ``count(w < k)``, and a
boolean mean equals that count divided by ``n`` (integer-valued float64
sums are exact below 2**53).

One numpy/libm trap is load-bearing: ``np.log`` and ``math.log`` may
disagree in the last ulp, and the oracle (Eq. 3) uses ``math.log`` — so
both kernels evaluate the scaling-factor logarithm with ``math.log``,
element by element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, NamedTuple

import numpy as np

from ..core.config import CaasperConfig

__all__ = [
    "Curve",
    "LaneParams",
    "LaneRow",
    "axis_moments",
    "certify",
    "decide_batch",
    "decide_lane",
    "lane_row",
    "replica_moments",
    "replications_certified",
    "sorted_quantile",
    "axis_reductions_certified",
]

#: Rounding-mode codes of :attr:`LaneRow.rounding`, keyed by
#: :class:`~repro.core.config.RoundingMode` value.
ROUND_FLOOR = 0
ROUND_NEAREST = 1
ROUND_CEIL = 2

_ROUND_CODES = {"floor": ROUND_FLOOR, "nearest": ROUND_NEAREST, "ceil": ROUND_CEIL}

#: Matches ``PvPCurve.is_flat_top`` / ``walk_down_target`` tolerance.
_FLAT_TOL = 1e-9
#: Matches ``slope_skewness``'s degenerate-spread cutoff.
_STD_EPS = 1e-12


@dataclass(frozen=True)
class Curve:
    """The curve geometry lanes must share to decide in one kernel call.

    ``ks`` (the integer core levels ``1..max_cores`` the PvP curve is
    evaluated at) is derived once per curve. Hashable, so callers group
    lanes on it directly.
    """

    max_cores: int
    slope_scale: float
    quantile: float

    @cached_property
    def ks(self) -> np.ndarray:
        return np.arange(1, self.max_cores + 1)

    @classmethod
    def of(cls, config: CaasperConfig) -> "Curve":
        """The curve of one ``CaasperConfig``."""
        return cls(config.max_cores, config.slope_scale, config.quantile)


class LaneRow(NamedTuple):
    """One lane's Algorithm 1 thresholds as plain Python scalars."""

    s_high: float
    s_low: float
    m_high: float
    m_low: float
    sf_max_up: float
    sf_max_down: float
    c_min: int
    scale_down_headroom: float
    rounding: int


def lane_row(config: CaasperConfig) -> LaneRow:
    """The threshold row of one ``CaasperConfig``."""
    return LaneRow(
        config.s_high,
        config.s_low,
        config.m_high,
        config.m_low,
        float(config.sf_max_up),
        float(config.sf_max_down),
        config.c_min,
        config.scale_down_headroom,
        _ROUND_CODES[config.rounding.value],
    )


@dataclass(frozen=True)
class LaneParams:
    """Per-lane thresholds as parallel arrays (SoA layout), one
    :class:`LaneRow` field per array. Kernels gather the rows they need
    with a lane-index array."""

    s_high: np.ndarray
    s_low: np.ndarray
    m_high: np.ndarray
    m_low: np.ndarray
    sf_max_up: np.ndarray
    sf_max_down: np.ndarray
    c_min: np.ndarray
    scale_down_headroom: np.ndarray
    rounding: np.ndarray

    @classmethod
    def from_configs(cls, configs: list[CaasperConfig]) -> "LaneParams":
        """Build the SoA view from one ``CaasperConfig`` per lane."""
        rows = [lane_row(config) for config in configs]
        return cls(
            *(
                np.array(
                    [row[i] for row in rows],
                    dtype=np.int64 if name in ("c_min", "rounding") else float,
                )
                for i, name in enumerate(LaneRow._fields)
            )
        )

    def gather(self, idx: np.ndarray) -> "LaneParams":
        """The parameter rows of the selected lanes."""
        return LaneParams(*(getattr(self, name)[idx] for name in LaneRow._fields))

    def rows(self) -> list[LaneRow]:
        """Every lane's thresholds as a :class:`LaneRow`."""
        columns = (getattr(self, name).tolist() for name in LaneRow._fields)
        return [LaneRow(*row) for row in zip(*columns)]


# -- certified replications ---------------------------------------------------


def sorted_quantile(sw: np.ndarray, quantile: float) -> Any:
    """``np.quantile``'s linear method along the last axis of an
    already-sorted array, including its ``gamma >= 0.5`` rewrite.

    A 1-D window yields a Python float, a ``(lanes, n)`` matrix one
    value per row. Bit-equal to ``np.quantile`` when :func:`certify`
    passed.
    """
    n = sw.shape[-1]
    virtual = quantile * (n - 1)
    prev = math.floor(virtual)
    gamma = virtual - prev
    nxt = prev + 1 if prev + 1 < n else n - 1
    if sw.ndim == 1:
        lo, hi = float(sw[prev]), float(sw[nxt])
    else:
        lo, hi = sw[:, prev], sw[:, nxt]
    diff = hi - lo
    return (hi - diff * (1 - gamma)) if gamma >= 0.5 else (lo + diff * gamma)


def replica_moments(x: np.ndarray) -> tuple[float, float, float | None]:
    """``(mean, std, third standardized moment)`` of a 1-D array from
    ``np.add.reduce`` sums; the moment is ``None`` below the degenerate
    spread cutoff. Bit-equal to ``np.mean``, ``ndarray.std`` and
    ``np.mean(z**3)`` when :func:`certify` passed."""
    n = float(x.size)
    mean = np.add.reduce(x) / n
    centered = x - mean
    std = math.sqrt(np.add.reduce(centered * centered) / n)
    if std < _STD_EPS:
        return mean, std, None
    y = centered / std
    return mean, std, float(np.add.reduce(y**3) / n)


def axis_moments(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-row ``(mean, std, third standardized moment)`` of a matrix
    from axis-1 reductions; the moment is 1.0 on rows below the
    degenerate spread cutoff. Row by row bit-equal to ``ndarray.mean``,
    ``ndarray.std`` and ``np.mean(z**3)`` when :func:`certify` passed."""
    mean = mat.mean(axis=1)
    std = mat.std(axis=1)
    degenerate = std < _STD_EPS
    std_safe = np.where(degenerate, 1.0, std)
    third = (((mat - mean[:, None]) / std_safe[:, None]) ** 3).mean(axis=1)
    return mean, std, np.where(degenerate, 1.0, third)


# -- batched kernel ----------------------------------------------------------


def decide_batch(
    window: np.ndarray,
    cur: np.ndarray,
    params: LaneParams,
    curve: Curve,
) -> np.ndarray:
    """Algorithm 1 for every row of ``window`` at once.

    Parameters
    ----------
    window:
        ``(lanes, n)`` usage windows — every lane of a cohort shares the
        window length, so the reductions vectorize along axis 1.
    cur:
        Current whole-core allocation per lane (int64).
    params:
        Per-lane thresholds, already gathered down to these lanes.
    curve:
        The curve geometry every lane shares.

    Returns
    -------
    np.ndarray
        Post-guardrail target cores per lane (int64), bit-for-bit equal
        to ``ReactivePolicy.decide(...).target_cores`` per lane.

    On a build whose axis reductions failed certification, every row
    is decided on its own through :func:`decide_lane` instead; on one
    whose replications failed, the quantile is ``np.quantile``'s own.
    """
    if not _AXIS_OK:
        per_lane = zip(window, cur.tolist(), params.rows())
        targets = [decide_lane(w, c, row, curve) for w, c, row in per_lane]
        return np.array(targets, dtype=np.int64)
    lanes, n = window.shape
    max_cores = curve.max_cores
    rows = np.arange(lanes)
    cur_f = cur.astype(float)

    # PvP curve: perf(k) = fraction of samples strictly below k, for the
    # integer thresholds k = 1..max_cores. ``x < k`` iff ``floor(x) <=
    # k - 1`` (usage is non-negative and finite), so one histogram of
    # floor-buckets plus a cumulative sum yields every count at once —
    # pure integer logic, no certification needed. Samples at or above
    # max_cores land in the overflow bucket the cumsum never reaches.
    floors = np.clip(np.floor(window), 0.0, float(max_cores)).astype(np.int64)
    offsets = rows[:, None] * (max_cores + 1)
    hist = np.bincount(
        (floors + offsets).ravel(), minlength=lanes * (max_cores + 1)
    ).reshape(lanes, max_cores + 1)
    counts = hist[:, :max_cores].cumsum(axis=1)
    perf = counts / float(n)

    # Forward-difference slopes with the virtual perf(max+1) := 1.0 pad.
    padded = np.concatenate([perf, np.ones((lanes, 1))], axis=1)
    slopes = (padded[:, 1:] - padded[:, :-1]) * curve.slope_scale

    # Slope and curve lookups at the (clamped) current allocation.
    cur_idx = np.clip(cur, 1, max_cores) - 1
    above_curve = cur > max_cores
    slope = np.where(above_curve, 0.0, slopes[rows, cur_idx])
    perf_at_cur = perf[rows, cur_idx]

    if _REPLICA_OK:
        q_cores = sorted_quantile(np.sort(window, axis=1), curve.quantile)
    else:
        q_cores = np.quantile(window, curve.quantile, axis=1)
    headroom_breached = q_cores >= (1.0 - params.m_high) * cur_f
    mostly_idle = q_cores <= params.m_low * cur_f
    flat_top = above_curve | ((cur >= 1) & (perf_at_cur >= 1.0 - _FLAT_TOL))

    scale_up = (slope >= params.s_high) | headroom_breached
    down_gate = (~scale_up) & (slope <= params.s_low) & (mostly_idle | flat_top)

    # Walk-down target: first candidate whose perf matches the reference
    # (perf is non-decreasing, so argmax of the boolean mask is the first
    # hit; all-False rows keep min(cur, max_cores), like the oracle loop).
    reference = np.where(above_curve, 1.0, perf_at_cur)
    meets = perf >= (reference - _FLAT_TOL)[:, None]
    walk_down = np.where(
        meets.any(axis=1), meets.argmax(axis=1) + 1, np.minimum(cur, max_cores)
    )
    buffered = np.ceil(
        walk_down * (1.0 + params.scale_down_headroom)
    ).astype(np.int64)
    gap = cur - np.minimum(buffered, cur)

    # Only lanes whose step is nonzero ever read the scaling factor, and
    # of those only lanes with a positive slope read the skewness. Both
    # are the kernel's costliest scalars — the cube is a per-element
    # correctly-rounded ``pow`` the oracle's bit pattern pins us to, and
    # the logarithm must be ``math.log`` (np.log is a different libm
    # path and can differ in the last ulp) — so each is evaluated only
    # on the rows that use it.
    acting = scale_up | (down_gate & (gap > 0))

    # Fisher–Pearson skewness of the slope distribution, floored at 1.
    skew = np.ones(lanes)
    need = acting & (slope > 0.0)
    if need.any():
        _, _, third = axis_moments(slopes[need])
        skew[need] = np.maximum(third, 1.0)

    # Eq. 3, for the acting rows.
    raw_sf = np.zeros(lanes)
    if acting.any():
        argument = np.maximum(
            skew[acting] * np.maximum(slope[acting], 0.0)
            + params.c_min[acting],
            1.0,
        )
        raw_sf[acting] = [math.log(a) for a in argument.tolist()]

    required = q_cores / np.maximum(1.0 - params.m_high, 1e-9)
    step_up = np.maximum(raw_sf, required - cur_f)
    step_down = -np.maximum(raw_sf, gap.astype(float))
    step = np.where(
        scale_up, step_up, np.where(down_gate & (gap > 0), step_down, 0.0)
    )

    # Guardrails: cap, round per lane mode, clamp to [c_min, max_cores].
    step = np.where(step > 0, np.minimum(step, params.sf_max_up), step)
    step = np.where(step < 0, np.maximum(step, -params.sf_max_down), step)
    toward_zero = np.trunc(step)
    half_even = np.rint(step)
    away_zero = np.where(step >= 0, np.ceil(step), np.floor(step))
    delta = np.where(
        params.rounding == ROUND_FLOOR,
        toward_zero,
        np.where(params.rounding == ROUND_NEAREST, half_even, away_zero),
    ).astype(np.int64)
    return np.maximum(params.c_min, np.minimum(max_cores, cur + delta))


# -- single-lane kernel ------------------------------------------------------


def decide_lane(window: np.ndarray, cur: int, row: LaneRow, curve: Curve) -> int:
    """Algorithm 1 for one lane, tuned for per-decision latency.

    ``row`` is the lane's thresholds (:func:`lane_row`). When
    :func:`certify` passed, the oracle's mean/std/skew/quantile
    reductions are swapped for the certified bit-equal replications
    :func:`replica_moments` and :func:`sorted_quantile` over the
    already-sorted window. Otherwise the lane runs the oracle's own
    numpy calls — always exact, roughly 2× slower.
    """
    s_high, s_low, m_high, m_low, sf_up, sf_down, c_min, headroom, rounding = row
    max_cores = curve.max_cores
    sw = np.sort(window)
    counts = np.searchsorted(sw, curve.ks, side="left")
    perf = counts / float(window.size)

    padded = np.empty(max_cores + 1)
    padded[:max_cores] = perf
    padded[max_cores] = 1.0
    slopes = (padded[1:] - padded[:max_cores]) * curve.slope_scale

    if _REPLICA_OK:
        _, _, third = replica_moments(slopes)
        skew = 1.0 if third is None else max(third, 1.0)
        q_cores = sorted_quantile(sw, curve.quantile)
    else:
        std = float(slopes.std())
        if std < _STD_EPS:
            skew = 1.0
        else:
            mean = float(slopes.mean())
            skew = max(float(np.mean(((slopes - mean) / std) ** 3)), 1.0)
        q_cores = float(np.quantile(window, curve.quantile))

    if cur > max_cores:
        slope = 0.0
    else:
        slope = float(slopes[max(cur, 1) - 1])
    raw_sf = math.log(max(skew * max(slope, 0.0) + c_min, 1.0))

    headroom_breached = q_cores >= (1.0 - m_high) * cur
    mostly_idle = q_cores <= m_low * cur
    if cur > max_cores:
        flat_top = True
    elif cur < 1:
        flat_top = False
    else:
        flat_top = perf[cur - 1] >= 1.0 - _FLAT_TOL

    if slope >= s_high or headroom_breached:
        required = q_cores / max(1.0 - m_high, 1e-9)
        step = max(raw_sf, required - cur)
    elif slope <= s_low and (mostly_idle or flat_top):
        reference = 1.0 if cur > max_cores else float(perf[max(cur, 1) - 1])
        # perf is non-decreasing: searchsorted finds the first candidate
        # meeting the reference, exactly like the oracle's linear scan.
        hit = int(np.searchsorted(perf, reference - _FLAT_TOL, side="left"))
        target = hit + 1 if hit < max_cores else min(cur, max_cores)
        buffered = math.ceil(target * (1.0 + headroom))
        gap = cur - min(buffered, cur)
        step = -max(raw_sf, float(gap)) if gap > 0 else 0.0
    else:
        step = 0.0

    if step > 0:
        step = min(step, sf_up)
    elif step < 0:
        step = max(step, -sf_down)
    if rounding == ROUND_FLOOR:
        delta = math.floor(step) if step >= 0 else math.ceil(step)
    elif rounding == ROUND_NEAREST:
        delta = int(round(step))
    else:
        delta = math.ceil(step) if step >= 0 else math.floor(step)
    return max(c_min, min(max_cores, cur + delta))


# -- import-time certification ------------------------------------------------


def _probe_windows() -> list[np.ndarray]:
    """Deterministic arrays exercising the numeric shapes decisions see:
    smooth curves, repeated values, near-ties at core boundaries, and
    near-constant windows."""
    probes = []
    for n in (2, 3, 5, 17, 40, 100, 256):
        t = np.linspace(0.0, 3.0, n)
        probes.append(np.abs(np.sin(t * 7.3)) * 11.0)
        probes.append(np.repeat(np.abs(np.cos(t[: max(n // 4, 1)])) * 5.0, 4)[:n])
        probes.append(np.floor(t * 4.0) + 1e-12 * t)
        probes.append(np.full(n, 3.0) + np.where(t > 1.5, 1e-13, 0.0))
    return probes


_PROBE_QUANTILES = (0.5, 0.9, 0.95, 0.99, 1.0, 0.37)


def certify() -> tuple[bool, bool]:
    """Certify the fast paths against the oracle's numpy ops.

    Returns ``(replications_ok, axis_reductions_ok)``:

    - *replications*: :func:`replica_moments` and :func:`sorted_quantile`
      (on a window and on a stacked matrix), the very functions the
      kernels call, are bit-equal to ``np.mean``/``ndarray.std``/
      ``np.quantile`` on this build;
    - *axis reductions*: :func:`axis_moments` and ``np.quantile`` over
      a stacked matrix are bit-equal to the same reductions applied row
      by row.
    """
    probes = _probe_windows()
    replica_ok = True
    axis_ok = True

    for w in probes:
        mean, std, third = replica_moments(w)
        if mean != float(np.mean(w)) or std != float(w.std()):
            replica_ok = False
        elif third is not None:
            if third != float(np.mean(((w - mean) / std) ** 3)):
                replica_ok = False
        sw = np.sort(w)
        for q in _PROBE_QUANTILES:
            if sorted_quantile(sw, q) != float(np.quantile(w, q)):
                replica_ok = False

    # Stack equal-length probes and compare axis-1 reductions to per-row.
    by_len: dict[int, list[np.ndarray]] = {}
    for w in probes:
        by_len.setdefault(w.size, []).append(w)
    for group in by_len.values():
        mat = np.stack(group)
        rows = list(mat)
        mean, std, third = axis_moments(mat)
        if not np.array_equal(mean, [r.mean() for r in rows]):
            axis_ok = False
        if not np.array_equal(std, [r.std() for r in rows]):
            axis_ok = False
        for r, m3, spread in zip(rows, third.tolist(), std.tolist()):
            if spread >= _STD_EPS:
                if m3 != float(np.mean(((r - float(r.mean())) / spread) ** 3)):
                    axis_ok = False
        for q in _PROBE_QUANTILES:
            per_row = np.array([float(np.quantile(r, q)) for r in rows])
            if not np.array_equal(np.quantile(mat, q, axis=1), per_row):
                axis_ok = False
            if not np.array_equal(sorted_quantile(np.sort(mat, axis=1), q), per_row):
                replica_ok = False

    return replica_ok, axis_ok


_REPLICA_OK, _AXIS_OK = certify()


def replications_certified() -> bool:
    """True when the single-lane fast reductions passed certification."""
    return _REPLICA_OK


def axis_reductions_certified() -> bool:
    """True when batched axis-1 reductions passed certification."""
    return _AXIS_OK
