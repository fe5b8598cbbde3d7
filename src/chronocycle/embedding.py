"""Sliding-window embedding of univariate time series.

The embedding dimension comes from the number of retained spectral peaks
(each real tone contributes a conjugate pair of exponentials, so d = 2 x
peaks), and the delay is chosen by scanning a grid for the value that makes
the columns of the window exponential matrix closest to pairwise orthogonal.
Embedded points carry the start time of their window as a time label.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class TimeSeries:
    """Uniformly sampled scalar signal."""

    t0: float
    dt: float
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or len(self.values) < 2:
            raise ValueError("series needs at least 2 samples")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        if not (math.isfinite(self.t0) and math.isfinite(self.dt)):
            raise ValueError("t0 and dt must be finite")

    @property
    def n(self) -> int:
        return len(self.values)

    @property
    def t_end(self) -> float:
        return self.t0 + (self.n - 1) * self.dt

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    def sample(self, t) -> np.ndarray:
        """Linear interpolation at query times inside [t0, t_end]."""
        return np.interp(t, self.times(), self.values)


@dataclass
class SpectrumSupport:
    """Retained spectral peaks: (angular frequency, magnitude) pairs."""

    peaks: list[tuple[float, float]]
    threshold: float

    def __post_init__(self):
        if any(a <= 0 for _, a in self.peaks):
            raise ValueError("peak amplitudes must be positive")
        self.peaks = sorted(self.peaks)

    @property
    def frequencies(self) -> list[float]:
        return [w for w, _ in self.peaks]


@dataclass
class EmbeddingParams:
    d: int
    tau: float

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("embedding dimension must be >= 1")
        if not self.tau > 0:
            raise ValueError("delay must be positive")


@dataclass
class LabeledPointCloud:
    """Embedded points with one time label per point."""

    points: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.labels = np.asarray(self.labels, dtype=float)
        if self.points.ndim != 2:
            raise ValueError("points must be a 2d array")
        if len(self.points) != len(self.labels):
            raise ValueError("one label per point required")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("points must be finite")
        if not np.all(np.isfinite(self.labels)):
            raise ValueError("labels must be finite")
        if not np.all(np.diff(self.labels) > 0):
            raise ValueError("labels must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the interior local maxima of x, by the rule of
    ``scipy.signal.find_peaks``: a run of equal values higher than both
    neighboring runs is one peak, at its middle sample (rounded down), and
    a run holding the first or last sample is never a peak."""
    starts = np.concatenate([[0], np.flatnonzero(np.diff(x)) + 1])
    ends = np.append(starts[1:], len(x)) - 1
    top = x[starts]
    peak = np.zeros(len(starts), dtype=bool)
    peak[1:-1] = (top[1:-1] > top[:-2]) & (top[1:-1] > top[2:])
    return (starts[peak] + ends[peak]) // 2


def spectrum(ts: TimeSeries, threshold_fraction: float = 0.1) -> SpectrumSupport:
    """Spectral peaks of the mean-removed signal.

    Peaks are interior local maxima of the DFT magnitude with magnitude at
    least threshold_fraction times the maximum magnitude.  Frequencies are
    angular (rad per time unit).
    """
    if not 0 < threshold_fraction <= 1:
        raise ValueError("threshold_fraction must be in (0, 1]")
    if ts.n < 4:
        raise ValueError("series too short for spectral analysis")
    x = ts.values - ts.values.mean()
    mag = np.abs(np.fft.rfft(x))
    scale = max(1.0, float(np.max(np.abs(ts.values))))
    if mag.max() <= 1e-9 * ts.n * scale:
        raise ValueError("empty spectrum")
    omega = 2 * np.pi * np.fft.rfftfreq(ts.n, ts.dt)
    thr = threshold_fraction * mag.max()
    idx = _local_maxima(mag)
    idx = idx[mag[idx] >= thr]
    if len(idx) == 0:
        raise ValueError("empty spectrum")
    return SpectrumSupport(
        peaks=[(float(omega[k]), float(mag[k])) for k in idx], threshold=float(thr)
    )


def embedding_dimension(s: SpectrumSupport) -> int:
    """Number of coordinates: one conjugate exponential pair per real tone."""
    if not s.peaks:
        raise ValueError("spectrum has no peaks")
    return 2 * len(s.peaks)


# delays scored in one array pass: a few (block, d, 2 * peaks) complex arrays
_DELAY_BLOCK = 4096


def _scores(s: SpectrumSupport, d: int, taus: np.ndarray) -> np.ndarray:
    """Orthogonality score of each delay in the float array ``taus``: the
    mean |<col_a, col_b>| / d over distinct column pairs of the window
    exponential matrix, whose columns are e^{i w tau m}, m = 0..d-1, for +w
    and -w of every retained tone.  Each block of delays is one batched
    expression, and a delay's score does not depend on its block."""
    if not np.all(taus > 0):
        raise ValueError("delay must be positive")
    if d < 1:
        raise ValueError("embedding dimension must be at least 1")
    ws = np.array([x for w, _ in s.peaks for x in (w, -w)])
    steps = 1j * np.arange(d)[:, None]
    a, b = np.triu_indices(len(ws), 1)
    out = np.empty(len(taus))
    for lo in range(0, len(taus), _DELAY_BLOCK):
        M = np.exp(steps * (taus[lo:lo + _DELAY_BLOCK, None, None] * ws))
        G = np.abs(M.conj().transpose(0, 2, 1) @ M) / d
        # each delay's pairs contiguous, so that each mean sums them as the
        # mean of one delay's pairs does
        out[lo:lo + _DELAY_BLOCK] = np.ascontiguousarray(G[:, a, b]).mean(axis=1)
    return out


def orthogonality_score(s: SpectrumSupport, d: int, tau: float) -> float:
    """Mean |<col_a, col_b>| / d over distinct column pairs of the window
    exponential matrix; 0 means perfectly orthogonal columns."""
    return float(_scores(s, d, np.array([tau], dtype=float))[0])


def delay_curve(s: SpectrumSupport, d: int, tau_grid) -> list[tuple[float, float]]:
    """(tau, orthogonality score) for every grid value, ascending tau."""
    grid = sorted(float(t) for t in tau_grid)
    if not grid:
        raise ValueError("empty delay grid")
    if grid[0] <= 0:
        raise ValueError("delays must be positive")
    return list(zip(grid, _scores(s, d, np.array(grid)).tolist()))


def best_delay(curve) -> float:
    """Delay of the lowest score on a delay curve, smallest tau on ties."""
    return min(curve, key=lambda point: (point[1], point[0]))[0]


def optimal_delay(s: SpectrumSupport, d: int, tau_grid) -> float:
    """Grid value minimizing the orthogonality score, smallest tau on ties."""
    return best_delay(delay_curve(s, d, tau_grid))


def default_tau_grid(s: SpectrumSupport, count: int = 200) -> np.ndarray:
    """Uniform grid over (0, longest retained period]."""
    if count < 1:
        raise ValueError("delay grid needs at least one point")
    period_max = 2 * np.pi / min(s.frequencies)
    return np.linspace(period_max / count, period_max, count)


def sliding_window(ts: TimeSeries, p: EmbeddingParams) -> LabeledPointCloud:
    """Delay embedding: point j = (f(t_j), f(t_j+tau), ..., f(t_j+(d-1)tau)).

    Off-grid window samples are linearly interpolated; the label of a point
    is its window start t_j.
    """
    span = (p.d - 1) * p.tau
    # fp-safe admissibility: t_j + span <= t_end
    tol = 1e-9 * max(ts.dt, 1.0)
    m = int(np.sum(ts.times() + span <= ts.t_end + tol))
    if m == 0:
        raise ValueError("window exceeds series")
    starts = ts.times()[:m]
    offsets = p.tau * np.arange(p.d)
    pts = ts.sample(starts[:, None] + offsets[None, :])
    return LabeledPointCloud(points=pts.reshape(m, p.d), labels=starts)


def subsample_indices(m: int, k: int) -> np.ndarray:
    """k evenly spaced indices into range(m), first and last included."""
    if not 2 <= k <= m:
        raise ValueError(f"subsample size {k} out of range [2, {m}]")
    return np.rint(np.linspace(0, m - 1, k)).astype(int)


def subsample(pc: LabeledPointCloud, k: int) -> LabeledPointCloud:
    """The points at subsample_indices(len(pc), k), labels preserved."""
    idx = subsample_indices(len(pc), k)
    return LabeledPointCloud(points=pc.points[idx], labels=pc.labels[idx])


# ---------------------------------------------------------------------------
# CSV series I/O


def read_series_csv(path) -> TimeSeries:
    """Read a `t,value` CSV (header optional); spacing must be uniform to
    relative tolerance 1e-6."""
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.reader(fh):
            if not rec or not "".join(rec).strip():
                continue
            try:
                rows.append((float(rec[0]), float(rec[1])))
            except (ValueError, IndexError):
                if not rows:  # header line
                    continue
                raise ValueError(f"malformed CSV row: {rec!r}")
    if len(rows) < 2:
        raise ValueError("series needs at least 2 samples")
    t = np.array([r[0] for r in rows])
    v = np.array([r[1] for r in rows])
    steps = np.diff(t)
    dt = float(np.median(steps))
    if not (dt > 0 and np.max(np.abs(steps - dt)) <= 1e-6 * dt):
        raise ValueError("non-uniform sampling: spacing deviates beyond 1e-6")
    return TimeSeries(t0=float(t[0]), dt=dt, values=v)


def write_series_csv(ts: TimeSeries, path):
    with open(path, "w", newline="") as fh:
        fh.write("t,value\n" + "".join(
            f"{t!r},{v!r}\n" for t, v in zip(ts.times().tolist(), ts.values.tolist())
        ))
