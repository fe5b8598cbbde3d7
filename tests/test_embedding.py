import math

import numpy as np
import pytest

from chronocycle.embedding import (
    _local_maxima,
    EmbeddingParams,
    LabeledPointCloud,
    TimeSeries,
    best_delay,
    default_tau_grid,
    delay_curve,
    embedding_dimension,
    optimal_delay,
    orthogonality_score,
    read_series_csv,
    sliding_window,
    spectrum,
    SpectrumSupport,
    subsample,
    subsample_indices,
    write_series_csv,
)
from chronocycle.signals import double_sine, noisy_sine


def tone(n=2000, t_end=64 * math.pi, omega=1.0):
    t = np.linspace(0.0, t_end, n)
    return TimeSeries(t0=0.0, dt=float(t[1] - t[0]), values=np.sin(omega * t))


def test_time_series_basics():
    ts = TimeSeries(t0=1.0, dt=0.5, values=[0.0, 1.0, 2.0])
    assert ts.n == 3
    assert ts.t_end == 2.0
    assert np.allclose(ts.times(), [1.0, 1.5, 2.0])
    assert ts.sample(1.25) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=0.0, values=[1.0, 2.0])
    with pytest.raises(ValueError):
        TimeSeries(t0=0.0, dt=1.0, values=[1.0])


def test_spectrum_single_tone():
    s = spectrum(tone())
    assert len(s.peaks) == 1
    assert s.frequencies[0] == pytest.approx(1.0, abs=0.05)
    assert embedding_dimension(s) == 2


def test_spectrum_two_tones():
    s = spectrum(double_sine())
    assert len(s.peaks) == 2
    w1, w2 = s.frequencies
    assert w1 == pytest.approx(1.0, abs=0.05)
    assert w2 == pytest.approx(math.sqrt(3.0), abs=0.05)
    assert embedding_dimension(s) == 4
    # the 2.0-amplitude tone is the taller peak
    mags = dict(s.peaks)
    assert mags[w1] > mags[w2]


def test_spectrum_threshold_prunes_weak_tone():
    s = spectrum(double_sine(), threshold_fraction=1.0)
    assert len(s.peaks) == 1
    assert s.frequencies[0] == pytest.approx(1.0, abs=0.05)


def test_local_maxima_match_find_peaks():
    # small integer levels give ties and plateaus, including ones that touch
    # either end; the rfft magnitude has at least 3 samples
    from scipy.signal import find_peaks

    rng = np.random.default_rng(0)
    for _ in range(2000):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, int(rng.integers(2, 6)), size=n).astype(float)
        assert _local_maxima(x).tolist() == find_peaks(x)[0].tolist(), x
    assert _local_maxima(np.array([0.0, 2, 2, 2, 2, 1])).tolist() == [2]
    assert _local_maxima(np.array([3.0, 3, 1, 2, 2])).tolist() == []


def test_spectrum_errors():
    flat = TimeSeries(t0=0.0, dt=1.0, values=np.full(64, 3.25))
    with pytest.raises(ValueError, match="empty spectrum"):
        spectrum(flat)
    # all the power of an alternating series is in the last rfft bin, which
    # is no interior maximum, so no peak passes the threshold
    alternating = TimeSeries(t0=0.0, dt=1.0, values=np.tile([1.0, -1.0], 32))
    with pytest.raises(ValueError, match="empty spectrum"):
        spectrum(alternating)
    with pytest.raises(ValueError):
        spectrum(tone(), threshold_fraction=0.0)
    with pytest.raises(ValueError, match="too short"):
        spectrum(TimeSeries(t0=0.0, dt=1.0, values=[0.0, 1.0, 0.0]))


def test_spectrum_support_validation():
    with pytest.raises(ValueError):
        SpectrumSupport(peaks=[(1.0, 0.0)], threshold=0.1)
    s = SpectrumSupport(peaks=[(2.0, 1.0), (1.0, 3.0)], threshold=0.1)
    assert s.frequencies == [1.0, 2.0]
    with pytest.raises(ValueError):
        embedding_dimension(SpectrumSupport(peaks=[], threshold=0.1))


def test_orthogonality_single_tone_quarter_period():
    s = SpectrumSupport(peaks=[(1.0, 1.0)], threshold=0.1)
    # d=2, tau=pi/2: <col_+, col_-> = 1 + e^{-2i tau} = 0
    assert orthogonality_score(s, 2, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # vanishing delay makes all columns collinear
    assert orthogonality_score(s, 2, 1e-9) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        orthogonality_score(s, 2, 0.0)
    # no window coordinates: an error, not a NaN score the scan would pick
    for d in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            orthogonality_score(s, d, math.pi / 2)
        with pytest.raises(ValueError, match="at least 1"):
            optimal_delay(s, d, [0.1, math.pi / 2])


def test_optimal_delay_picks_quarter_period():
    s = SpectrumSupport(peaks=[(1.0, 1.0)], threshold=0.1)
    grid = [0.1, math.pi / 2, 3.0]
    assert optimal_delay(s, 2, grid) == math.pi / 2
    # ties resolve to the smallest delay: the score is pi-periodic here
    assert optimal_delay(s, 2, [math.pi / 2 + math.pi, math.pi / 2]) == math.pi / 2
    with pytest.raises(ValueError):
        optimal_delay(s, 2, [])
    with pytest.raises(ValueError):
        optimal_delay(s, 2, [-1.0, 1.0])
    # the curve holds one score per grid value, ascending in tau
    curve = delay_curve(s, 2, [3.0, 0.1])
    assert curve == [(0.1, orthogonality_score(s, 2, 0.1)),
                     (3.0, orthogonality_score(s, 2, 3.0))]
    assert best_delay([(2.0, 0.5), (1.0, 0.5), (0.5, 0.9)]) == 1.0


def per_delay_score(s, d, tau):
    """The reference orthogonality score: one delay's window exponential
    matrix and its Gram matrix by ``@``, the mean over its upper triangle."""
    ws = [x for w, _ in s.peaks for x in (w, -w)]
    m = np.arange(d)[:, None]
    M = np.exp(1j * m * (tau * np.array(ws))[None, :])
    G = np.abs(M.conj().T @ M) / d
    return float(G[np.triu_indices(G.shape[0], 1)].mean())


def test_delay_curve_matches_per_delay_scores(tmp_path):
    # embedding.json holds the curve, so the batched scan must give each
    # delay's score bit for bit: the two-tone series, the sine workload's
    # noisy sines, the series the CLI pipeline writes and reads back, and
    # wider supports (up to 45 column pairs) over grids past one block
    cases = []
    s = spectrum(double_sine())
    cases.append((s, 4, default_tau_grid(s)))
    for seed in range(30):
        s = spectrum(noisy_sine(n=200, sigma=0.1, seed=seed))
        cases.append((s, embedding_dimension(s), default_tau_grid(s)))
    for seed in range(5):
        write_series_csv(noisy_sine(n=300, sigma=0.05, seed=seed), tmp_path / "s.csv")
        s = spectrum(read_series_csv(tmp_path / "s.csv"))
        grid = default_tau_grid(s)
        cases.append((s, embedding_dimension(s), np.linspace(grid[0], grid[-1], 200)))
    for k, d in ((3, 6), (5, 9)):
        s = SpectrumSupport(peaks=[(1.0 + 0.7 * i, 1.0) for i in range(k)], threshold=0.1)
        cases.append((s, d, np.linspace(0.003, 9.0, 4500)))
    for s, d, grid in cases:
        curve = delay_curve(s, d, grid)
        expected = [(tau, per_delay_score(s, d, tau)) for tau in sorted(grid.tolist())]
        assert np.array(curve).tobytes() == np.array(expected).tobytes()
        assert [orthogonality_score(s, d, tau) for tau, _ in curve[:3]] == [
            score for _, score in expected[:3]]


def test_default_tau_grid():
    s = SpectrumSupport(peaks=[(0.5, 1.0), (2.0, 1.0)], threshold=0.1)
    grid = default_tau_grid(s, count=10)
    assert len(grid) == 10
    assert grid[-1] == pytest.approx(4 * math.pi)  # longest period
    assert grid[0] == pytest.approx(4 * math.pi / 10)
    assert np.all(grid > 0)
    for count in (0, -3):
        with pytest.raises(ValueError, match="at least one"):
            default_tau_grid(s, count=count)


def test_sliding_window_circle():
    # sin embedded with d=2, tau = quarter period gives (sin t, cos t);
    # tau is an exact multiple of dt so interpolation is exact
    n = 1001
    t = np.linspace(0.0, 2 * math.pi, n)
    ts = TimeSeries(t0=0.0, dt=float(t[1] - t[0]), values=np.sin(t))
    tau = 250 * ts.dt
    pc = sliding_window(ts, EmbeddingParams(d=2, tau=tau))
    assert len(pc) == 751
    assert np.allclose(pc.labels, t[:751])
    assert np.allclose(pc.points[:, 0], np.sin(t[:751]), atol=1e-12)
    assert np.allclose(pc.points[:, 1], np.sin(t[:751] + tau), atol=1e-12)
    radii = np.linalg.norm(pc.points, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-6)


def test_sliding_window_errors():
    ts = TimeSeries(t0=0.0, dt=1.0, values=np.arange(5.0))
    with pytest.raises(ValueError, match="window exceeds"):
        sliding_window(ts, EmbeddingParams(d=3, tau=2.5))
    # a span equal to the full duration keeps exactly one window
    pc = sliding_window(ts, EmbeddingParams(d=3, tau=2.0))
    assert len(pc) == 1
    with pytest.raises(ValueError):
        EmbeddingParams(d=0, tau=1.0)
    with pytest.raises(ValueError):
        EmbeddingParams(d=2, tau=0.0)


def test_labeled_point_cloud_validation():
    pts = np.zeros((3, 2))
    with pytest.raises(ValueError):
        LabeledPointCloud(points=pts, labels=np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        LabeledPointCloud(points=pts, labels=np.array([0.0, 1.0, 1.0]))
    with pytest.raises(ValueError):
        LabeledPointCloud(points=np.zeros(3), labels=np.arange(3.0))


@pytest.mark.parametrize("points, labels, message", [
    ([[0.0], [1.0], [2.0]], [0.0, np.nan, 2.0], "labels must be finite"),
    ([[0.0], [1.0], [2.0]], [np.nan, 1.0, 2.0], "labels must be finite"),
    ([[0.0], [1.0], [2.0]], [0.0, 1.0, np.inf], "labels must be finite"),
    ([[0.0], [np.nan], [2.0]], [0.0, 1.0, 2.0], "points must be finite"),
    ([[0.0], [1.0], [-np.inf]], [0.0, 1.0, 2.0], "points must be finite"),
])
def test_labeled_point_cloud_refuses_non_finite_input(points, labels, message):
    with pytest.raises(ValueError, match=message):
        LabeledPointCloud(points=np.array(points), labels=np.array(labels))


def test_time_series_refuses_non_finite_input(tmp_path):
    for values in ([0.0, np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="series values must be finite"):
            TimeSeries(t0=0.0, dt=1.0, values=values)
    with pytest.raises(ValueError, match="dt must be positive"):
        TimeSeries(t0=0.0, dt=np.nan, values=[1.0, 2.0])
    for t0, dt in ((np.nan, 1.0), (0.0, np.inf)):
        with pytest.raises(ValueError, match="t0 and dt must be finite"):
            TimeSeries(t0=t0, dt=dt, values=[1.0, 2.0])
    path = tmp_path / "nan.csv"
    path.write_text("t,value\n0.0,1.0\n1.0,nan\n2.0,3.0\n")
    with pytest.raises(ValueError, match="series values must be finite"):
        read_series_csv(path)
    path.write_text("t,value\n0.0,1.0\nnan,2.0\n2.0,3.0\n")
    with pytest.raises(ValueError, match="non-uniform"):
        read_series_csv(path)


def test_subsample_even_spacing():
    pc = LabeledPointCloud(points=np.arange(20.0).reshape(10, 2),
                           labels=np.arange(10.0))
    sub = subsample(pc, 3)
    assert list(sub.labels) == [0.0, 4.0, 9.0]
    assert list(subsample_indices(10, 3)) == [0, 4, 9]
    full = subsample(pc, 10)
    assert np.array_equal(full.points, pc.points)
    ends = subsample(pc, 2)
    assert list(ends.labels) == [0.0, 9.0]
    with pytest.raises(ValueError):
        subsample(pc, 1)
    with pytest.raises(ValueError):
        subsample(pc, 11)


def test_csv_round_trip(tmp_path):
    ts = tone(n=50, t_end=7.3)
    path = tmp_path / "series.csv"
    write_series_csv(ts, path)
    back = read_series_csv(path)
    assert back.t0 == ts.t0
    assert back.dt == pytest.approx(ts.dt, rel=1e-12)
    assert np.array_equal(back.values, ts.values)


def test_csv_header_optional(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("0.0,1.0\n1.0,2.0\n2.0,3.0\n")
    ts = read_series_csv(path)
    assert ts.n == 3
    assert list(ts.values) == [1.0, 2.0, 3.0]
    # blank lines, empty cells and whitespace-only lines are skipped
    path.write_text("t,value\n\n0.0,1.0\n,\n1.0,2.0\n  \n2.0,3.0\n\n")
    ts = read_series_csv(path)
    assert (ts.t0, ts.dt, ts.values.tolist()) == (0.0, 1.0, [1.0, 2.0, 3.0])


def test_csv_errors(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,value\n0.0,1.0\nnot,a row\n")
    with pytest.raises(ValueError, match="malformed"):
        read_series_csv(bad)
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("0.0,1.0\n1.0,2.0\n2.5,3.0\n")
    with pytest.raises(ValueError, match="non-uniform"):
        read_series_csv(uneven)
    short = tmp_path / "short.csv"
    short.write_text("t,value\n0.0,1.0\n")
    with pytest.raises(ValueError, match="at least 2"):
        read_series_csv(short)
