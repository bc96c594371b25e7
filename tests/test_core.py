import math

import numpy as np
import pytest

import zvnav
from zvnav.core import (
    ImuSample,
    ImuWindow,
    NoiseModel,
    Recording,
    stream_to_arrays,
    validate_stream,
)
from zvnav.detectors import shoe_log_lr, shoe_log_lr_trace
from zvnav.errors import StreamFormatError
from zvnav.ins import run_pipeline
from zvnav.threshold import ThresholdParams

from conftest import make_samples, uniform_stream, window_of


def _stream(n, fs=250.0, seed=0):
    """A (t, accel, gyro) array triple."""
    return uniform_stream(np.random.default_rng(seed), n, fs)


class TestImuSample:
    def test_coerces_to_float_arrays(self):
        s = ImuSample(0, [1, 2, 3], (4, 5, 6))
        assert s.accel.dtype == float and s.accel.shape == (3,)
        assert s.gyro.dtype == float

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ImuSample(0.0, [1, 2], [0, 0, 0])
        with pytest.raises(ValueError):
            ImuSample(0.0, [1, 2, 3], [[0, 0, 0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            ImuSample(0.0, [np.nan, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            ImuSample(math.inf, [0, 0, 9.81], [0, 0, 0])

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            ImuSample(-0.1, [0, 0, 9.81], [0, 0, 0])


class TestImuWindow:
    def test_matrices_shapes(self):
        w = ImuWindow(tuple(make_samples(*_stream(5))), 0)
        assert w.accel_matrix().shape == (5, 3)
        assert w.gyro_matrix().shape == (5, 3)
        assert len(w) == 5

    def test_requires_increasing_times(self):
        s = make_samples(*_stream(3))
        with pytest.raises(ValueError):
            ImuWindow((s[0], s[2], s[1]), 0)

    def test_requires_nonempty(self):
        with pytest.raises(ValueError):
            ImuWindow((), 0)


class TestNoiseModel:
    def test_defaults(self):
        nm = NoiseModel(sigma_a=0.1, sigma_w=0.01)
        assert nm.gravity_mag == 9.81
        assert nm.sigma_zupt == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma_a=0.0, sigma_w=0.01),
            dict(sigma_a=0.1, sigma_w=-1.0),
            dict(sigma_a=0.1, sigma_w=0.01, gravity_mag=0.0),
            dict(sigma_a=0.1, sigma_w=0.01, sigma_zupt=0.0),
        ],
    )
    def test_rejects_nonpositive(self, kwargs):
        with pytest.raises(ValueError):
            NoiseModel(**kwargs)


class TestSlidingWindows:
    """The causal stride-1 windows that a detector trace scores: entry k
    covers samples k-n+1 .. k, so m samples give m-n+1 windows and the
    first n-1 entries are NaN."""

    def test_exact_fit_single_window(self, noise):
        t, accel, gyro = _stream(5)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        assert np.isnan(trace[:4]).all()
        assert trace[4] == shoe_log_lr(window_of(accel, gyro), noise).value

    def test_seven_samples_three_windows(self, noise):
        t, accel, gyro = _stream(7)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        assert np.flatnonzero(np.isfinite(trace)).tolist() == [4, 5, 6]

    def test_thousand_samples_at_250hz(self, noise):
        t, accel, gyro = _stream(1000, fs=250.0)
        scored = np.flatnonzero(np.isfinite(shoe_log_lr_trace(accel, gyro, 5, noise)))
        assert len(scored) == 996
        for k in (scored[0], scored[-1]):
            assert t[k] - t[k - 4] == pytest.approx(4 * 0.004, rel=1e-12)

    def test_count_invariant(self, noise):
        for n in range(1, 30, 7):
            t, accel, gyro = _stream(n)
            trace = shoe_log_lr_trace(accel, gyro, 5, noise)
            assert np.isfinite(trace).sum() == max(0, n - 5 + 1)

    def test_reconstruction_property(self, noise):
        # entry k is the statistic of the window of samples k-4 .. k alone
        t, accel, gyro = _stream(23)
        trace = shoe_log_lr_trace(accel, gyro, 5, noise)
        for k in range(4, 23):
            window = window_of(accel[k - 4 : k + 1], gyro[k - 4 : k + 1], k - 4)
            assert trace[k] == pytest.approx(shoe_log_lr(window, noise).value, rel=1e-12)

    def test_short_stream_raises(self, noise):
        t, accel, gyro = _stream(4)
        assert np.isnan(shoe_log_lr_trace(accel, gyro, 5, noise)).all()
        for n in (0, 1):  # and the filter needs two samples
            with pytest.raises(StreamFormatError):
                run_pipeline(_stream(n), "shoe", ThresholdParams(-10.0), noise)

    def test_nonmonotone_raises(self, noise):
        t, accel, gyro = _stream(6)
        t[[3, 4]] = t[[4, 3]]
        with pytest.raises(StreamFormatError) as err:
            run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-10.0), noise)
        assert err.value.index == 4

    def test_bad_window_length(self, noise):
        t, accel, gyro = _stream(5)
        with pytest.raises(ValueError):
            shoe_log_lr_trace(accel, gyro, 0, noise)


class TestValidateStream:
    def test_uniform_stream_ok(self):
        diag = validate_stream(_stream(100, fs=250.0))
        assert diag.ok
        assert diag.median_period == pytest.approx(0.004, rel=1e-9)
        diag.raise_if_bad()

    def test_nan_component_flagged(self):
        t = np.arange(10) / 250.0
        accel = np.tile([0.0, 0.0, 9.81], (10, 1))
        gyro = np.zeros((10, 3))
        accel[4, 1] = np.nan
        diag = validate_stream((t, accel, gyro))
        assert not diag.ok
        assert diag.first_bad_index == 4
        with pytest.raises(StreamFormatError):
            diag.raise_if_bad()

    def test_duplicate_timestamp_flagged(self):
        t = np.arange(10) / 250.0
        t[6] = t[5]
        accel = np.tile([0.0, 0.0, 9.81], (10, 1))
        gyro = np.zeros((10, 3))
        diag = validate_stream((t, accel, gyro))
        assert not diag.ok
        assert diag.first_bad_index == 6
        assert "non-increasing" in diag.message

    def test_rate_gap_flagged(self):
        t = np.arange(20) / 250.0
        t[10:] += 0.05  # dropped packets
        accel = np.tile([0.0, 0.0, 9.81], (20, 1))
        gyro = np.zeros((20, 3))
        diag = validate_stream((t, accel, gyro))
        assert not diag.ok
        assert diag.first_bad_index == 10

    def test_empty_stream(self):
        diag = validate_stream(_stream(0))
        assert not diag.ok


def test_stream_array_round_trip():
    # an array triple, a Recording of it and nested lists give the same arrays
    stream = _stream(17)
    for form in (stream, Recording("r0", *stream), tuple(x.tolist() for x in stream)):
        assert all(np.array_equal(a, b) for a, b in zip(stream_to_arrays(form), stream))
    with pytest.raises(TypeError):  # per-sample objects are not a stream
        stream_to_arrays(make_samples(*stream))


def test_package_exports_resolve():
    # every exported name exists, so no export outlives its definition
    assert len(set(zvnav.__all__)) == len(zvnav.__all__)
    for name in zvnav.__all__:
        getattr(zvnav, name)


class TestRecording:
    def test_basic(self):
        t, accel, gyro = _stream(10)
        rec = Recording("r0", t, accel, gyro, gait_tag="normal", loop_length_m=84.0)
        assert len(rec) == 10
        assert rec.duration == pytest.approx(t[-1] - t[0])

    def test_rejects_mismatched_labels(self):
        t, accel, gyro = _stream(10)
        with pytest.raises(ValueError):
            Recording("r0", t, accel, gyro, stationary=np.zeros(9, dtype=bool))

    def test_rejects_nonmonotone_time(self):
        t, accel, gyro = _stream(10)
        t[5] = t[4]
        with pytest.raises(ValueError):
            Recording("r0", t, accel, gyro)
