"""Detector statistics against independent scalar oracles.

The oracles below evaluate the defining sums term by term with
math.fsum, sharing no code with the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zvnav.core import NoiseModel
from zvnav.detectors import (
    are_log_lr,
    are_log_lr_trace,
    get_detector,
    shoe_log_lr,
    shoe_log_lr_trace,
)
from zvnav.errors import DegenerateWindowError

from conftest import window_of


def brute_shoe(accel_rows, gyro_rows, sigma_a, sigma_w, g):
    n = len(accel_rows)
    abar = [math.fsum(row[i] for row in accel_rows) / n for i in range(3)]
    norm = math.sqrt(math.fsum(c * c for c in abar))
    u = [c / norm for c in abar]
    terms = []
    for a, w in zip(accel_rows, gyro_rows):
        res = [a[i] - g * u[i] for i in range(3)]
        terms.append(
            math.fsum(c * c for c in res) / sigma_a**2
            + math.fsum(c * c for c in w) / sigma_w**2
        )
    return -0.5 * math.fsum(terms)


def brute_are(gyro_rows, sigma_w):
    return -0.5 * math.fsum(
        math.fsum(c * c for c in w) / sigma_w**2 for w in gyro_rows
    )


class TestShoeFrozenValues:
    def test_perfect_stationarity_is_exactly_zero(self):
        w = window_of([[0, 0, 9.81]] * 5, [[0, 0, 0]] * 5)
        nm = NoiseModel(sigma_a=0.3, sigma_w=0.02, gravity_mag=9.81)
        assert shoe_log_lr(w, nm).value == 0.0

    def test_two_sample_window_minus_one(self):
        # residual term vanishes (both accels sit on the mean direction);
        # each gyro sample contributes ||w||^2 / sigma_w^2 = 0.01 / 0.01 = 1
        w = window_of([[0, 0, 9.81]] * 2, [[0.1, 0, 0], [0, 0.1, 0]])
        nm = NoiseModel(sigma_a=0.37, sigma_w=0.1, gravity_mag=9.81)
        assert shoe_log_lr(w, nm).value == pytest.approx(-1.0, abs=1e-12)

    def test_window_index_is_start_index(self):
        w = window_of([[0, 0, 9.81]] * 3, [[0, 0, 0]] * 3, start_index=7)
        nm = NoiseModel(sigma_a=0.3, sigma_w=0.02)
        assert shoe_log_lr(w, nm).window_index == 7


class TestAreFrozenValues:
    def test_zero_gyro(self):
        w = window_of([[0, 0, 9.81]] * 4, [[0, 0, 0]] * 4)
        nm = NoiseModel(sigma_a=0.3, sigma_w=0.1)
        assert are_log_lr(w, nm).value == 0.0

    def test_single_sample(self):
        w = window_of([[0, 0, 9.81]], [[0.2, 0, 0]])
        nm = NoiseModel(sigma_a=0.3, sigma_w=0.1)
        assert are_log_lr(w, nm).value == pytest.approx(-2.0, abs=1e-12)


class TestAgainstBruteForce:
    def test_randomized_windows(self, noise):
        rng = np.random.default_rng(42)
        for _ in range(300):
            accel = (rng.standard_normal((5, 3)) + [0, 0, 9.0]).tolist()
            gyro = (0.5 * rng.standard_normal((5, 3))).tolist()
            w = window_of(accel, gyro)
            expected = brute_shoe(
                accel, gyro, noise.sigma_a, noise.sigma_w, noise.gravity_mag
            )
            got = shoe_log_lr(w, noise).value
            assert got == pytest.approx(expected, rel=1e-12)
            assert are_log_lr(w, noise).value == pytest.approx(
                brute_are(gyro, noise.sigma_w), rel=1e-12
            )

    def test_trace_matches_per_window(self, noise):
        rng = np.random.default_rng(7)
        n_samples, n = 60, 5
        accel = rng.standard_normal((n_samples, 3)) + [0, 0, 9.5]
        gyro = 0.3 * rng.standard_normal((n_samples, 3))
        trace = shoe_log_lr_trace(accel, gyro, n, noise)
        assert np.isnan(trace[: n - 1]).all()
        for end in range(n - 1, n_samples):
            rows_a = accel[end - n + 1 : end + 1].tolist()
            rows_g = gyro[end - n + 1 : end + 1].tolist()
            w = window_of(rows_a, rows_g, start_index=end - n + 1)
            assert trace[end] == pytest.approx(
                shoe_log_lr(w, noise).value, rel=1e-12
            )
        atrace = are_log_lr_trace(accel, gyro, n, noise)
        for end in range(n - 1, n_samples):
            assert atrace[end] == pytest.approx(
                brute_are(gyro[end - n + 1 : end + 1].tolist(), noise.sigma_w),
                rel=1e-12,
            )

    def test_trace_shorter_than_window_is_all_nan(self, noise):
        accel = np.tile([0.0, 0.0, 9.81], (3, 1))
        gyro = np.zeros((3, 3))
        assert np.isnan(shoe_log_lr_trace(accel, gyro, 5, noise)).all()
        assert np.isnan(are_log_lr_trace(accel, gyro, 5, noise)).all()


class TestProperties:
    def test_never_positive(self, noise):
        rng = np.random.default_rng(3)
        for _ in range(100):
            accel = rng.normal([0, 0, 9.81], 2.0, (5, 3)).tolist()
            gyro = rng.normal(0, 1.0, (5, 3)).tolist()
            assert shoe_log_lr(window_of(accel, gyro), noise).value <= 0.0
            assert are_log_lr(window_of(accel, gyro), noise).value <= 0.0

    def test_permutation_invariance(self, noise):
        rng = np.random.default_rng(11)
        accel = rng.normal([0, 0, 9.81], 1.0, (6, 3))
        gyro = rng.normal(0, 0.2, (6, 3))
        base = shoe_log_lr(window_of(accel.tolist(), gyro.tolist()), noise).value
        for _ in range(10):
            perm = rng.permutation(6)
            shuffled = shoe_log_lr(
                window_of(accel[perm].tolist(), gyro[perm].tolist()), noise
            ).value
            assert shuffled == pytest.approx(base, rel=1e-12)

    @given(scale=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=40, deadline=None)
    def test_gyro_scaling_never_increases(self, scale):
        nm = NoiseModel(sigma_a=0.5, sigma_w=0.05)
        rng = np.random.default_rng(5)
        accel = rng.normal([0, 0, 9.81], 0.5, (5, 3))
        gyro = rng.normal(0, 0.1, (5, 3))
        base = shoe_log_lr(window_of(accel.tolist(), gyro.tolist()), nm).value
        scaled = shoe_log_lr(
            window_of(accel.tolist(), (scale * gyro).tolist()), nm
        ).value
        assert scaled <= base + 1e-12

    def test_decomposition_gyro_term_equals_are(self, noise):
        rng = np.random.default_rng(6)
        for _ in range(50):
            accel = rng.normal([0, 0, 9.81], 1.0, (5, 3)).tolist()
            gyro = rng.normal(0, 0.3, (5, 3)).tolist()
            w = window_of(accel, gyro)
            shoe = shoe_log_lr(w, noise).value
            are = are_log_lr(w, noise).value
            accel_only = brute_shoe(
                accel, [[0, 0, 0]] * 5, noise.sigma_a, noise.sigma_w, noise.gravity_mag
            )
            assert shoe == pytest.approx(accel_only + are, rel=1e-12, abs=1e-12)


class TestDegenerateWindows:
    def test_zero_mean_accel_raises(self, noise):
        accel = [[1.0, 0, 0], [-1.0, 0, 0]]
        gyro = [[0, 0, 0]] * 2
        with pytest.raises(DegenerateWindowError):
            shoe_log_lr(window_of(accel, gyro), noise)

    def test_trace_carries_previous_direction(self, noise):
        # sample 2 makes the window at (1, 2) degenerate; its statistic must
        # reuse the direction from the window at (0, 1)
        accel = np.array([[0, 0, 9.81], [0, 0, 9.81], [0, 0, -9.81], [0, 0, 9.81]])
        gyro = np.zeros((4, 3))
        trace = shoe_log_lr_trace(accel, gyro, 2, noise)
        w_prev = window_of(accel[0:2].tolist(), gyro[0:2].tolist())
        u = np.array([0.0, 0.0, 1.0])  # carried direction
        expected = -0.5 * (
            np.sum((accel[1:3] - 9.81 * u) ** 2) / noise.sigma_a**2
        )
        assert shoe_log_lr(w_prev, noise).value == trace[1]
        assert trace[2] == pytest.approx(expected, rel=1e-12)

    def test_trace_first_window_degenerate_raises(self, noise):
        accel = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 9.81]])
        gyro = np.zeros((3, 3))
        with pytest.raises(DegenerateWindowError):
            shoe_log_lr_trace(accel, gyro, 2, noise)


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_detector("shoe").per_window is shoe_log_lr
        assert get_detector("are").trace is are_log_lr_trace

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            get_detector("magnitude")

    def test_bare_callable_rejected(self):
        # a detector is a registered name or a DetectorSpec with both forms
        spec = get_detector("shoe")
        assert get_detector(spec) is spec
        with pytest.raises(TypeError):
            get_detector(shoe_log_lr)
