"""Threshold math against scalar oracles and the cross-route identity."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from zvnav.detectors import shoe_log_lr_trace
from zvnav.errors import CalibrationDataError, ConfigError
from zvnav.ins import (
    NavState,
    ProcessNoise,
    _filter_lanes,
    default_initial_covariance,
    run_recordings,
)
from zvnav.threshold import (
    LossParams,
    PriorParams,
    ThresholdParams,
    calibrate,
    hypothesis_prior,
    interp_quantile,
    log_threshold,
    loss_factor,
    params_from_bayes,
    threshold_from_bayes,
)


class TestLossFactor:
    def test_dt_zero(self):
        assert loss_factor(LossParams(100.0, 2.0), 0.0) == 100.0

    def test_decay_frozen_value(self):
        # 100 * exp(-2), evaluated by an independent scalar route
        assert loss_factor(LossParams(100.0, 2.0), 1.0) == pytest.approx(
            13.533528323661270, rel=1e-14
        )

    def test_floor_binds(self):
        assert loss_factor(LossParams(100.0, 2.0, floor=20.0), 1.0) == 20.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            loss_factor(LossParams(100.0, 2.0), -0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0, theta=1.0),
            dict(alpha=-5.0, theta=1.0),
            dict(alpha=1.0, theta=-0.5),
            dict(alpha=1.0, theta=1.0, floor=-1.0),
            dict(alpha=math.inf, theta=1.0),
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(ConfigError):
            LossParams(**kwargs)


class TestHypothesisPrior:
    def test_zero_coefficients_give_half(self):
        assert hypothesis_prior(PriorParams(0.0, 0.0), 3.7) == 0.5

    def test_informative_at_zero_xi(self):
        assert hypothesis_prior(PriorParams(1.0, 0.0), 0.0) == 0.5

    def test_monotone_decreasing_in_xi(self):
        prior = PriorParams(1.0, 0.0)
        values = [hypothesis_prior(prior, xi) for xi in (0.0, 1.0, 5.0, 50.0, 500.0)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-100

    def test_open_interval_bounds(self):
        assert 0.0 < hypothesis_prior(PriorParams(1.0, 0.0), 1e6) < 1.0
        assert 0.0 < hypothesis_prior(PriorParams(0.0, -1e6), 0.0) < 1.0

    def test_uninformative_ignores_everything(self):
        prior = PriorParams(5.0, -3.0, "uninformative")
        assert hypothesis_prior(prior, 123.0) == 0.5

    def test_negative_xi_rejected_when_informative(self):
        with pytest.raises(ValueError):
            hypothesis_prior(PriorParams(1.0, 0.0), -1.0)

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            PriorParams(0.0, 0.0, "agnostic")


class TestLogThreshold:
    def test_fixed_is_constant(self):
        params = ThresholdParams(-7.5)
        for dt in (0.0, 0.004, 3.0):
            for xi in (None, 0.0, 12.0):
                assert log_threshold(params, dt, xi) == -7.5

    def test_frozen_value(self):
        assert log_threshold(ThresholdParams(10.0, -3.0, 0.0), 2.0, 99.0) == 4.0

    def test_xi_none_drops_speed_term(self):
        params = ThresholdParams(1.0, 0.0, 5.0)
        assert log_threshold(params, 0.0, None) == 1.0
        assert log_threshold(params, 0.0, 2.0) == 11.0

    def test_negative_dt_rejected(self):
        with pytest.raises(ValueError):
            log_threshold(ThresholdParams(0.0), -1.0, 0.0)
        with pytest.raises(ValueError):
            log_threshold(ThresholdParams(0.0), np.array([[0.5, -1e-12]]), None)

    def test_elementwise_matches_scalar_calls(self):
        # lane-stacked (R, C) coefficients, dt and xi, as the filter loop
        # passes them: each entry equals its scalar call bit for bit, and a
        # NaN xi drops the c3 term exactly as xi=None does
        rng = np.random.default_rng(7)
        shape = (3, 5)
        stacked = SimpleNamespace(c1=rng.uniform(-100.0, 0.0, shape),
                                  c2=rng.uniform(-2000.0, 0.0, shape),
                                  c3=rng.uniform(-0.01, 0.01, shape))
        stacked.c3[:, 0] = 0.0
        dt = rng.uniform(0.0, 2.0, shape)
        xi = np.exp(rng.uniform(-3.0, 14.0, shape))
        xi[rng.random(shape) < 0.4] = np.nan
        got = log_threshold(stacked, dt, xi)
        assert got.shape == shape
        for r, c in np.ndindex(*shape):
            params = ThresholdParams(stacked.c1[r, c], stacked.c2[r, c], stacked.c3[r, c])
            ev = None if math.isnan(xi[r, c]) else xi[r, c]
            assert got[r, c] == log_threshold(params, dt[r, c], ev)
        no_xi = log_threshold(stacked, dt, None)
        assert np.array_equal(log_threshold(stacked, dt, np.full(shape, np.nan)), no_xi)
        assert np.array_equal(got[np.isnan(xi)], no_xi[np.isnan(xi)])

    def test_c2_positive_warns(self):
        with pytest.warns(UserWarning) as record:
            ThresholdParams(0.0, c2=0.5)
        # reported where the parameters are built, not in the generated __init__
        assert record[0].filename == __file__

    def test_c2_nonpositive_silent(self, recwarn):
        ThresholdParams(0.0, c2=0.0)
        ThresholdParams(0.0, c2=-3.0)
        assert len(recwarn) == 0


class TestCrossRouteIdentity:
    def test_randomized_identity(self):
        # composed loss/prior route vs direct coefficients; ranges keep the
        # logistic argument above about -6 so (1 - p) retains full precision
        rng = np.random.default_rng(1234)
        for _ in range(2000):
            alpha = math.exp(rng.uniform(-3.0, 6.0))
            theta = rng.uniform(0.0, 5.0)
            beta1 = rng.uniform(0.0, 3.0)
            beta2 = rng.uniform(-5.0, 5.0)
            xi = rng.uniform(0.0, 4.0)
            dt = rng.uniform(0.0, 10.0)
            loss = LossParams(alpha, theta)
            prior = PriorParams(beta1, beta2)
            composed = threshold_from_bayes(loss, prior, dt, xi)
            direct = log_threshold(params_from_bayes(loss, prior), dt, xi)
            by_hand = (beta2 + math.log(alpha)) - theta * dt + beta1 * xi
            assert abs(composed - direct) < 1e-12
            assert direct == pytest.approx(by_hand, abs=1e-12)

    def test_uninformative_mapping(self):
        loss = LossParams(50.0, 1.5)
        params = params_from_bayes(loss, PriorParams.uninformative())
        assert params.c1 == math.log(50.0)
        assert params.c2 == -1.5
        assert params.c3 == 0.0
        composed = threshold_from_bayes(loss, PriorParams.uninformative(), 2.0, 77.0)
        assert composed == pytest.approx(log_threshold(params, 2.0, 77.0), abs=1e-12)


class TestDecide:
    """The decision rule lives in the filter loop: a lane fires where the
    statistic strictly exceeds log_threshold. With c2 = c3 = 0 the
    threshold is c1 at every sample, so each lane's decisions are
    logl > c1 exactly."""

    @pytest.fixture
    def stream(self, noise):
        rng = np.random.default_rng(11)
        t = np.arange(40) / 250.0
        accel = np.array([0.0, 0.0, 9.81]) + 0.3 * rng.standard_normal((40, 3))
        gyro = 0.03 * rng.standard_normal((40, 3))
        return (t, accel, gyro), shoe_log_lr_trace(accel, gyro, 5, noise)

    def test_frozen_trio(self, noise, stream):
        triple, logl = stream
        k = 17
        level = logl[k]
        lanes = [ThresholdParams(level), ThresholdParams(np.nextafter(level, -np.inf)),
                 ThresholdParams(np.nextafter(level, np.inf))]
        (reports,) = run_recordings([triple], "shoe", lanes, noise)
        # a tie does not fire; one ulp below the statistic does
        assert [r.decisions[k] for r in reports] == [False, True, False]
        for lane, report in zip(lanes, reports):
            assert np.array_equal(report.logl_trace, logl, equal_nan=True)
            assert np.array_equal(report.decisions[4:], logl[4:] > lane.c1)

    def test_nan_statistic_is_moving(self, noise, stream):
        (t, accel, gyro), logl = stream
        # a threshold every finite statistic crosses: warm-up NaN and a NaN
        # statistic mid-stream are the only samples that do not fire
        logl = logl.copy()
        logl[20] = np.nan
        out = _filter_lanes(t, accel, gyro, NavState.identity(), default_initial_covariance(),
                            noise, ProcessNoise.from_sample_noise(noise, 250.0), 0,
                            lanes=[ThresholdParams(-1e300)], logl=logl)
        assert np.flatnonzero(~out.decisions[:, 0]).tolist() == [0, 1, 2, 3, 20]

    @given(
        logl=st.floats(min_value=-1e6, max_value=0.0),
        c1=st.floats(min_value=-1e6, max_value=10.0),
        offset=st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_offset_invariance(self, logl, c1, offset):
        # adding a constant to every statistic and to c1 changes no decision,
        # except at knife-edge ties where the additions themselves round
        margin = abs(logl - c1)
        assume(margin > 1e-9 * max(1.0, abs(logl), abs(c1), abs(offset)))
        base = logl > log_threshold(ThresholdParams(c1), 0.0, None)
        shifted = logl + offset > log_threshold(ThresholdParams(c1 + offset), 0.0, None)
        assert base == shifted


class TestInterpQuantile:
    def test_extrapolates_below_minimum(self):
        values = list(range(-10, 0))  # -10 .. -1
        c1 = interp_quantile(values, 0.05)
        # plotting positions i/11; 0.05 sits below 1/11, so extrapolate the
        # first segment: -10 + (0.05 - 1/11) * 11 = -10.45
        assert c1 == pytest.approx(-10.45, abs=1e-9)
        assert c1 < min(values)
        assert sum(v < c1 for v in values) == 0

    def test_median_of_three(self):
        assert interp_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)

    def test_interior_interpolation(self):
        # two points at positions 1/3 and 2/3; q = 0.5 lands midway
        assert interp_quantile([0.0, 6.0], 0.5) == pytest.approx(3.0)

    def test_extrapolates_above_maximum(self):
        values = [0.0, 1.0, 2.0]
        q = interp_quantile(values, 0.99)
        assert q > 2.0

    def test_single_point(self):
        assert interp_quantile([4.2], 0.05) == 4.2

    def test_empty_rejected(self):
        with pytest.raises(CalibrationDataError):
            interp_quantile([], 0.5)

    def test_nan_rejected(self):
        with pytest.raises(CalibrationDataError):
            interp_quantile([1.0, math.nan], 0.5)

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            interp_quantile([1.0, 2.0], 1.5)

    def test_sorted_input_not_required(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(101)
        shuffled = x.copy()
        rng.shuffle(shuffled)
        assert interp_quantile(x, 0.3) == interp_quantile(shuffled, 0.3)


class TestCalibrate:
    def test_identical_sets_give_zero_c2(self):
        stat = [-5.0, -4.0, -3.0, -2.0, -1.0]
        params = calibrate(stat, stat, stat, None, 0.7, 0.05)
        assert params.c2 == 0.0
        assert params.c3 == 0.0

    def test_clustered_data_signs_and_values(self):
        rng = np.random.default_rng(77)
        stationary = rng.normal(-2.0, 0.5, 500)
        midstance = rng.normal(-50.0, 4.0, 200)
        swing = rng.normal(-400.0, 30.0, 200)
        params = calibrate(stationary, midstance, swing, 2.0, 0.7, 0.05)
        c1 = interp_quantile(stationary, 0.05)
        c2 = (interp_quantile(midstance, 0.05) - c1) / 0.7
        c3 = (interp_quantile(swing, 0.95) - c1 - c2 * 0.35) / 2.0
        assert params.c1 == pytest.approx(c1, rel=1e-12)
        assert params.c2 == pytest.approx(c2, rel=1e-12)
        assert params.c3 == pytest.approx(c3, rel=1e-12)
        assert params.c2 < 0.0

    def test_stationary_fraction_below_c1_near_epsilon(self):
        rng = np.random.default_rng(123)
        stationary = rng.normal(-3.0, 1.0, 2000)
        params = calibrate(stationary, stationary - 40.0, stationary - 300.0, None, 0.7, 0.05)
        frac = np.mean(stationary < params.c1)
        # binomial 95% band around epsilon = 0.05 for n = 2000
        band = 1.96 * math.sqrt(0.05 * 0.95 / 2000)
        assert abs(frac - 0.05) <= band + 1e-12

    def test_uninformative_sets_c3_zero(self):
        rng = np.random.default_rng(5)
        s = rng.normal(-2, 0.5, 100)
        params = calibrate(s, s - 40, s - 300, None, 0.7, 0.05)
        assert params.c3 == 0.0
        params0 = calibrate(s, s - 40, s - 300, 0.0, 0.7, 0.05)
        assert params0.c3 == 0.0

    def test_empty_set_rejected(self):
        with pytest.raises(CalibrationDataError):
            calibrate([], [-1.0], [-2.0], None, 0.7, 0.05)
        with pytest.raises(CalibrationDataError):
            calibrate([-1.0], [-1.0], [], None, 0.7, 0.05)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 0.6, -0.1])
    def test_bad_epsilon_rejected(self, epsilon):
        with pytest.raises(ConfigError):
            calibrate([-1.0], [-2.0], [-3.0], None, 0.7, epsilon)

    def test_bad_dtau_rejected(self):
        with pytest.raises(ConfigError):
            calibrate([-1.0], [-2.0], [-3.0], None, 0.0, 0.05)

    def test_negative_xi_star_rejected(self):
        with pytest.raises(ConfigError):
            calibrate([-1.0], [-2.0], [-3.0], -2.0, 0.7, 0.05)


class TestMonotonicity:
    @given(
        c2=st.floats(min_value=-50.0, max_value=-1e-3),
        dt1=st.floats(min_value=0.0, max_value=100.0),
        gap=st.floats(min_value=1e-3, max_value=100.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_threshold_decreases_with_dt(self, c2, dt1, gap):
        params = ThresholdParams(0.0, c2, 0.0)
        assert log_threshold(params, dt1 + gap, 0.0) < log_threshold(params, dt1, 0.0)

    def test_detector_cannot_starve(self):
        # any finite statistic is eventually accepted once the decaying
        # threshold drops beneath it
        params = ThresholdParams(0.0, -1.0, 0.0)
        logl = -1234.5
        dt = 0.0
        while not logl > log_threshold(params, dt, None):
            dt += 1.0
            assert dt < 1e5
        assert dt == pytest.approx(1235.0)
