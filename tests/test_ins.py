"""Filter mechanics against closed-form and explicit-inverse oracles."""

import hashlib
import math

import numpy as np
import pytest

from zvnav.cli import cmd_sweep
from zvnav.config import merge_config
from zvnav.core import ImuSample, NoiseModel, Recording
from zvnav.detectors import shoe_log_lr_trace
from zvnav.errors import NumericalError, StreamFormatError
from zvnav.gaitsim import PHASE_SWING, fast_profile, normal_profile, simulate
from zvnav.ins import (
    XI_COND_BOUND,
    NavCovariance,
    NavState,
    ProcessNoise,
    _coast,
    _coast_inputs,
    _filter_lanes,
    _label_pass,
    _process_rate,
    _propagate,
    _xi,
    _xi_stack,
    _zupt,
    align_from_standstill,
    default_initial_covariance,
    propagate,
    run_pipeline,
    run_recordings,
    xi,
    zupt_update,
)
from zvnav.quat import quat_from_rotvec, rotmat_from_quat
from zvnav.threshold import ThresholdParams

GRAV = 9.81

# `zvnav calibrate --prior informative` on the 30 s acceptance calibration
# walk (seed 777); c3 != 0, so the threshold carries the speed evidence.
CALIBRATED = ThresholdParams(-79.49285067236112, -1586.497541086487, -0.0036174878661491203)


@pytest.fixture
def nm():
    return NoiseModel(sigma_a=0.2, sigma_w=0.02, gravity_mag=GRAV, sigma_zupt=0.01)


@pytest.fixture
def pn(nm):
    return ProcessNoise.from_sample_noise(nm, 250.0)


def rest_sample(t=0.0):
    return ImuSample(t, [0.0, 0.0, GRAV], [0.0, 0.0, 0.0])


def stationary_arrays(n, fs=250.0, accel_noise=0.0, gyro_noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    accel = np.tile([0.0, 0.0, GRAV], (n, 1)) + accel_noise * rng.standard_normal((n, 3))
    gyro = gyro_noise * rng.standard_normal((n, 3))
    return t, accel, gyro


class TestStateTypes:
    def test_navstate_normalizes_quaternion(self):
        q = np.array([1.0 + 3e-7, 0.0, 0.0, 0.0])
        s = NavState(np.zeros(3), np.zeros(3), q)
        assert np.linalg.norm(s.q) == pytest.approx(1.0, abs=1e-15)

    def test_navstate_rejects_bad_norm(self):
        with pytest.raises(ValueError):
            NavState(np.zeros(3), np.zeros(3), np.array([1.1, 0, 0, 0]))

    def test_navstate_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            NavState(np.array([np.nan, 0, 0]), np.zeros(3), [1, 0, 0, 0])

    def test_covariance_rejects_asymmetry(self):
        P = np.eye(9)
        P[0, 1] = 1e-3
        with pytest.raises(ValueError):
            NavCovariance(P)

    def test_covariance_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            NavCovariance(np.eye(6))

    def test_process_noise_from_sample_noise(self, nm):
        pn = ProcessNoise.from_sample_noise(nm, 250.0)
        assert pn.accel_psd == pytest.approx(0.2 / math.sqrt(250.0), rel=1e-12)
        assert pn.gyro_psd == pytest.approx(0.02 / math.sqrt(250.0), rel=1e-12)

    def test_process_noise_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ProcessNoise(0.0, 0.01)


class TestPropagate:
    def test_equilibrium(self, nm, pn):
        state = NavState.identity()
        cov = default_initial_covariance()
        s2, c2 = propagate(state, cov, rest_sample(), 1.0 / 250.0, nm, pn)
        np.testing.assert_allclose(s2.p, 0.0, atol=1e-15)
        np.testing.assert_allclose(s2.v, 0.0, atol=1e-15)
        np.testing.assert_allclose(s2.q, state.q, atol=1e-15)
        assert np.trace(c2.P) > np.trace(cov.P)

    def test_quarter_turn_heading(self, nm, pn):
        state = NavState.identity()
        cov = default_initial_covariance()
        sample = ImuSample(0.0, [0.0, 0.0, GRAV], [0.0, 0.0, math.pi / 2])
        s2, _ = propagate(state, cov, sample, 1.0, nm, pn)
        R = rotmat_from_quat(s2.q)
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        assert np.linalg.norm(s2.q) == pytest.approx(1.0, abs=1e-12)

    def test_constant_residual_integrates_to_expected_speed(self, nm, pn):
        state = NavState.identity()
        cov = default_initial_covariance()
        sample_accel = [0.1, 0.0, GRAV]
        dt = 1.0 / 250.0
        for k in range(250):
            sample = ImuSample(k * dt, sample_accel, [0, 0, 0])
            state, cov = propagate(state, cov, sample, dt, nm, pn)
        assert np.linalg.norm(state.v) == pytest.approx(0.1, abs=1e-6)

    def test_rejects_nonpositive_dt(self, nm, pn):
        state = NavState.identity()
        cov = default_initial_covariance()
        with pytest.raises(ValueError):
            propagate(state, cov, rest_sample(), 0.0, nm, pn)


class TestZuptUpdate:
    def test_zero_velocity_is_fixed_point(self, nm):
        state = NavState.identity()
        cov = default_initial_covariance()
        s2, c2 = zupt_update(state, cov, nm)
        np.testing.assert_allclose(s2.v, 0.0, atol=1e-18)
        np.testing.assert_allclose(s2.p, state.p, atol=1e-18)
        before = np.trace(cov.P[3:6, 3:6])
        after = np.trace(c2.P[3:6, 3:6])
        assert after < before

    def test_large_prior_pulls_velocity_to_zero(self, nm):
        state = NavState(np.zeros(3), [1.0, 0.0, 0.0], [1, 0, 0, 0])
        P = np.eye(9) * 1e-6
        P[3:6, 3:6] = np.eye(3) * 100.0
        s2, _ = zupt_update(state, NavCovariance(P), nm)
        assert np.linalg.norm(s2.v) < nm.sigma_zupt

    def test_kalman_gain_limit_scalar_oracle(self, nm):
        # with prior variance sigma0^2 on one axis, the posterior velocity is
        # v * r / (sigma0^2 + r), the scalar Kalman result
        sigma0_sq, r = 0.04, nm.sigma_zupt**2
        state = NavState(np.zeros(3), [0.3, 0.0, 0.0], [1, 0, 0, 0])
        P = np.eye(9) * 1e-8
        P[3, 3] = sigma0_sq
        s2, _ = zupt_update(state, NavCovariance(P), nm)
        expected = 0.3 * r / (sigma0_sq + r)
        assert s2.v[0] == pytest.approx(expected, rel=1e-9)

    def test_velocity_trace_never_grows(self, nm, pn):
        rng = np.random.default_rng(31)
        state = NavState.identity()
        cov = default_initial_covariance()
        for k in range(200):
            sample = ImuSample(
                k / 250.0,
                [0, 0, GRAV] + 0.3 * rng.standard_normal(3),
                0.1 * rng.standard_normal(3),
            )
            state, cov = propagate(state, cov, sample, 1 / 250.0, nm, pn)
            before = np.trace(cov.P[3:6, 3:6])
            state, cov = zupt_update(state, cov, nm)
            after = np.trace(cov.P[3:6, 3:6])
            assert after <= before + 1e-15


class TestCovarianceHealthFuzz:
    def test_randomized_cycles_stay_symmetric_psd(self, nm, pn):
        rng = np.random.default_rng(32)
        state = NavState.identity()
        cov = default_initial_covariance()
        dt = 1.0 / 250.0
        for k in range(2000):
            accel = [0, 0, GRAV] + rng.standard_normal(3) * 2.0
            gyro = rng.standard_normal(3) * 1.5
            state, cov = propagate(
                state, cov, ImuSample(k * dt, accel, gyro), dt, nm, pn
            )
            if rng.random() < 0.3:
                state, cov = zupt_update(state, cov, nm)
            P = cov.P
            assert np.abs(P - P.T).max() <= 1e-9 * (1 + np.abs(P).max())
            assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.trace(P)
            assert abs(np.linalg.norm(state.q) - 1.0) <= 1e-9


class TestXi:
    def test_zero_velocity_gives_zero(self):
        state = NavState.identity()
        assert xi(state, default_initial_covariance()) == 0.0

    def test_diagonal_case(self):
        state = NavState(np.zeros(3), [0.1, 0.0, 0.0], [1, 0, 0, 0])
        P = np.eye(9) * 1e-6
        P[3:6, 3:6] = np.eye(3) * 0.01
        assert xi(state, NavCovariance(P)) == pytest.approx(1.0, rel=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 0.05 * np.eye(3)
            v = rng.standard_normal(3) * 0.5
            P = np.eye(9) * 1e-6
            P[3:6, 3:6] = S
            state = NavState(np.zeros(3), v, [1, 0, 0, 0])
            expected = float(v @ np.linalg.inv(S) @ v)
            assert xi(state, NavCovariance(P)) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 1e-3 * np.eye(3)
            P = np.eye(9) * 1e-6
            P[3:6, 3:6] = S
            state = NavState(np.zeros(3), rng.standard_normal(3), [1, 0, 0, 0])
            assert xi(state, NavCovariance(P)) >= 0.0

    def test_ill_conditioned_falls_back(self):
        state = NavState(np.zeros(3), [0.1, 0, 0], [1, 0, 0, 0])
        P = np.eye(9) * 1e-6
        P[3:6, 3:6] = np.diag([1e8, 1e-8, 1e-8])
        assert xi(state, NavCovariance(P), cond_bound=1e12) is None

    def test_singular_falls_back(self):
        state = NavState(np.zeros(3), [0.1, 0, 0], [1, 0, 0, 0])
        P = np.zeros((9, 9))
        assert xi(state, NavCovariance(P)) is None


class TestAlign:
    def test_level_platform(self, nm):
        t, accel, gyro = stationary_arrays(250)
        state = align_from_standstill((t, accel, gyro), nm)
        np.testing.assert_allclose(
            rotmat_from_quat(state.q), np.eye(3), atol=1e-12
        )

    def test_tilted_platform_recovers_vertical(self, nm):
        tilt = quat_from_rotvec(np.array([0.15, -0.1, 0.0]))
        Rt = rotmat_from_quat(tilt)
        a_body = Rt.T @ np.array([0.0, 0.0, GRAV])
        t = np.arange(250) / 250.0
        accel = np.tile(a_body, (250, 1))
        gyro = np.zeros((250, 3))
        state = align_from_standstill((t, accel, gyro), nm)
        up = rotmat_from_quat(state.q) @ (a_body / np.linalg.norm(a_body))
        np.testing.assert_allclose(up, [0, 0, 1], atol=1e-9)

    def test_uses_only_leading_window(self, nm):
        t = np.arange(500) / 250.0
        accel = np.tile([0.0, 0.0, GRAV], (500, 1))
        accel[250:] = [5.0, 5.0, 5.0]  # junk after the first second
        gyro = np.zeros((500, 3))
        state = align_from_standstill((t, accel, gyro), nm, duration_s=0.9)
        np.testing.assert_allclose(rotmat_from_quat(state.q), np.eye(3), atol=1e-12)


class TestRunPipeline:
    def test_stationary_stream_stays_put(self, nm):
        t, accel, gyro = stationary_arrays(750, accel_noise=0.05, gyro_noise=0.005, seed=1)
        report = run_pipeline(
            (t, accel, gyro), "shoe", ThresholdParams(-1e6), nm, recording_id="static"
        )
        assert report.loop_closure_error_m < 0.05
        assert report.decisions[4:].mean() > 0.99
        assert report.trajectory.shape == (750, 3)
        assert len(report.logl_trace) == 750
        assert len(report.log_gamma_trace) == 750
        assert np.isnan(report.logl_trace[:4]).all()
        assert not report.decisions[:4].any()

    def test_fixed_reduction_bit_identical(self, nm):
        t, accel, gyro = stationary_arrays(600, accel_noise=0.3, gyro_noise=0.05, seed=2)
        c1 = -30.0
        report = run_pipeline((t, accel, gyro), "shoe", ThresholdParams(c1), nm)
        with np.errstate(invalid="ignore"):
            direct = report.logl_trace > c1
        assert np.array_equal(report.decisions, direct)
        lg = report.log_gamma_trace[4:]
        assert (lg == c1).all()

    def test_adaptive_threshold_decays_between_zupts(self, nm):
        # all-moving stream: gyro too hot for any zupt; threshold must fall
        t = np.arange(500) / 250.0
        accel = np.tile([0.0, 0.0, GRAV], (500, 1))
        gyro = np.tile([3.0, 0.0, 0.0], (500, 1))
        params = ThresholdParams(-50.0, -100.0, 0.0)
        report = run_pipeline((t, accel, gyro), "shoe", params, nm)
        lg = report.log_gamma_trace[4:]
        assert (np.diff(lg) < 0).all()
        assert report.zupt_count == 0

    def test_deterministic(self, nm):
        t, accel, gyro = stationary_arrays(400, accel_noise=0.2, gyro_noise=0.02, seed=3)
        a = run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-40.0, -5.0, 0.1), nm)
        b = run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-40.0, -5.0, 0.1), nm)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.logl_trace, b.logl_trace, equal_nan=True)
        assert np.array_equal(a.log_gamma_trace, b.log_gamma_trace, equal_nan=True)
        assert a.loop_closure_error_m == b.loop_closure_error_m

    def test_explicit_init_state(self, nm):
        t, accel, gyro = stationary_arrays(300)
        init = NavState(np.array([5.0, 5.0, 0.0]), np.zeros(3), [1, 0, 0, 0])
        report = run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-10.0), nm, init=init)
        np.testing.assert_allclose(report.trajectory[0], [5.0, 5.0, 0.0], atol=1e-12)

    def test_too_short_stream_rejected(self, nm):
        t, accel, gyro = stationary_arrays(1)
        with pytest.raises(StreamFormatError):
            run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-10.0), nm)

    def test_accepts_recording_or_array_triple(self, nm):
        t, accel, gyro = stationary_arrays(300)
        rec = Recording("still", t, accel, gyro)
        (as_rec,), (as_triple,) = run_recordings([rec, (t, accel, gyro)], "shoe",
                                                 [ThresholdParams(-10.0)], nm)
        assert as_rec.trajectory.shape == (300, 3)
        assert np.array_equal(as_rec.trajectory, as_triple.trajectory)
        assert np.array_equal(as_rec.decisions, as_triple.decisions)

    def test_params_used_records_configuration(self, nm):
        t, accel, gyro = stationary_arrays(300)
        report = run_pipeline(
            (t, accel, gyro), "are", ThresholdParams(-7.0, -2.0, 0.5), nm
        )
        pu = report.params_used
        assert pu["detector"] == "are"
        assert pu["window_samples"] == 5
        assert (pu["c1"], pu["c2"], pu["c3"]) == (-7.0, -2.0, 0.5)
        assert pu["sigma_zupt"] == nm.sigma_zupt


class TestLaneKernel:
    @pytest.fixture(scope="class")
    def walks(self):
        """A normal and a fast walk of unequal lengths (1501 and 1251 samples)."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        normal = simulate(normal_profile(noise, seed=1000), 6.0)
        fast = simulate(fast_profile(noise, seed=1500), 5.0)
        return noise, [normal.to_recording("normal-00", "normal"),
                       fast.to_recording("fast-00", "fast")]

    def test_sweep_lanes_match_single_lane_runs(self, walks):
        noise, recs = walks
        grid = [-20.0, -600.0]
        lanes = [ThresholdParams(c1) for c1 in grid] + [CALIBRATED]
        singles = {}
        for rec in recs:
            (batched,) = run_recordings([rec], "shoe", lanes, noise, recording_ids=[rec.id])
            assert len(batched) == len(lanes)
            for lane, report in zip(lanes, batched):
                single = run_pipeline(rec, "shoe", lane, noise, recording_id=rec.id)
                assert report.zupt_count > 0
                assert np.array_equal(report.decisions, single.decisions)
                # stacks of different height may round the 9x9 products
                # differently; that reaches the threshold only through xi
                np.testing.assert_allclose(report.log_gamma_trace, single.log_gamma_trace,
                                           rtol=1e-9, atol=0.0)
                assert np.abs(report.trajectory - single.trajectory).max() <= 1e-9
                assert report.params_used == single.params_used
                singles[(rec.gait_tag, lane.c1)] = single.loop_closure_error_m
        cfg = merge_config({"c1": CALIBRATED.c1, "c2": CALIBRATED.c2, "c3": CALIBRATED.c3})
        rows = cmd_sweep(recs, cfg, grid)
        assert len(rows) == 3 * len(lanes)
        members = {"normal": ["normal"], "fast": ["fast"], "all": ["normal", "fast"]}
        for row in rows:
            closures = [singles[(tag, row["c1"])] for tag in members[row["subset"]]]
            expected = math.sqrt(sum(c * c for c in closures) / len(closures))
            assert row["rmse_m"] == pytest.approx(expected, rel=0.0, abs=1e-9)

    def test_recording_axis_matches_single_lane_runs(self, walks):
        """Three recordings of unequal length (1501, 1251 and 1126 samples),
        given shortest-first and unsorted so the kernel's longest-first order
        and its retirement of ended recordings both show: every (recording,
        config) lane of one call matches its own one-lane run."""
        noise, (normal, fast) = walks
        # 4.5 s: the shortest normal walk that fits two gait cycles
        short = simulate(normal_profile(noise, seed=1001), 4.5).to_recording("normal-01",
                                                                            "normal")
        recs = [fast, short, normal]
        grid = [-20.0, -600.0]
        lanes = [ThresholdParams(c1) for c1 in grid] + [CALIBRATED]
        batched = run_recordings(recs, "shoe", lanes, noise,
                                 recording_ids=[rec.id for rec in recs])
        assert [len(row) for row in batched] == [len(lanes)] * len(recs)
        closures = {}
        for rec, row in zip(recs, batched):
            for lane, report in zip(lanes, row):
                single = run_pipeline(rec, "shoe", lane, noise, recording_id=rec.id)
                assert report.recording_id == rec.id
                assert report.trajectory.shape == (len(rec.t), 3)
                assert report.zupt_count > 0
                assert np.array_equal(report.decisions, single.decisions)
                np.testing.assert_allclose(report.log_gamma_trace, single.log_gamma_trace,
                                           rtol=1e-9, atol=0.0)
                assert np.abs(report.trajectory - single.trajectory).max() <= 1e-9
                assert report.params_used == single.params_used
                closures[(rec.id, lane.c1)] = single.loop_closure_error_m
        cfg = merge_config({"c1": CALIBRATED.c1, "c2": CALIBRATED.c2, "c3": CALIBRATED.c3})
        rows = cmd_sweep(recs, cfg, grid)
        members = {"normal": [short, normal], "fast": [fast], "all": recs}
        assert len(rows) == len(members) * len(lanes)
        for row in rows:
            errs = [closures[(rec.id, row["c1"])] for rec in members[row["subset"]]]
            assert row["n_recordings"] == len(errs)
            expected = math.sqrt(sum(e * e for e in errs) / len(errs))
            assert row["rmse_m"] == pytest.approx(expected, rel=0.0, abs=1e-9)

    def test_recording_axis_keeps_invariants(self, walks):
        """P symmetric and PSD and |q| = 1 on every lane of a multi-recording
        call, including the lanes of a recording that retired early."""
        noise, recs = walks
        out = run_recordings(recs, "shoe", [ThresholdParams(-20.0), CALIBRATED], noise)
        assert len(out) == 2
        pn = ProcessNoise.from_sample_noise(noise, 250.0)
        lanes = _filter_lanes(
            [rec.t for rec in recs], [rec.accel for rec in recs], [rec.gyro for rec in recs],
            [align_from_standstill(rec, noise) for rec in recs],
            default_initial_covariance(), noise, [pn, pn], 4,
            lanes=[ThresholdParams(-20.0), CALIBRATED],
            logl=[shoe_log_lr_trace(rec.accel, rec.gyro, 5, noise) for rec in recs],
        )
        assert lanes.trajectory.shape == (len(recs[0].t), 4, 3)
        # the shorter recording's lanes hold NaN past its end
        assert np.isnan(lanes.trajectory[len(recs[1].t):, 2:]).all()
        assert np.isfinite(lanes.trajectory[:len(recs[1].t)]).all()
        for P, q in zip(lanes.P, lanes.q):
            assert np.array_equal(P, P.T)
            assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.trace(P)
            assert abs(np.linalg.norm(q) - 1.0) < 1e-9

    @pytest.mark.parametrize(
        "profile, seed, closure",
        [(normal_profile, 1000, 0.035831191255543154),
         (fast_profile, 1500, 0.027323492757000422)],
    )
    def test_acceptance_walk_closure_pinned(self, profile, seed, closure):
        """Walks 0 of the acceptance corpus (base seed 1000, 30 s) under the
        calibrated config close within 1e-9 m of the unbatched loop at
        commit 70c23b0: the kernel changes trajectories by rounding only."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        rec = simulate(profile(noise, seed=seed), 30.0).to_recording("walk", "x")
        report = run_pipeline(rec, "shoe", CALIBRATED, noise)
        assert report.loop_closure_error_m == pytest.approx(closure, rel=0.0, abs=1e-9)

    def test_informative_walk_threshold_trace_pinned(self):
        """A seeded 20 s walk under the calibrated informative config (c3 != 0,
        xi on every sample) gives the update count and the exact threshold
        trace that the kernel gave before it called log_threshold: the one
        threshold rule changes no bit. Pinned on x86-64 with numpy 2.4; the
        trace carries c3 * xi, so another BLAS may round it differently."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        rec = simulate(normal_profile(noise, seed=1000), 20.0).to_recording("walk", "x")
        report = run_pipeline(rec, "shoe", CALIBRATED, noise)
        assert report.zupt_count == 1251
        digest = hashlib.sha256(report.log_gamma_trace.tobytes()).hexdigest()
        assert digest == "cbd7d217628e76f646c948de73ac911ebe22a5f847ca787c7c300ed276f7406d"

    def test_coast_without_updates_keeps_covariance_healthy(self, nm):
        """30 s of walking with a threshold nothing crosses (c1 > 0 >= logl):
        every step propagates and symmetrizes, no update ever fires."""
        rec = simulate(normal_profile(nm, seed=1000), 30.0)
        pn = ProcessNoise.from_sample_noise(nm, 250.0)
        out = _filter_lanes(
            rec.t, rec.accel, rec.gyro, align_from_standstill(rec, nm),
            default_initial_covariance(), nm, pn, 4,
            lanes=[ThresholdParams(1.0)],
            logl=shoe_log_lr_trace(rec.accel, rec.gyro, 5, nm),
        )
        assert not out.decisions.any()
        P = out.P[0]
        assert np.isfinite(P).all()
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.trace(P)
        assert abs(np.linalg.norm(out.q[0]) - 1.0) < 1e-9

    def test_singular_innovation_covariance_raises(self, nm):
        # P_vv = -R makes S = P_vv + R exactly zero at the first update, on
        # the one-lane path and on a lane gathered from a larger stack
        t, accel, gyro = stationary_arrays(50)
        P = default_initial_covariance().P.copy()
        P[3:6, 3:6] = -nm.sigma_zupt**2 * np.eye(3)
        init = (NavState.identity(), NavCovariance(P))
        with pytest.raises(NumericalError, match="not invertible"):
            run_pipeline((t, accel, gyro), "shoe", ThresholdParams(-1e9), nm, init=init,
                         window_samples=1)
        with pytest.raises(NumericalError, match="not invertible"):
            run_recordings([(t, accel, gyro)], "shoe",
                           [ThresholdParams(1.0), ThresholdParams(-1e9)], nm, init=init,
                           window_samples=1)
        # and on a lane of the second recording of a multi-recording call: the
        # first (longer, spinning: logl = -11250) never crosses c1 = -1e3, the
        # second (at rest: logl = 0) does on its second lane
        spin = (np.arange(60) / 250.0, np.tile([0.0, 0.0, GRAV], (60, 1)),
                np.tile([3.0, 0.0, 0.0], (60, 1)))
        lanes = [ThresholdParams(1.0), ThresholdParams(-1e3)]
        (spun,) = run_recordings([spin], "shoe", lanes, nm, init=init, window_samples=1)
        assert not any(r.zupt_count for r in spun)
        with pytest.raises(NumericalError, match="not invertible"):
            run_recordings([spin, (t, accel, gyro)], "shoe", lanes, nm, init=init,
                           window_samples=1)

    def test_ill_conditioned_xi_drops_speed_term_in_loop(self, nm):
        # velocity covariance with condition 1e16 > XI_COND_BOUND: the c3 term
        # falls back to zero, so the threshold is exactly c1 + c2 * dt
        t, accel, gyro = stationary_arrays(20)
        P = default_initial_covariance().P.copy()
        P[3:6, 3:6] = np.diag([1e8, 1e-8, 1e-8])
        init = (NavState(np.zeros(3), [0.1, 0.0, 0.0], [1, 0, 0, 0]), NavCovariance(P))
        params = ThresholdParams(1.0, -2.0, 1e6)
        report = run_pipeline((t, accel, gyro), "shoe", params, nm, init=init)
        assert report.zupt_count == 0
        k = 4  # first full window
        assert report.log_gamma_trace[k] == params.c1 + params.c2 * (t[k] - t[0])


def label_pass_reference(rec, noise, pn, zupts, xi_mask):
    """The label-driven pass sample by sample through the public one-lane
    wrappers: xi on the xi_mask samples k >= 1, from the covariance before
    the update at k; also each sample's (P_vv, v) before its update."""
    state, cov = NavState.identity(), default_initial_covariance()
    xis, blocks = [], []
    for k in range(1, len(rec.t)):
        sample = ImuSample(rec.t[k - 1], rec.accel[k - 1], rec.gyro[k - 1])
        state, cov = propagate(state, cov, sample, rec.t[k] - rec.t[k - 1], noise, pn)
        blocks.append((cov.P[3:6, 3:6], state.v))
        if xi_mask[k]:
            ev = xi(state, cov)
            if ev is not None:
                xis.append(ev)
        if zupts[k]:
            state, cov = zupt_update(state, cov, noise)
    return xis, blocks


class TestCoast:
    """The label-driven pass steps from update to update: one _propagate and
    one _zupt per update sample, one closed-form _coast per run between."""

    @pytest.fixture(scope="class")
    def walk777(self):
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        return noise, simulate(normal_profile(noise, seed=777), 30.0)

    @staticmethod
    def assert_coast_matches(noise, rec, inputs, a, b, p, v, q, P):
        """_coast over samples a+1 .. b equals that many _propagate steps."""
        pn = ProcessNoise.from_sample_noise(noise, 250.0)
        q_rate = _process_rate(pn)
        g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
        dt, dq, G, fb = inputs
        cp, cv, cq, cP, vs, Pvv = _coast(p, v, q, P, G[a:b + 1], fb[a + 1:b + 1],
                                         dt[a + 1:b + 1], g_vec, q_rate)
        sp, sv, sq, sP = p[None, None], v[None, None], q[None, None], P[None, None]
        for k in range(a + 1, b + 1):
            sp, sv, sq, sP = _propagate(sp, sv, sq, sP, rec.accel[k - 1:k], dq[k:k + 1],
                                        dt[k:k + 1], g_vec, q_rate[None, None])
            j = k - a - 1
            assert np.abs(vs[j] - sv[0, 0]).max() <= 1e-9
            scale = np.abs(sP[0, 0, 3:6, 3:6]).max()
            assert np.abs(Pvv[j] - sP[0, 0, 3:6, 3:6]).max() <= 1e-9 * scale
        sp, sv, sq, sP = sp[0, 0], sv[0, 0], sq[0, 0], sP[0, 0]
        assert np.abs(cp - sp).max() <= 1e-9
        assert np.abs(cv - sv).max() <= 1e-9
        assert abs(np.linalg.norm(cq) - 1.0) <= 1e-12
        assert np.abs(cq - sq).max() <= 1e-9
        assert np.abs(cP - sP).max() <= 1e-9 * np.abs(sP).max()
        assert np.array_equal(cP, cP.T)
        assert np.linalg.eigvalsh(cP).min() >= -1e-12 * np.trace(cP)
        return sp, sv, sq, sP

    def test_coast_matches_propagate_over_30s_without_updates(self, walk777):
        noise, rec = walk777
        state = align_from_standstill(rec, noise)
        self.assert_coast_matches(noise, rec, _coast_inputs(rec.t, rec.accel, rec.gyro),
                                  0, len(rec.t) - 1, state.p, state.v, state.q,
                                  default_initial_covariance().P)

    def test_coast_matches_propagate_on_every_swing_coast(self, walk777):
        """Walk 777 under its labels, stepped per sample with _propagate and
        _zupt; each run of samples between updates is also taken by _coast
        from the same start and compared at every step and at its end."""
        noise, rec = walk777
        pn = ProcessNoise.from_sample_noise(noise, 250.0)
        inputs = _coast_inputs(rec.t, rec.accel, rec.gyro)
        dt, dq = inputs[:2]
        g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
        q_rate = _process_rate(pn)[None, None]
        zupts = rec.stationary
        state0, P0 = NavState.identity(), default_initial_covariance().P
        p, v, q, P = (x[None, None] for x in (state0.p, state0.v, state0.q, P0))
        coasts = 0
        k = 1
        while k < len(rec.t):
            if zupts[k]:
                p, v, q, P = _propagate(p, v, q, P, rec.accel[k - 1:k], dq[k:k + 1],
                                        dt[k:k + 1], g_vec, q_rate)
                p, v, q, P = _zupt(p, v, q, P, noise.sigma_zupt**2)
                k += 1
                continue
            b = k
            while b + 1 < len(rec.t) and not zupts[b + 1]:
                b += 1
            end = self.assert_coast_matches(noise, rec, inputs, k - 1, b,
                                            p[0, 0], v[0, 0], q[0, 0], P[0, 0])
            p, v, q, P = (x[None, None] for x in end)
            coasts += 1
            k = b + 1
        assert coasts >= 30

    def test_label_pass_matches_public_wrappers(self):
        """A short labelled walk with an update at the first decision sample,
        xi on update samples as well as swing, a one-sample coast and a coast
        that ends at the last sample: the same xi count, each within 1e-9."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        lab = simulate(normal_profile(noise, seed=5), 8.0)
        swing = np.flatnonzero(lab.phase == PHASE_SWING)
        n = int(swing[len(swing) // 2]) + 1  # stop inside a swing
        rec = lab.to_recording("short", "normal")
        zupts = rec.stationary[:n].copy()
        inner = np.flatnonzero(zupts[:-2] & zupts[1:-1] & zupts[2:]) + 1
        zupts[inner[len(inner) // 2]] = False  # one sample between two updates
        xi_mask = (lab.phase[:n] == PHASE_SWING) | (np.arange(n) % 7 == 0)
        assert zupts[1] and not zupts[-1] and (xi_mask & zupts).any()
        pn = ProcessNoise.from_sample_noise(noise, 250.0)
        trimmed = Recording("short", rec.t[:n], rec.accel[:n], rec.gyro[:n])
        expected, _ = label_pass_reference(trimmed, noise, pn, zupts, xi_mask)
        got = _label_pass(rec.t[:n], rec.accel[:n], rec.gyro[:n], NavState.identity(),
                          default_initial_covariance(), noise, pn, zupts, xi_mask)
        assert len(got) == len(expected) > 100
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)

    def test_label_pass_propagates_once_per_update(self, walk777, monkeypatch):
        """No silent fallback to stepping every sample: the pass over walk 777
        calls _propagate exactly once per update sample."""
        noise, rec = walk777
        calls = []
        real = _propagate

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr("zvnav.ins._propagate", spy)
        xis = _label_pass(rec.t, rec.accel, rec.gyro, NavState.identity(),
                          default_initial_covariance(), noise,
                          ProcessNoise.from_sample_noise(noise, 250.0), rec.stationary,
                          rec.phase == PHASE_SWING)
        assert len(xis) > 2000
        assert len(calls) == np.count_nonzero(rec.stationary[1:])

    def test_xi_stack_equals_scalar_xi_bit_for_bit(self):
        """On every sample's velocity covariance and velocity along a walk,
        and on the three fallback cases (det <= 0, condition above the bound,
        a non-finite value), the stacked form is the scalar form."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        rec = simulate(normal_profile(noise, seed=5), 6.0)
        pn = ProcessNoise.from_sample_noise(noise, 250.0)
        _, blocks = label_pass_reference(rec, noise, pn, rec.stationary,
                                         np.zeros(len(rec.t), dtype=bool))
        S = [b[0] for b in blocks]
        v = [b[1] for b in blocks]
        fallback = [
            (np.zeros((3, 3)), [0.1, 0.0, 0.0]),  # det = 0
            (-np.eye(3), [0.1, 0.0, 0.0]),  # det < 0
            (np.diag([1e300, 1e5, 1e5]), [0.1, 0.0, 0.0]),  # det overflows
            (np.diag([1e8, 1e-8, 1e-8]), [0.1, 0.0, 0.0]),  # condition 1e16
            (np.eye(3), [1e200, 0.0, 0.0]),  # xi overflows
        ]
        S += [f[0] for f in fallback]
        v += [np.asarray(f[1]) for f in fallback]
        scalar = np.array([_xi(s.tolist(), u.tolist(), XI_COND_BOUND) for s, u in zip(S, v)])
        assert np.isnan(scalar[-5:]).all()
        assert np.count_nonzero(scalar > 0.0) > 1000
        stacked = _xi_stack(np.array(S), np.array(v), XI_COND_BOUND)
        assert np.array_equal(stacked, scalar, equal_nan=True)
