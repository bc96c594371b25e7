"""Filter mechanics against closed-form and explicit-inverse oracles."""

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import zvnav
from conftest import psd_at
from zvnav.cli import cmd_sweep
from zvnav.config import merge_config
from zvnav.core import NoiseModel, Recording
from zvnav.detectors import shoe_log_lr_trace
from zvnav.errors import NumericalError, StreamFormatError
from zvnav.gaitsim import PHASE_SWING, fast_profile, normal_profile, simulate
from zvnav.ins import (
    _BLOCK,
    _QMUL,
    _coast,
    _coast_inputs,
    _filter_lanes,
    _increments,
    _label_pass,
    _process_rate,
    _propagate,
    _step_inputs,
    _xi,
    _xi_stack,
    _xi_terms,
    _zupt,
    align_from_standstill,
    default_initial_covariance,
    process_noise,
    run_pipeline,
    run_recordings,
)
from zvnav.quat import quat_from_rotvec, rotmat_from_quat
from zvnav.threshold import ThresholdParams, log_threshold

GRAV = 9.81
G_VEC = np.array([0.0, 0.0, -GRAV])

# `zvnav calibrate --prior informative` on the 30 s acceptance calibration
# walk (seed 777); c3 != 0, so the threshold carries the speed evidence.
CALIBRATED = ThresholdParams(-79.49285067236112, -1586.497541086487, -0.0036174878661491203)


@pytest.fixture
def nm():
    return NoiseModel(sigma_a=0.2, sigma_w=0.02, gravity_mag=GRAV, sigma_zupt=0.01)


@pytest.fixture
def pn(nm):
    return psd_at(nm)


@pytest.fixture
def q_rate(pn):
    return _process_rate(pn)[None, None]


Q_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def one_lane(P, v=(0.0, 0.0, 0.0), q=Q_IDENTITY):
    """The state at p = 0 with velocity v and attitude q, and the covariance
    P, as the one-lane stacks (1, 1, ...) the kernels take."""
    return tuple(np.asarray(x, dtype=float)[None, None] for x in (np.zeros(3), v, q, P))


def stationary_arrays(n, fs=250.0, accel_noise=0.0, gyro_noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(n) / fs
    accel = np.tile([0.0, 0.0, GRAV], (n, 1)) + accel_noise * rng.standard_normal((n, 3))
    gyro = gyro_noise * rng.standard_normal((n, 3))
    return t, accel, gyro


class TestStateTypes:
    def test_process_noise_from_sample_noise(self, nm):
        # derived from the sigmas at the median rate unless the model sets them
        t = np.arange(100) / 250.0
        accel_psd, gyro_psd = process_noise(nm, t)
        assert accel_psd == pytest.approx(0.2 / math.sqrt(250.0), rel=1e-12)
        assert gyro_psd == pytest.approx(0.02 / math.sqrt(250.0), rel=1e-12)
        own = dataclasses.replace(nm, accel_psd=0.01, gyro_psd=0.001)
        assert process_noise(own, t) == (0.01, 0.001)

    def test_process_noise_rejects_nonpositive(self, nm):
        with pytest.raises(ValueError, match="accel_psd must be positive"):
            dataclasses.replace(nm, accel_psd=0.0, gyro_psd=0.01)
        with pytest.raises(ValueError, match="set together"):
            dataclasses.replace(nm, gyro_psd=0.01)


class TestPropagate:
    def test_equilibrium(self, q_rate):
        p, v, q, P = one_lane(default_initial_covariance())
        step = next(_step_inputs(np.array([[[0.0, 0.0, GRAV]]]),
                                 quat_from_rotvec(np.zeros((1, 1, 3))), np.array([[1.0 / 250.0]]),
                                 q_rate))
        p2, v2, q2, P2 = _propagate(p, v, q, P, step, G_VEC)
        np.testing.assert_allclose(p2, 0.0, atol=1e-15)
        np.testing.assert_allclose(v2, 0.0, atol=1e-15)
        np.testing.assert_allclose(q2, q, atol=1e-15)
        assert np.trace(P2[0, 0]) > np.trace(P[0, 0])

    def test_quarter_turn_heading(self, q_rate):
        p, v, q, P = one_lane(default_initial_covariance())
        dq = quat_from_rotvec(np.array([[[0.0, 0.0, math.pi / 2]]]))
        step = next(_step_inputs(np.array([[[0.0, 0.0, GRAV]]]), dq, np.array([[1.0]]), q_rate))
        _, _, q2, _ = _propagate(p, v, q, P, step, G_VEC)
        R = rotmat_from_quat(q2[0, 0])
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)
        assert np.linalg.norm(q2[0, 0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_residual_integrates_to_expected_speed(self, q_rate):
        p, v, q, P = one_lane(default_initial_covariance())
        accel = np.array([[[0.1, 0.0, GRAV]]])
        dq = quat_from_rotvec(np.zeros((1, 1, 3)))
        for _ in range(250):
            step = next(_step_inputs(accel, dq, np.array([[1.0 / 250.0]]), q_rate))
            p, v, q, P = _propagate(p, v, q, P, step, G_VEC)
        assert np.linalg.norm(v[0, 0]) == pytest.approx(0.1, abs=1e-6)


class TestZuptUpdate:
    def test_zero_velocity_is_fixed_point(self, nm):
        p, v, q, P = one_lane(default_initial_covariance())
        p2, v2, _, P2 = _zupt(p, v, q, P, nm.sigma_zupt**2)
        np.testing.assert_allclose(v2, 0.0, atol=1e-18)
        np.testing.assert_allclose(p2, p, atol=1e-18)
        before = np.trace(P[0, 0, 3:6, 3:6])
        after = np.trace(P2[0, 0, 3:6, 3:6])
        assert after < before

    def test_large_prior_pulls_velocity_to_zero(self, nm):
        P = np.eye(9) * 1e-6
        P[3:6, 3:6] = np.eye(3) * 100.0
        _, v2, _, _ = _zupt(*one_lane(P, v=[1.0, 0.0, 0.0]), nm.sigma_zupt**2)
        assert np.linalg.norm(v2[0, 0]) < nm.sigma_zupt

    def test_kalman_gain_limit_scalar_oracle(self, nm):
        # with prior variance sigma0^2 on one axis, the posterior velocity is
        # v * r / (sigma0^2 + r), the scalar Kalman result
        sigma0_sq, r = 0.04, nm.sigma_zupt**2
        P = np.eye(9) * 1e-8
        P[3, 3] = sigma0_sq
        _, v2, _, _ = _zupt(*one_lane(P, v=[0.3, 0.0, 0.0]), r)
        expected = 0.3 * r / (sigma0_sq + r)
        assert v2[0, 0, 0] == pytest.approx(expected, rel=1e-9)

    def test_velocity_trace_never_grows(self, nm, q_rate):
        rng = np.random.default_rng(31)
        p, v, q, P = one_lane(default_initial_covariance())
        dt = 1 / 250.0
        for _ in range(200):
            accel = [0, 0, GRAV] + 0.3 * rng.standard_normal(3)
            gyro = 0.1 * rng.standard_normal(3)
            step = next(_step_inputs(accel[None, None], quat_from_rotvec(gyro * dt)[None, None],
                                     np.array([[dt]]), q_rate))
            p, v, q, P = _propagate(p, v, q, P, step, G_VEC)
            before = np.trace(P[0, 0, 3:6, 3:6])
            p, v, q, P = _zupt(p, v, q, P, nm.sigma_zupt**2)
            after = np.trace(P[0, 0, 3:6, 3:6])
            assert after <= before + 1e-15


    @staticmethod
    def zupt_reference(p, v, q, P, r_var):
        """The update as written with np.linalg.inv and its wrapper's checks."""
        S = P[..., 3:6, 3:6] + r_var * np.eye(3)
        Kt = np.linalg.inv(S) @ P[..., 3:6, :]
        K = Kt.swapaxes(-1, -2)
        dx = (-v[..., None, :] @ Kt)[..., 0, :]
        left = (quat_from_rotvec(dx[..., 6:9]) @ _QMUL.reshape(4, 16)).reshape(q.shape + (4,))
        q = (left @ q[..., None])[..., 0]
        q = q / np.sqrt((q[..., None, :] @ q[..., :, None])[..., 0])
        A = P - K @ P[..., 3:6, :]
        P = A - A[..., 3:6] @ Kt + r_var * (K @ Kt)
        return p + dx[..., 0:3], v + dx[..., 3:6], q, 0.5 * (P + P.swapaxes(-1, -2))

    def test_inverse_matches_linalg_inv_bit_for_bit(self, nm):
        """One lane, a (3, 4) lane stack and the lanes gathered from it, as the
        loop gathers the lanes that fire: each equals the np.linalg.inv form."""
        rng = np.random.default_rng(41)
        shape = (3, 4)
        p = rng.standard_normal(shape + (3,))
        v = 0.3 * rng.standard_normal(shape + (3,))
        q = rng.standard_normal(shape + (4,))
        q /= np.linalg.norm(q, axis=-1, keepdims=True)
        A = rng.standard_normal(shape + (9, 9))
        P = 1e-3 * (A @ A.swapaxes(-1, -2))
        fire = rng.random(shape) < 0.5
        assert 1 < fire.sum() < fire.size
        r_var = nm.sigma_zupt**2
        for stack in ((p[:1, :1], v[:1, :1], q[:1, :1], P[:1, :1]), (p, v, q, P),
                      (p[fire], v[fire], q[fire], P[fire])):
            got = _zupt(*stack, r_var)
            expected = self.zupt_reference(*stack, r_var)
            for a, b in zip(got, expected):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_singular_innovation_covariance_raises_at_default_errstate(self, nm):
        """S = P_vv + r I exactly zero: a NumericalError, not a warning, from
        _zupt called on its own, on one lane and on a gathered stack."""
        P = default_initial_covariance()
        P[3:6, 3:6] = -nm.sigma_zupt**2 * np.eye(3)
        stacks = [one_lane(P), tuple(np.repeat(x[0], 2, axis=0) for x in one_lane(P))]
        for stack in stacks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NumericalError, match="not invertible"):
                    _zupt(*stack, nm.sigma_zupt**2)


    def test_inverse_falls_back_to_linalg_inv(self):
        """Where numpy has no private numpy.linalg._umath_linalg.inv, zvnav.ins
        imports with np.linalg.inv in its place: the same S^-1 bit for bit,
        the same update, and a singular S still a NumericalError. Run in a
        subprocess that deletes the gufunc before the import."""
        script = textwrap.dedent("""
            import numpy as np
            from numpy.linalg import _umath_linalg
            gufunc = _umath_linalg.inv
            del _umath_linalg.inv
            from zvnav import ins
            from zvnav.errors import NumericalError
            _umath_linalg.inv = gufunc  # np.linalg.inv calls it
            assert ins._inv is np.linalg.inv
            rng = np.random.default_rng(41)
            A = rng.standard_normal((3, 4, 9, 9))
            P = 1e-3 * (A @ A.mT)
            S = P[..., 3:6, 3:6] + 1e-4 * np.eye(3)
            assert ins._inv(S).tobytes() == gufunc(S).tobytes()
            state = (rng.standard_normal((3, 4, 3)), rng.standard_normal((3, 4, 3)),
                     np.tile([1.0, 0.0, 0.0, 0.0], (3, 4, 1)), P)
            fallback = ins._zupt(*state, 1e-4)
            ins._inv = gufunc
            for a, b in zip(fallback, ins._zupt(*state, 1e-4)):
                assert a.tobytes() == b.tobytes()
            ins._inv = np.linalg.inv
            P = ins.default_initial_covariance()
            P[3:6, 3:6] = -1e-4 * np.eye(3)
            try:
                ins._zupt(np.zeros((1, 1, 3)), np.zeros((1, 1, 3)),
                          np.array([[[1.0, 0.0, 0.0, 0.0]]]), P[None, None], 1e-4)
            except NumericalError as exc:
                print("singular:", exc)
        """)
        src = str(Path(zvnav.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
        done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("singular: innovation covariance not invertible")


class TestCovarianceHealthFuzz:
    def test_randomized_cycles_stay_symmetric_psd(self, nm, q_rate):
        rng = np.random.default_rng(32)
        p, v, q, P = one_lane(default_initial_covariance())
        dt = 1.0 / 250.0
        for _ in range(2000):
            accel = [0, 0, GRAV] + rng.standard_normal(3) * 2.0
            gyro = rng.standard_normal(3) * 1.5
            step = next(_step_inputs(accel[None, None], quat_from_rotvec(gyro * dt)[None, None],
                                     np.array([[dt]]), q_rate))
            p, v, q, P = _propagate(p, v, q, P, step, G_VEC)
            if rng.random() < 0.3:
                p, v, q, P = _zupt(p, v, q, P, nm.sigma_zupt**2)
            lane_P = P[0, 0]
            assert np.abs(lane_P - lane_P.T).max() <= 1e-9 * (1 + np.abs(lane_P).max())
            assert np.linalg.eigvalsh(lane_P).min() >= -1e-12 * np.trace(lane_P)
            assert abs(np.linalg.norm(q[0, 0]) - 1.0) <= 1e-9


class TestXi:
    """_xi(P_vv, v) as the loop calls it, on nested lists; NaN is the fallback."""

    def test_zero_velocity_gives_zero(self):
        assert _xi(default_initial_covariance()[3:6, 3:6].tolist(), [0.0, 0.0, 0.0]) == 0.0

    def test_diagonal_case(self):
        S = np.eye(3) * 0.01
        assert _xi(S.tolist(), [0.1, 0.0, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_matches_explicit_inverse(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 0.05 * np.eye(3)
            v = rng.standard_normal(3) * 0.5
            expected = float(v @ np.linalg.inv(S) @ v)
            assert _xi(S.tolist(), v.tolist()) == pytest.approx(expected, rel=1e-10)

    def test_nonnegative(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            A = rng.standard_normal((3, 3))
            S = A @ A.T + 1e-3 * np.eye(3)
            assert _xi(S.tolist(), rng.standard_normal(3).tolist()) >= 0.0

    def test_ill_conditioned_falls_back(self):
        S = np.diag([1e8, 1e-8, 1e-8])
        assert math.isnan(_xi(S.tolist(), [0.1, 0.0, 0.0]))

    def test_singular_falls_back(self):
        assert math.isnan(_xi(np.zeros((3, 3)).tolist(), [0.1, 0.0, 0.0]))


class TestAlign:
    def test_level_platform(self):
        q = align_from_standstill(Recording("still", *stationary_arrays(250)))
        np.testing.assert_allclose(rotmat_from_quat(q), np.eye(3), atol=1e-12)

    def test_tilted_platform_recovers_vertical(self):
        tilt = quat_from_rotvec(np.array([0.15, -0.1, 0.0]))
        Rt = rotmat_from_quat(tilt)
        a_body = Rt.T @ np.array([0.0, 0.0, GRAV])
        t = np.arange(250) / 250.0
        accel = np.tile(a_body, (250, 1))
        gyro = np.zeros((250, 3))
        q = align_from_standstill(Recording("tilted", t, accel, gyro))
        up = rotmat_from_quat(q) @ (a_body / np.linalg.norm(a_body))
        np.testing.assert_allclose(up, [0, 0, 1], atol=1e-9)

    def test_uses_only_leading_window(self):
        t = np.arange(500) / 250.0
        accel = np.tile([0.0, 0.0, GRAV], (500, 1))
        accel[251:] = [5.0, 5.0, 5.0]  # junk after the first second
        gyro = np.zeros((500, 3))
        q = align_from_standstill(Recording("still", t, accel, gyro))
        np.testing.assert_allclose(rotmat_from_quat(q), np.eye(3), atol=1e-12)

    @pytest.mark.parametrize("tilt, accel_noise", [((0.0, 0.0, 0.0), 0.0),
                                                   ((0.4, -0.7, 0.0), 0.0),
                                                   ((0.15, -0.1, 0.0), 0.3)],
                             ids=["level", "tilted", "noisy"])
    def test_returns_unit_quaternion(self, tilt, accel_noise):
        # the attitude the lanes start from is a (4,) quaternion of unit norm
        # to rounding, with no second normalization after the alignment
        t, _, gyro = stationary_arrays(250)
        a_body = rotmat_from_quat(quat_from_rotvec(np.array(tilt))).T @ [0.0, 0.0, GRAV]
        rng = np.random.default_rng(17)
        accel = a_body + accel_noise * rng.standard_normal((250, 3))
        q = align_from_standstill(Recording("still", t, accel, gyro))
        assert q.shape == (4,)
        assert abs(math.sqrt(q @ q) - 1.0) <= 2 * np.finfo(float).eps


class TestRunPipeline:
    def test_stationary_stream_stays_put(self, nm):
        rec = Recording("static", *stationary_arrays(750, accel_noise=0.05, gyro_noise=0.005,
                                                     seed=1))
        report = run_pipeline(rec, "shoe", ThresholdParams(-1e6), nm)
        assert report.recording_id == "static"
        assert report.loop_closure_error_m < 0.05
        assert report.decisions[4:].mean() > 0.99
        assert report.trajectory.shape == (750, 3)
        assert len(report.logl_trace) == 750
        assert len(report.log_gamma_trace) == 750
        assert np.isnan(report.logl_trace[:4]).all()
        assert not report.decisions[:4].any()

    def test_fixed_reduction_bit_identical(self, nm):
        rec = Recording("r", *stationary_arrays(600, accel_noise=0.3, gyro_noise=0.05, seed=2))
        c1 = -30.0
        report = run_pipeline(rec, "shoe", ThresholdParams(c1), nm)
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
        report = run_pipeline(Recording("spin", t, accel, gyro), "shoe", params, nm)
        lg = report.log_gamma_trace[4:]
        assert (np.diff(lg) < 0).all()
        assert report.zupt_count == 0

    def test_deterministic(self, nm):
        rec = Recording("r", *stationary_arrays(400, accel_noise=0.2, gyro_noise=0.02, seed=3))
        a = run_pipeline(rec, "shoe", ThresholdParams(-40.0, -5.0, 0.1), nm)
        b = run_pipeline(rec, "shoe", ThresholdParams(-40.0, -5.0, 0.1), nm)
        assert np.array_equal(a.trajectory, b.trajectory)
        assert np.array_equal(a.decisions, b.decisions)
        assert np.array_equal(a.logl_trace, b.logl_trace, equal_nan=True)
        assert np.array_equal(a.log_gamma_trace, b.log_gamma_trace, equal_nan=True)
        assert a.loop_closure_error_m == b.loop_closure_error_m

    def test_explicit_init_state(self, nm, pn):
        # the loop starts each recording's lanes at rest from its own q0: on
        # one level stream with no update (c1 > 0 >= logl) and no rotation,
        # the level lane stays at the origin, the tilted lane falls, and each
        # keeps its attitude
        t, accel, gyro = stationary_arrays(300)
        q0 = [Q_IDENTITY, quat_from_rotvec(np.array([0.1, 0.0, 0.0]))]
        logl = shoe_log_lr_trace(accel, gyro, 5, nm)
        out = _filter_lanes([t, t], [accel, accel], [gyro, gyro], q0,
                            default_initial_covariance(), nm, [pn, pn], 4,
                            lanes=[ThresholdParams(1.0)], logl=[logl, logl])
        assert not out.decisions.any()
        assert (out.trajectory[0] == 0.0).all()
        assert (out.trajectory[:, 0] == 0.0).all()
        assert np.linalg.norm(out.trajectory[-1, 1]) > 0.5
        np.testing.assert_allclose(out.q, q0, rtol=0.0, atol=1e-15)

    def test_too_short_stream_rejected(self, nm):
        with pytest.raises(StreamFormatError):
            run_pipeline(Recording("r", *stationary_arrays(1)), "shoe", ThresholdParams(-10.0),
                         nm)

    def test_params_used_records_configuration(self, nm):
        report = run_pipeline(Recording("r", *stationary_arrays(300)), "are",
                              ThresholdParams(-7.0, -2.0, 0.5), nm)
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
            (batched,) = run_recordings([rec], "shoe", lanes, noise)
            assert len(batched) == len(lanes)
            for lane, report in zip(lanes, batched):
                single = run_pipeline(rec, "shoe", lane, noise)
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
        the longest last, so the two shorter ones take no-op steps past their
        end: every (recording, config) lane of one call matches its own
        one-lane run, and the batched outputs are those of the kernel that
        retired a recording's lanes at its end (digest taken there; x86-64,
        numpy 2.4)."""
        noise, (normal, fast) = walks
        # 4.5 s: the shortest normal walk that fits two gait cycles
        short = simulate(normal_profile(noise, seed=1001), 4.5).to_recording("normal-01",
                                                                            "normal")
        recs = [fast, short, normal]
        grid = [-20.0, -600.0]
        lanes = [ThresholdParams(c1) for c1 in grid] + [CALIBRATED]
        batched = run_recordings(recs, "shoe", lanes, noise)
        assert [len(row) for row in batched] == [len(lanes)] * len(recs)
        digest = hashlib.sha256()
        for report in (report for row in batched for report in row):
            for out in (report.trajectory, report.decisions, report.log_gamma_trace):
                digest.update(out.tobytes())
        assert digest.hexdigest() == \
            "90a03b17527039fcf015125a86a0a44c29925cd4233de3b8c8916cf1f86d69d9"
        closures = {}
        for rec, row in zip(recs, batched):
            for lane, report in zip(lanes, row):
                single = run_pipeline(rec, "shoe", lane, noise)
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
        pn = psd_at(noise)
        lanes = _filter_lanes(
            [rec.t for rec in recs], [rec.accel for rec in recs], [rec.gyro for rec in recs],
            [align_from_standstill(rec) for rec in recs],
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
        pn = psd_at(nm)
        out = _filter_lanes(
            [rec.t], [rec.accel], [rec.gyro], [align_from_standstill(rec)],
            default_initial_covariance(), nm, [pn], 4,
            lanes=[ThresholdParams(1.0)],
            logl=[shoe_log_lr_trace(rec.accel, rec.gyro, 5, nm)],
        )
        assert not out.decisions.any()
        P = out.P[0]
        assert np.isfinite(P).all()
        assert np.array_equal(P, P.T)
        assert np.linalg.eigvalsh(P).min() >= -1e-12 * np.trace(P)
        assert abs(np.linalg.norm(out.q[0]) - 1.0) < 1e-9

    def test_singular_innovation_covariance_raises(self, nm, pn):
        # P_vv = -R makes S = P_vv + R exactly zero at the first update, on
        # the one-lane path and on a lane gathered from a larger stack
        t, accel, gyro = stationary_arrays(50)
        P = default_initial_covariance()
        P[3:6, 3:6] = -nm.sigma_zupt**2 * np.eye(3)
        logl = shoe_log_lr_trace(accel, gyro, 1, nm)
        with pytest.raises(NumericalError, match="not invertible"):
            _filter_lanes([t], [accel], [gyro], [Q_IDENTITY], P, nm, [pn], 0,
                          lanes=[ThresholdParams(-1e9)], logl=[logl])
        with pytest.raises(NumericalError, match="not invertible"):
            _filter_lanes([t], [accel], [gyro], [Q_IDENTITY], P, nm, [pn], 0,
                          lanes=[ThresholdParams(1.0), ThresholdParams(-1e9)], logl=[logl])
        # and on a lane of the second recording of a multi-recording call: the
        # first (longer, spinning: logl = -11250) never crosses c1 = -1e3, the
        # second (at rest: logl = 0) does on its second lane
        spin_t, spin_accel = np.arange(60) / 250.0, np.tile([0.0, 0.0, GRAV], (60, 1))
        spin_gyro = np.tile([3.0, 0.0, 0.0], (60, 1))
        spin_logl = shoe_log_lr_trace(spin_accel, spin_gyro, 1, nm)
        lanes = [ThresholdParams(1.0), ThresholdParams(-1e3)]
        spun = _filter_lanes([spin_t], [spin_accel], [spin_gyro], [Q_IDENTITY], P, nm,
                             [pn], 0, lanes=lanes, logl=[spin_logl])
        assert not spun.decisions.any()
        with pytest.raises(NumericalError, match="not invertible"):
            _filter_lanes([spin_t, t], [spin_accel, accel], [spin_gyro, gyro],
                          [Q_IDENTITY] * 2, P, nm, [pn, pn], 0, lanes=lanes,
                          logl=[spin_logl, logl])

    def test_ill_conditioned_xi_drops_speed_term_in_loop(self, nm, pn, q_rate):
        # from rest, a horizontal specific force drives a velocity, so xi
        # would be positive; but the velocity covariance has a condition
        # above XI_COND_BOUND, so the c3 term falls back to zero and the
        # threshold is exactly c1 + c2 * dt
        t, accel, gyro = stationary_arrays(20)
        accel[:, 0] = 0.5
        P = default_initial_covariance()
        P[3:6, 3:6] = np.diag([1e8, 1e-8, 1e-8])
        params = ThresholdParams(1.0, -2.0, 1e6)
        out = _filter_lanes([t], [accel], [gyro], [Q_IDENTITY], P, nm, [pn], 4,
                            lanes=[params], logl=[shoe_log_lr_trace(accel, gyro, 5, nm)])
        assert not out.decisions.any()
        k = 4  # first full window
        assert out.log_gamma[k, 0] == params.c1 + params.c2 * (t[k] - t[0])
        # the same k + 1 steps by hand: xi is positive, and only its condition drops it
        dt, dq = _increments(t[:k + 1], gyro[:k + 1])
        f = np.vstack([np.zeros(3), accel[:k]])
        p, v, q, Pk = one_lane(P)
        for step in _step_inputs(f[:, None], dq[:, None], dt[:, None], q_rate):
            p, v, q, Pk = _propagate(p, v, q, Pk, step, G_VEC)
        assert v[0, 0, 0] > 0.0
        value, ok = _xi_terms(Pk[0, 0, 3:6, 3:6].tolist(), v[0, 0].tolist(), max)
        assert value > 0.0 and not ok
        assert math.isnan(_xi(Pk[0, 0, 3:6, 3:6].tolist(), v[0, 0].tolist()))


def lanes_reference(recs, q0, cov0, noise, pn, lanes, first_window, logls):
    """_filter_lanes sample by sample, with one _step_inputs call per step:
    the no-op steps past a recording's end, xi on the c3 != 0 lanes of
    recordings still running, the one threshold rule on every lane at every
    step (log_threshold on the (R, C) stack) and the gather of the lanes
    that fire."""
    R, C, n = len(recs), len(lanes), max(len(rec.t) for rec in recs)
    increments = [_increments(rec.t, rec.gyro) for rec in recs]
    q_rate = np.array([_process_rate(pn)] * R)[:, None]
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    coef = SimpleNamespace(**{name: np.array([[getattr(lane, name) for lane in lanes]])
                              for name in ("c1", "c2", "c3")})
    p, v = np.zeros((R, C, 3)), np.zeros((R, C, 3))
    q = np.array([[q] * C for q in q0])
    P = np.tile(cov0, (R, C, 1, 1))
    xi = np.full((R, C), np.nan)
    t_last = np.array([[rec.t[0]] * C for rec in recs])
    trajectory = np.full((n, R, C, 3), np.nan)
    decisions = np.zeros((n, R, C), dtype=bool)
    log_gamma = np.full((n, R, C), np.nan)
    for k in range(n):
        accel, dq = np.zeros((1, R, 3)), np.tile([1.0, 0.0, 0.0, 0.0], (1, R, 1))
        dt, t_k, logl = np.zeros((1, R)), np.empty((R, 1)), np.full((R, 1), np.nan)
        for r, (rec, (dts, dqs)) in enumerate(zip(recs, increments)):
            m = len(rec.t)
            t_k[r] = rec.t[min(k, m - 1)]
            if k < m:
                dt[0, r], dq[0, r], logl[r] = dts[k], dqs[k], logls[r][k]
                accel[0, r] = rec.accel[k - 1] if k else 0.0
        p, v, q, P = _propagate(p, v, q, P, next(_step_inputs(accel, dq, dt, q_rate)), g_vec)
        if k >= first_window:
            for r, rec in enumerate(recs):
                for c, lane in enumerate(lanes):
                    if lane.c3 != 0.0 and k < len(rec.t):
                        xi[r, c] = _xi(P[r, c, 3:6, 3:6].tolist(), v[r, c].tolist())
            log_gamma[k] = log_threshold(coef, t_k - t_last, xi)
            fire = decisions[k] = logl > log_gamma[k]
            if fire.all():
                p, v, q, P = _zupt(p, v, q, P, noise.sigma_zupt**2)
            elif fire.any():
                p[fire], v[fire], q[fire], P[fire] = _zupt(p[fire], v[fire], q[fire], P[fire],
                                                           noise.sigma_zupt**2)
            t_last = np.where(fire, t_k, t_last)
        for r, rec in enumerate(recs):
            if k < len(rec.t):
                trajectory[k, r] = p[r]
    L = R * C
    return (trajectory.reshape(n, L, 3), decisions.reshape(n, L), log_gamma.reshape(n, L),
            q.reshape(L, 4), P.reshape(L, 9, 9))


class TestStepBlocks:
    """_step_inputs builds the step factors _BLOCK steps at a time; the loop
    that takes them matches one that builds them one step at a time."""

    @pytest.fixture(scope="class")
    def walks(self):
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        normal = simulate(normal_profile(noise, seed=1000), 6.0).to_recording("n", "normal")
        fast = simulate(fast_profile(noise, seed=1500), 5.0).to_recording("f", "fast")
        return noise, normal, fast

    @pytest.mark.parametrize("n", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
    @pytest.mark.parametrize("paired", [False, True])
    def test_blocks_match_per_step_inputs_bit_for_bit(self, walks, n, paired):
        noise, normal, fast = walks
        recs = [Recording("a", normal.t[:n], normal.accel[:n], normal.gyro[:n])]
        if paired:  # a second recording of another length
            m = 2 * _BLOCK + 3 if n < 2 * _BLOCK else _BLOCK + 1
            recs.append(Recording("b", fast.t[:m], fast.accel[:m], fast.gyro[:m]))
        # c3 != 0 (decided in the loop), c2 = c3 = 0 (one comparison before
        # it) and an adaptive c3 = 0 lane (a scan before it); the last two
        # start above every statistic here (-27 to -7) and fire once their
        # ramp has come down to it
        lanes = [CALIBRATED, ThresholdParams(-20.0), ThresholdParams(-79.0, -1000.0, 0.002),
                 ThresholdParams(-5.0, -200.0), ThresholdParams(-5.0, -200.0, 0.5)]
        pn = psd_at(noise)
        q0 = [align_from_standstill(rec) for rec in recs]
        logls = [shoe_log_lr_trace(rec.accel, rec.gyro, 5, noise) for rec in recs]
        # the second start's velocity covariance has a condition above
        # XI_COND_BOUND, so xi falls back (NaN) until a lane's first update
        ill = default_initial_covariance()
        ill[3:6, 3:6] = np.diag([1e8, 1e-8, 1e-8])
        for cov0 in (default_initial_covariance(), ill):
            out = _filter_lanes([rec.t for rec in recs], [rec.accel for rec in recs],
                                [rec.gyro for rec in recs], q0, cov0, noise,
                                [pn] * len(recs), 4, lanes=lanes, logl=logls)
            expected = lanes_reference(recs, q0, cov0, noise, pn, lanes, 4, logls)
            assert out.decisions.any() and not out.decisions.all()
            for got, want in zip(out, expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # the last lane's first threshold dropped its c3 term: c1 + c2 * dt
        k, t = 4, recs[0].t
        assert out.log_gamma[k, 4] == lanes[4].c1 + lanes[4].c2 * (t[k] - t[0])
        # after the first window, every lane fires, and the last two also wait
        decided = out.decisions[k:len(t), :len(lanes)]
        assert decided.any(axis=0).all() and not decided[:, 3:].all(axis=0).any()


def label_pass_reference(rec, noise, pn, zupts, xi_mask):
    """The label-driven pass sample by sample on a one-lane stack: _propagate
    at every sample k >= 1, _xi on the xi_mask samples from the covariance
    before the update at k, and _zupt where zupts is set; also each sample's
    (P_vv, v) before its update."""
    q_rate = _process_rate(pn)[None, None]
    g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
    p, v, q, P = one_lane(default_initial_covariance())
    xis, blocks = [], []
    for k in range(1, len(rec.t)):
        dt = rec.t[k] - rec.t[k - 1]
        step = next(_step_inputs(rec.accel[None, k - 1:k],
                                 quat_from_rotvec(rec.gyro[None, k - 1:k] * dt),
                                 np.array([[dt]]), q_rate))
        p, v, q, P = _propagate(p, v, q, P, step, g_vec)
        blocks.append((P[0, 0, 3:6, 3:6], v[0, 0]))
        if xi_mask[k]:
            ev = _xi(P[0, 0, 3:6, 3:6].tolist(), v[0, 0].tolist())
            if not math.isnan(ev):
                xis.append(ev)
        if zupts[k]:
            p, v, q, P = _zupt(p, v, q, P, noise.sigma_zupt**2)
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
        pn = psd_at(noise)
        q_rate = _process_rate(pn)
        g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
        dt, dq, G, fb = inputs
        cp, cv, cq, cP, vs, Pvv = _coast(p, v, q, P, G[a:b + 1], fb[a + 1:b + 1],
                                         dt[a + 1:b + 1], g_vec, q_rate)
        sp, sv, sq, sP = p[None, None], v[None, None], q[None, None], P[None, None]
        for k in range(a + 1, b + 1):
            step = next(_step_inputs(rec.accel[None, k - 1:k], dq[None, k:k + 1],
                                     dt[None, k:k + 1], q_rate[None, None]))
            sp, sv, sq, sP = _propagate(sp, sv, sq, sP, step, g_vec)
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
        q0 = align_from_standstill(rec)
        self.assert_coast_matches(noise, rec, _coast_inputs(rec.t, rec.accel, rec.gyro),
                                  0, len(rec.t) - 1, np.zeros(3), np.zeros(3), q0,
                                  default_initial_covariance())

    def test_coast_matches_propagate_on_every_swing_coast(self, walk777):
        """Walk 777 under its labels, stepped per sample with _propagate and
        _zupt; each run of samples between updates is also taken by _coast
        from the same start and compared at every step and at its end."""
        noise, rec = walk777
        pn = psd_at(noise)
        inputs = _coast_inputs(rec.t, rec.accel, rec.gyro)
        dt, dq = inputs[:2]
        g_vec = np.array([0.0, 0.0, -noise.gravity_mag])
        q_rate = _process_rate(pn)[None, None]
        zupts = rec.stationary
        p, v, q, P = one_lane(default_initial_covariance())
        coasts = 0
        k = 1
        while k < len(rec.t):
            if zupts[k]:
                step = next(_step_inputs(rec.accel[None, k - 1:k], dq[None, k:k + 1],
                                         dt[None, k:k + 1], q_rate))
                p, v, q, P = _propagate(p, v, q, P, step, g_vec)
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

    def test_label_pass_matches_per_sample_steps(self):
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
        pn = psd_at(noise)
        trimmed = Recording("short", rec.t[:n], rec.accel[:n], rec.gyro[:n])
        expected, _ = label_pass_reference(trimmed, noise, pn, zupts, xi_mask)
        got = _label_pass(rec.t[:n], rec.accel[:n], rec.gyro[:n], Q_IDENTITY,
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
        xis = _label_pass(rec.t, rec.accel, rec.gyro, Q_IDENTITY,
                          default_initial_covariance(), noise,
                          psd_at(noise), rec.stationary,
                          rec.phase == PHASE_SWING)
        assert len(xis) > 2000
        assert len(calls) == np.count_nonzero(rec.stationary[1:])

    def test_xi_stack_equals_scalar_xi_bit_for_bit(self):
        """On every sample's velocity covariance and velocity along a walk,
        and on the three fallback cases (det <= 0, condition above the bound,
        a non-finite value), the stacked form is the scalar form."""
        noise = NoiseModel(sigma_a=0.2, sigma_w=0.02)
        rec = simulate(normal_profile(noise, seed=5), 6.0)
        pn = psd_at(noise)
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
        scalar = np.array([_xi(s.tolist(), u.tolist()) for s, u in zip(S, v)])
        assert np.isnan(scalar[-5:]).all()
        assert np.count_nonzero(scalar > 0.0) > 1000
        stacked = _xi_stack(np.array(S), np.array(v))
        assert np.array_equal(stacked, scalar, equal_nan=True)
