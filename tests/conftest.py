import math

import numpy as np
import pytest

from zvnav.core import NoiseModel


@pytest.fixture
def noise():
    return NoiseModel(sigma_a=0.5, sigma_w=0.05, gravity_mag=9.81, sigma_zupt=0.01)


def uniform_stream(rng, n, fs=250.0, accel_scale=1.0, gyro_scale=0.1, around_g=9.81):
    """Random stream at a uniform rate, loosely gravity-centered."""
    t = np.arange(n) / fs
    accel = np.array([0.0, 0.0, around_g]) + accel_scale * rng.standard_normal((n, 3))
    gyro = gyro_scale * rng.standard_normal((n, 3))
    return t, accel, gyro



def psd_at(noise, rate=250.0):
    """The densities (accel_psd, gyro_psd) that zvnav.ins.process_noise
    derives from the sigmas of ``noise`` at the sample rate ``rate``."""
    root = math.sqrt(rate)
    return noise.sigma_a / root, noise.sigma_w / root
