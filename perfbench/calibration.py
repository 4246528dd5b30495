"""A fixed miniature of the IMEX step, timed next to each run to gauge host speed.

The host this benchmark was written on changes speed by up to 2x over
seconds to tens of seconds (NOTES.md).  A run and a kernel timed right
before and after it slow down together when the kernel does the same kind
of work, so run.py divides the run's times by this kernel's time.  The
kernel is the benchmark's own code and never calls the program: a change to
the program moves the run, not the yardstick.  It mirrors one step of the
scheme on arrays of the workload's size: upwind taxis in face-flux form,
a power-law growth term, and three DCT-preconditioned CG solves of
I - dt*Lap (the last with a varying diagonal).
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import fft

CHUNKS = 8          # timed before the run and again after it


def _face_div(fx, fy, h):
    div = np.zeros((fy.shape[0] + 1, fx.shape[1] + 1))
    div[:, :-1] += fx / h
    div[:, 1:] -= fx / h
    div[:-1, :] += fy / h
    div[1:, :] -= fy / h
    return div


def _lap(phi, h):
    return _face_div((phi[:, 1:] - phi[:, :-1]) / h, (phi[1:, :] - phi[:-1, :]) / h, h)


def _taxis(carrier, potential, h):
    gx = (potential[:, 1:] - potential[:, :-1]) / h
    gy = (potential[1:, :] - potential[:-1, :]) / h
    cx = np.where(gx > 0.0, carrier[:, :-1], carrier[:, 1:])
    cy = np.where(gy > 0.0, carrier[:-1, :], carrier[1:, :])
    return _face_div(cx * gx, cy * gy, h)


def _pcg(apply_a, denom, b, x, tol=1e-10, max_iter=200):
    target = tol * math.sqrt(float(np.vdot(b, b)))
    r = b - apply_a(x)
    z = fft.idctn(fft.dctn(r, norm="ortho") / denom, norm="ortho")
    p = z.copy()
    rz = float(np.vdot(r, z))
    for _ in range(max_iter):
        if math.sqrt(float(np.vdot(r, r))) <= target:
            break
        ap = apply_a(p)
        alpha = rz / float(np.vdot(p, ap))
        x = x + alpha * p
        r = r - alpha * ap
        z = fft.idctn(fft.dctn(r, norm="ortho") / denom, norm="ortho")
        rz_new = float(np.vdot(r, z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    return x


class Kernel:
    """Fixed data and step for an n x n grid on the unit square."""

    def __init__(self, n: int, dt: float = 1e-3):
        self.n, self.h, self.dt = n, 1.0 / n, dt
        c = (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(c, c)
        self.u0 = 0.2 + 0.8 * np.exp(-((X - 0.35) ** 2 + (Y - 0.35) ** 2) / 0.05)
        self.v0 = 0.85 + 0.25 * np.exp(-((X - 0.6) ** 2 + (Y - 0.6) ** 2) / 0.06)
        self.w0 = 0.3 + 0.5 * np.exp(-((X - 0.5) ** 2 + (Y - 0.5) ** 2) / 0.1)
        k = 2.0 * n * n * (1.0 - np.cos(np.pi * np.arange(n) / n))
        self.eig = k[:, None] + k[None, :]
        # steps per chunk: about 15 ms of work on the reference host
        self.steps = max(1, round(40000 / (n * n)))

    def step(self, u, v, w):
        dt, h = self.dt, self.h
        denom = 1.0 + dt * self.eig

        def diffuse(x):
            return x - dt * _lap(x, h)

        u = _pcg(diffuse, denom, u + dt * (-_taxis(u, w, h) + 1.0 - u**3), u)
        v = _pcg(diffuse, denom, v + dt * (-_taxis(v, u, h) + 1.0 - v**3), v)
        diag = 1.0 + dt * (0.1 + u + v)
        w = _pcg(lambda x: diag * x - dt * _lap(x, h),
                 float(np.mean(diag)) + dt * self.eig, w + 0.1 * dt, w)
        return np.maximum(u, 0.0), np.maximum(v, 0.0), np.maximum(w, 0.0)

    def chunk_times(self) -> list[float]:
        times = []
        for _ in range(CHUNKS):
            t0 = time.perf_counter()
            u, v, w = self.u0, self.v0, self.w0
            for _ in range(self.steps):
                u, v, w = self.step(u, v, w)
            times.append(time.perf_counter() - t0)
        return times
