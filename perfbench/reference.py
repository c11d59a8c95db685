"""Reference kernels: fixed numpy work that times the host's current speed.

A shared virtual machine can change speed by up to 1.6x over minutes, in
CPU time as well as in wall time (seen on a 2-vCPU Intel Xeon VM), so a
run's raw times say as much about the host's phase as about the program.  Each child run times
these kernels just before and just after its scenario; the host-speed
factor is the kernels' time over their nominal time, and ``run.py`` divides
the run's times by it.  The kernels use numpy only, never ringswarm, so a
change to the package cannot move them; their work must stay fixed, or
results before and after the change are not comparable.

Two kernels, because the host's slowdowns hit small and large arrays
differently:

- ``grid``: 256-point FFTs and elementwise ops on 256-element arrays, where
  per-call overhead dominates, as in the grid-side loop, interpreter start
  and imports.
- ``dense``: an exponential and a sum over a 1000 x 1000 array, as in the
  O(N^2) interaction sum at N = 1000.

The nominal times are the kernels' medians on a 2-vCPU Intel Xeon VM
(Python 3.11.7, numpy 2.4.6); they set the scale of corrected times, which
read as seconds on that VM at that speed.
"""

import time

import numpy as np

NOMINAL_S = {"grid": 0.085, "dense": 0.100}


def _grid(reps=2000):
    y = np.cos(np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)) + 1.5
    for _ in range(reps):
        spectrum = np.fft.rfft(y)
        y = np.fft.irfft(spectrum * 0.999, n=256)
        y = np.maximum(y, 0.1) * 1.0001 + 0.001 * np.roll(y, 1)
    return float(y.sum())


def _dense(reps=40):
    x = np.linspace(0.0, 1.0, 1000 * 1000).reshape(1000, 1000)
    y = np.empty_like(x)
    total = 0.0
    for _ in range(reps):
        np.negative(x, out=y)
        np.exp(y, out=y)
        total += float(y.sum())
    return total


KERNELS = {"grid": _grid, "dense": _dense}


def time_kernels(names):
    """Seconds each named kernel takes now, keyed by name."""
    out = {}
    for name in names:
        t0 = time.perf_counter()
        KERNELS[name]()
        out[name] = time.perf_counter() - t0
    return out
