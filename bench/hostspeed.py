"""Correction of wall times for the speed the host gives this process.

On a shared host the same work can take twice as long from one stretch of
seconds or minutes to the next, because of other tenants' load.  A fixed
probe, built like the library's ops (small complex matrix products, a 2x2
`eigh`, interpreter arithmetic), is timed either side of each measured
stretch (each op); the stretch's wall time is multiplied by REFERENCE_MS
over the mean of the two probe times.  A corrected time is the time the
same work would take on a host where the probe takes REFERENCE_MS.  A
change to the library moves the measured stretch and not the probe.
"""
from __future__ import annotations

import time

import numpy as np

# The probe's time on an unloaded 2-core x86 host (2.1 GHz); it only sets
# the scale of the corrected times.
REFERENCE_MS = 0.55
PROBE_ITERS = 50

_M = (np.arange(4.0).reshape(2, 2) + 1j * np.eye(2)) / 3.0


def probe_ms() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(PROBE_ITERS):
        q = _M @ _M.conj().T
        _, v = np.linalg.eigh(q)
        acc += float(np.abs(v).max()) + i * 0.5
    return (time.perf_counter() - t0) * 1e3


class HostSpeed:
    """Probe times at the boundaries of consecutive measured stretches."""

    def __init__(self):
        self.last = probe_ms()
        self.probes = [self.last]

    def factor(self) -> float:
        """Correction for the stretch since the previous call (or creation)."""
        now = probe_ms()
        self.probes.append(now)
        f = 2.0 * REFERENCE_MS / (self.last + now)
        self.last = now
        return f
