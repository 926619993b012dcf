"""A contention-corrected clock for timing on a shared host.

On a shared VM the speed of the benchmark's own CPU time drifts: a fixed
pure-Python loop ran 1.8x slower for stretches of 0.5 s to a minute, with
CPU time equal to wall time, so the cause is the host, not scheduling.
Raw wall-clock run medians then spread by up to 0.34 (interquartile range
over median, ten runs).

``Meter`` samples that speed continuously.  Every 20 ms of wall time a
SIGALRM handler runs a small fixed reference kernel twice and times the
second call, and the clock advances by each interval's wall time scaled by
``nominal / kernel time`` (the kernel's time averaged over the interval's two
ends).  The first call warms the caches, so the timed call measures the
host's speed and not how much of the kernel's data the workload has just
evicted; a cold kernel read a working-set-heavy slowdown of the workload at
only 70-80% of its size.  ``nominal`` is the warm kernel's uncontended time
on a 2-vCPU Xeon VM, so corrected seconds read as uncontended seconds there.
The kernel's own time is left out of the clock.

The scale is raised to a per-kernel ``exponent``: contention slows the small
Python loop more than the interpreter-bound workloads it stands for.  Over
ten 30 s runs, rounds of equal work varied least within a run at 0.8
(interquartile range over median of the round rates: text_pipeline 0.059,
corpus_build 0.035; at 1.0, 0.090 and 0.053).  lm_train's rounds varied
least at 1.0 on the numpy kernel.

The kernel should slow down the way the workload does: a Python
dict/string loop for interpreter-bound workloads, small float64 matrix
products for numpy-bound ones.
"""

from __future__ import annotations

import signal
import time

__all__ = ["Meter", "KERNELS"]

PERIOD_S = 0.02


def _python_kernel() -> int:
    counts: dict[str, int] = {}
    keys = []
    for i in range(600):
        key = str(i % 150)
        counts[key] = counts.get(key, 0) + 1
        keys.append(key)
    return len("".join(keys))


class _NumpyKernel:
    def __init__(self):
        import numpy as np
        self.np = np
        self.a = self._aligned(np.linspace(-1.0, 1.0, 8 * 96).reshape(8, 96))
        self.b = self._aligned(np.linspace(1.0, -1.0, 96 * 192).reshape(96, 192) / 96.0)

    def _aligned(self, values):
        """A copy on a 64-byte boundary.  numpy aligns to 16 bytes, and the
        product's speed depended on where the arrays fell: with unaligned
        operands the kernel's level differed from process to process, and
        lm_train's corrected run medians spread 0.165 against 0.071 raw."""
        buf = self.np.empty(values.size + 8)
        offset = (-buf.ctypes.data % 64) // 8
        out = buf[offset:offset + values.size].reshape(values.shape)
        out[...] = values
        return out

    def __call__(self) -> float:
        out = None
        for _ in range(20):
            out = self.np.tanh(self.a @ self.b)
        return float(out[0, 0])


# kind -> (kernel factory, nominal seconds per call, exponent)
KERNELS = {
    "python": (lambda: _python_kernel, 110e-6, 0.8),
    "numpy": (_NumpyKernel, 240e-6, 1.0),
}


class Meter:
    def __init__(self, kind: str):
        make, self.nominal, self.exponent = KERNELS[kind]
        self.kernel = make()
        self.kind = kind
        self.kernel_s = 0.0
        self.samples = 0
        # (corrected clock at t, t, kernel seconds at t); replaced in one
        # assignment so now() never sees a half-updated state
        self._state = None
        self._previous_handler = None

    def _sample(self) -> tuple[float, float, float]:
        """(start of the warm-up call, end of the timed call, timed seconds)."""
        begin = time.perf_counter()
        self.kernel()
        start = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.kernel_s += end - begin
        self.samples += 1
        return begin, end, end - start

    def start(self) -> None:
        _, end, ref = self._sample()
        self._state = (0.0, end, ref)
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def use(self, kind: str) -> None:
        """Switch to another reference kernel; the clock carries on."""
        if kind == self.kind:
            return
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        clock = self.now()
        make, self.nominal, self.exponent = KERNELS[kind]
        self.kernel, self.kind = make(), kind
        _, end, ref = self._sample()
        self._state = (clock, end, ref)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)
            self._previous_handler = None

    def _tick(self, signum, frame) -> None:
        clock, t, ref = self._state
        begin, end, new_ref = self._sample()
        scale = (self.nominal / ((ref + new_ref) / 2)) ** self.exponent
        self._state = (clock + (begin - t) * scale, end, new_ref)

    def now(self) -> float:
        """Corrected seconds since start()."""
        clock, t, ref = self._state
        return clock + (time.perf_counter() - t) * (self.nominal / ref) ** self.exponent

