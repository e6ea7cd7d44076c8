"""Host-speed sampling: a fixed pure-Python kernel timed from SIGALRM.

Other tenants of the host slow this core by up to 1.5x, for seconds to
minutes at a time, so raw job times spread 20-30% between runs. While jobs
run, SpeedSampler times a small kernel every PERIOD_S seconds. The kernel
does the kind of work the program does (tuple slicing, comparisons and dict
updates on small-int tuples) but shares no code with it, so a change to the
program does not change the kernel. Scaling a job's time by
NOMINAL_S / (kernel time while the job ran) gives its time at a fixed host
speed: a change to the program moves it; a change of host state mostly does
not.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.1
# Kernel time on the reference host when no other tenant is busy.
NOMINAL_S = 0.0008

_WORDS = tuple(tuple(((i >> j) & 3) - 2 or 1 for j in range(0, 8, 2)) for i in range(64))


def kernel() -> dict:
    """Free reduction of letter-tuple products, accumulated in a dict."""
    out: dict[tuple, int] = {}
    for u in _WORDS:
        for v in _WORDS[:12]:
            i, j = len(u), 0
            while i > 0 and j < len(v) and u[i - 1] == -v[j]:
                i -= 1
                j += 1
            w = u[:i] + v[j:]
            out[w] = out.get(w, 0) + 1
    return out


class SpeedSampler:
    """Context manager timing kernel() from a SIGALRM handler every PERIOD_S."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, kernel seconds)
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> tuple[float, float, float]:
        """For the interval [t0, t1): its seconds net of the sampling inside it,
        those seconds at nominal host speed, and the mean kernel time used.

        The speed is the mean of NOMINAL_S / kernel time over the samples
        inside the interval and the last one before it; the caller takes a
        sample just before t0, so an interval shorter than PERIOD_S still has
        one.
        """
        before = [s for s in self.samples if s[0] < t0][-1:]
        inside = [s for s in self.samples if t0 <= s[0] < t1]
        net = t1 - t0 - sum(d for _, d in inside)
        used = [d for _, d in before + inside]
        speed = statistics.fmean(NOMINAL_S / d for d in used)
        return net, net * speed, statistics.fmean(used)
