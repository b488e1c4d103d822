"""Reference-speed timing.

The machines this benchmark runs on are shared: with the same code and
inputs, the throughput of one core drifts by up to a factor of 1.7 over
seconds to minutes, and the guest sees no steal time for it. A
``Speedometer`` therefore times ``REPEATS`` back-to-back calls of a fixed
kernel every ``INTERVAL_S`` while an interval is measured (from a SIGALRM
handler, in the measured thread) and rescales the interval to the speed at
which one kernel call takes ``REFERENCE_S``:

    reference seconds = (elapsed - time spent sampling)
                        * mean(REFERENCE_S / kernel time)

Each sample stands for an equal share of the interval, so speeds, not
kernel times, are averaged. A sample lasts about 20 ms: shorter samples
(one 1 ms call) missed much of the slowdown under heavy load, as if the
core were time-sliced more coarsely than they last. The kernel shares no
code with the program, so no change to the program moves it. Raw seconds
are reported next to the rescaled ones.
"""

import functools
import random
import signal
import time

REFERENCE_S = 1.0e-3   # kernel time at the reference speed (2-core Xeon)
REPEATS = 20
INTERVAL_S = 0.3


@functools.lru_cache(maxsize=None)
def _inputs():
    import numpy as np
    rng = np.random.default_rng(0)
    floats = [float(v) for v in rng.random(100_000)]
    random.Random(0).shuffle(floats)
    return rng.random((128, 128)), rng.random(1024), floats[:5000]


def kernel():
    """A fixed mix of the kinds of work the lab does: interpreter steps,
    small-array dispatch, 128² array arithmetic, a DCT, and a sum over
    Python floats scattered in memory. Takes about 1 ms."""
    import numpy as np
    from scipy.fft import dctn
    a, b, floats = _inputs()
    s = 0.0
    for i in range(1500):
        s += i * 0.5
    y = b
    for _ in range(10):
        y = np.diff(np.concatenate(([0.0], y))) * 0.5
    c = dctn(np.sin(a) * 0.5 + a * 0.25, norm="ortho")
    return s + float(y[0]) + float(c[0, 0]) + sum(floats)


class Stopwatch:
    """Context manager timing its body in raw seconds."""

    spent = 0.0
    elapsed = 0.0

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        return False

    @property
    def raw_s(self):
        """Elapsed time minus the time spent sampling."""
        return self.elapsed - self.spent


class Speedometer(Stopwatch):
    """A stopwatch that also reports its body in reference seconds."""

    def __init__(self):
        self.samples = []

    def sample(self, *_):
        t0 = time.perf_counter()
        for _ in range(REPEATS):
            kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt / REPEATS)
        self.spent += dt

    def __enter__(self):
        _inputs()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        super().__enter__()
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return super().__exit__(*exc)

    @property
    def slowdown(self):
        """Raw over reference seconds: the inverse of the mean speed."""
        return len(self.samples) / sum(REFERENCE_S / k for k in self.samples)

    @property
    def reference_s(self):
        return self.raw_s / self.slowdown
