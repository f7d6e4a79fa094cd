"""The machine's speed, sampled while the benchmark runs.

Other tenants of a shared machine slow a single-threaded process down by
tens of percent, for seconds or for minutes, with no time stolen that the
process could see: its CPU time grows with its wall time.  A fixed loop,
timed from a SIGALRM handler every INTERVAL seconds, tells how fast the
machine ran meanwhile.  A time multiplied by the mean of
REFERENCE_S[loop] / (loop time) over the samples taken during it reads as
if the machine had run at reference speed throughout.  A single sample is
noisy, so callers scale by the samples of several seconds at once (a
round).  The loops run none of the program's code, so a change to the
program moves the scaled times as much as the raw ones.

Contention does not slow all code alike: when the machine went from
contended to quiet, the workloads that spend their time in the interpreter
kept their times scaled by loop() within 1.1 %, but dendrimer-spectrum,
whose time is in C big-integer multiplication and division inside sympy,
got only 1.57 times faster while loop() got 2.25 times faster.  So there
are two loops, and a workload is sampled with the one that does its kind
of work.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL = 0.1
_MODULUS = (1 << 521) - 1
_RNG = random.Random(9)
_COEFFS = [_RNG.getrandbits(600) for _ in range(60)]
_POINT = _RNG.getrandbits(1000) | (1 << 999)


def loop() -> int:
    """Interpreter work: small-integer arithmetic, a dictionary, a 521-bit product."""
    x, big, table = 12345, 3 ** 300, {}
    for i in range(4000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        table[x & 511] = i
        big = big * (x | 1) % _MODULUS
    return big + len(table)


def bigint_loop() -> int:
    """Big-integer work: a fixed integer polynomial evaluated at a 1000-bit
    point by Horner's rule, then its coefficients recovered by repeated
    division, as sympy's heuristic gcd does."""
    value = 0
    for c in _COEFFS:
        value = value * _POINT + c
    digits = 0
    while value:
        value, _ = divmod(value, _POINT)
        digits += 1
    return digits


# Each loop's time at reference speed.  They fix the unit of the scaled
# times; on the machine that set the bounds, contended, the interpreter loop
# took about 4 ms, and quiet, 1.6 ms for loop() and 5.3 ms for bigint_loop().
REFERENCE_S = {loop: 0.004, bigint_loop: 0.008}


def scale_of(durations, which=loop) -> float:
    """The mean speed, relative to reference speed, of runs of `which` that took these times."""
    return statistics.fmean(REFERENCE_S[which] / d for d in durations)


class Sampler:
    """Times `which` every INTERVAL seconds of wall time while it is started.

    The handler re-arms the timer only when it returns, so samples never
    nest.  `busy` is the time spent in the handler, which the caller
    subtracts from the times it measures.
    """

    def __init__(self, which=loop) -> None:
        self.which = which
        self.samples: list[tuple[float, float]] = []  # (end, loop seconds)
        self.busy = 0.0

    def _sample(self) -> None:
        start = time.perf_counter()
        self.which()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.busy += time.perf_counter() - start

    def _tick(self, signum, frame) -> None:
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # shorter than INTERVAL
            self._sample()

    def scale(self, since: float, until: float) -> float:
        """Mean of REFERENCE_S / loop time over the samples that ended in
        [since, until]; the nearest sample's when none did.  Call after stop()."""
        inside = [d for end, d in self.samples if since <= end <= until]
        if not inside:
            inside = [min(self.samples, key=lambda s: min(abs(s[0] - since), abs(s[0] - until)))[1]]
        return scale_of(inside, self.which)
