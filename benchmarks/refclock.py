"""Reference seconds: wall time corrected for the host's drifting speed.

The benchmark's host is a shared virtual machine whose speed drifts by up to
1.8x over tens of seconds, and changes within a second too; CPU time drifts
with wall time, so the slowdown is slower execution, not waiting.  To take
the drift out, the benchmark times a fixed calibration slice while the work
runs and reports every time in reference seconds:

    reference seconds = wall seconds * SLICE_REF_S / (mean wall time of a slice)

that is, the time the work would take on a host that runs one slice in
SLICE_REF_S.  The slice is pure-Python integer elimination and calls no
tiltfan code, so a change to tiltfan moves the work's time but not the
slice's.
"""

import signal
from time import perf_counter

# A diagonally dominant integer matrix: every leading minor is positive, so
# fraction-free elimination needs no pivoting and every division is exact.
CAL_MATRIX = (
    (9, -1, 2, 0, 1, -3),
    (2, 11, -1, 3, 0, 1),
    (-1, 2, 10, -2, 3, 0),
    (0, 3, -1, 12, -2, 1),
    (1, 0, 2, -1, 9, 2),
    (-2, 1, 0, 3, -1, 10),
)
SLICE_ROUNDS = 100  # about 1 ms per slice on the baseline machine when it runs fast
SLICE_REF_S = 0.001
SAMPLE_EVERY_S = 0.05  # a sampler's slices take about 2% of the work's wall time


def calibration_slice():
    """Wall time of one fixed slice of Bareiss elimination on CAL_MATRIX."""
    n = len(CAL_MATRIX)
    start = perf_counter()
    for _ in range(SLICE_ROUNDS):
        a = [list(row) for row in CAL_MATRIX]
        prev = 1
        for k in range(n - 1):
            pivot, row_k = a[k][k], a[k]
            for i in range(k + 1, n):
                row_i, factor = a[i], a[i][k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
            prev = pivot
    return perf_counter() - start


class Speed:
    """Calibration slices; `factor` turns wall seconds of work done alongside
    them into reference seconds."""

    def __init__(self):
        self.slices = 0
        self.seconds = 0.0

    def sample(self, *_signal_args):
        self.seconds += calibration_slice()
        self.slices += 1

    @property
    def factor(self):
        return self.slices * SLICE_REF_S / self.seconds


class Sampler(Speed):
    """Takes a slice on entry, then one every SAMPLE_EVERY_S seconds from a
    SIGALRM handler, so that the slices sample the speed while the work in
    its block runs.  The slices' own time is `seconds`; subtract it from the
    work's."""

    def __enter__(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
