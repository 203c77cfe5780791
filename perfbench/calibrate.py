"""Machine-speed calibration: a fixed slice of reference work, timed beside the program.

On a shared host the same work can take up to twice as long from one
minute to the next, and every kind of work (numpy kernels and plain
Python alike) slows by the same factor. So a fixed slice of work, timed
right next to the program, measures the machine's speed at that moment.

Slices run before every CLI command and, inside a command, after any
hooked program call once `INTERVAL_S` has passed since the last slice.
Their time is taken out of the command's time. A timed region's
calibrated seconds are its seconds times NOMINAL_SLICE_S over the median
time of the slices taken during it (widened by `MARGIN_S`): the seconds
it would take at the speed where one slice takes NOMINAL_SLICE_S.
"""

import bisect
import functools
import statistics
import time

import numpy as np

# Time of one slice on a 2-vCPU x86-64 cloud host in its fast state; only
# a unit, so that calibrated times read about as seconds.
NOMINAL_SLICE_S = 0.003
INTERVAL_S = 0.1
MARGIN_S = 0.25

_rng = np.random.default_rng(0)
_members = _rng.standard_normal((16, 61, 32))
_rows = _rng.integers(0, 300, (16, 61))
_grad = np.zeros((300, 32))


def _work():
    """The reference slice: a gather-scatter and a member distance, then a Python loop."""
    for _ in range(2):
        np.add.at(_grad, _rows, _members)
        ((_members[:, :, None, :] - _members[:, None, :5, :]) ** 2).sum(-1)
    total = 0
    for i in range(8000):
        total += i * i
    return total


class Calibrator:
    """Takes slices, hooks program calls, and scales timed regions by the local speed."""

    def __init__(self):
        self.ends = []        # end time of each slice, ascending
        self.seconds = []     # duration of each slice
        self.paused = 0.0     # total seconds spent in slices
        self._next = 0.0
        self._saved = []

    def slice(self):
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        self.ends.append(end)
        self.seconds.append(end - start)
        self.paused += end - start
        self._next = end + INTERVAL_S

    def _maybe_slice(self):
        if time.perf_counter() >= self._next:
            self.slice()

    def install(self, module, attr):
        """Take due slices after each call of module.attr."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def hooked(*args, **kwargs):
            result = original(*args, **kwargs)
            self._maybe_slice()
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, hooked)

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def scale(self, region):
        """Calibrated time of a region that ran `region.seconds` of program
        time between `region.start` and `region.end`.

        Every region begins with a command, and a slice runs just before
        each command, so the window always holds a slice.
        """
        lo = bisect.bisect_left(self.ends, region.start - MARGIN_S)
        hi = bisect.bisect_right(self.ends, region.end + MARGIN_S)
        return region.seconds * NOMINAL_SLICE_S / statistics.median(self.seconds[lo:hi])
