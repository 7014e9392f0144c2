"""Speed-corrected timing.

The benchmark was defined on a shared 2-vCPU Linux machine whose speed
changes from second to second: a fixed pure-Python loop takes from 1x to
1.8x its best time, depending on what its neighbours do, and CPU time
swings as much as wall time.  Raw times of the same work therefore spread
by up to 14 % between runs, and single passes by up to 32 %.

A SpeedClock removes most of that.  Every PERIOD_S seconds a timer signal
runs a small fixed reference kernel (dict, set, tuple and sort work, like
fixcat's own) and times it.  The wall and CPU time elapsed since the
previous sample are scaled by REF_KERNEL_S / (that kernel's time), so an
interval run while the machine is twice as slow counts half.  The kernel's
own time is left out.  The result is the region's time at the speed at
which the kernel takes REF_KERNEL_S, the kernel's usual time on an idle
core of that machine (Python 3.11.7).

The correction assumes fixcat and the kernel slow down alike.  A change
that makes fixcat itself evict more cache also slows the kernel a little
and is under-counted by that much.
"""

import signal
import statistics
import time

REF_KERNEL_S = 0.00045
PERIOD_S = 0.05
BRACKET_KERNELS = 15


def kernel():
    table = {}
    acc = 0
    for i in range(400):
        t = (i % 7, i % 11, (i * 31) % 13)
        key = frozenset((t, (i % 5,)))
        table[key] = table.get(key, 0) + 1
        acc += len(sorted(t))
    return acc + len(table)


def kernel_time():
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def bracket_scale():
    """REF_KERNEL_S over the median time of a burst of kernels."""
    return REF_KERNEL_S / statistics.median(
        kernel_time() for _ in range(BRACKET_KERNELS))


class SpeedClock:
    """Times a `with` block: raw and speed-corrected wall and CPU seconds."""

    def __enter__(self):
        self.wall = self.cpu = self.raw_wall = self.raw_cpu = 0.0
        self.kernels = []
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self._mark()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def _mark(self):
        self._wall0, self._cpu0 = time.perf_counter(), time.process_time()

    def _sample(self, signum=None, frame=None):
        dw = time.perf_counter() - self._wall0
        dc = time.process_time() - self._cpu0
        k = kernel_time()
        self.kernels.append(k)
        self.raw_wall += dw
        self.raw_cpu += dc
        self.wall += dw * REF_KERNEL_S / k
        self.cpu += dc * REF_KERNEL_S / k
        self._mark()

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._sample()
        return False
