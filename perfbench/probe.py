"""Host speed probe: corrects operation times for contention on the host.

The reference machine is a 2-core virtual machine whose throughput swings by
20-70% over seconds to minutes as other tenants load the host; a plain
wall-clock median moved by 15-30% from one run to the next. While operations
run, a SIGALRM timer interrupts the process every `INTERVAL_S` and times a
fixed pure-Python loop. The loop is slowed by contention as much as the
operation running around it, so an operation's time is rescaled to a host
on which the loop costs `REFERENCE_COST_S`:

    corrected = (elapsed - probe time inside the window)
                * REFERENCE_COST_S / mean probe cost around the window

`REFERENCE_COST_S` is the loop's cost on the unloaded reference machine
(2-core Intel Xeon VM, CPython 3.11.7), so corrected times read as seconds
there. On other hosts they stay comparable between commits, which is what
the benchmark's bounds compare, but are not that host's wall-clock seconds.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.02
LOOP = 5000         # iterations of the probe loop
REFERENCE_COST_S = 3.0e-4
MARGIN_S = 0.25     # probes this close to an operation describe its speed


def _probe_loop():
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return total


class SpeedProbe:
    """Context manager that samples host speed until it exits."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame):
        started = perf_counter()
        _probe_loop()
        self.starts.append(started)
        self.ends.append(perf_counter())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def median_cost(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))

    def corrector(self):
        """Return f(start, end) -> the corrected duration of that window."""
        prefix = [0.0]
        for start, end in zip(self.starts, self.ends):
            prefix.append(prefix[-1] + end - start)
        typical = self.median_cost()

        def span(lo, hi):
            """Probe count and summed cost of probes ending in [lo, hi]."""
            i = bisect.bisect_left(self.ends, lo)
            j = bisect.bisect_right(self.ends, hi)
            return j - i, prefix[j] - prefix[i]

        def correct(start, end):
            _, inside = span(start, end)
            n, around = span(start - MARGIN_S, end + MARGIN_S)
            # n is 0 only if one long native call held the signals off
            cost = around / n if n else typical
            return (end - start - inside) * REFERENCE_COST_S / cost

        return correct
