"""Host-speed probe that runs inside each measured process.

Other tenants of a shared host change its speed by up to about 1.5x, for
seconds to minutes at a time, and the same work then takes that much
longer. To factor this out, a timer signal runs a fixed pure-Python loop in
the measured process's main thread every ``PERIOD_S`` seconds and records
the CPU time the loop took. The handler runs between the program's own
bytecodes, on the CPU the program is using, so it sees the speed the
program gets. A wall time multiplied by ``scale(samples)`` is the time the
same work takes when the loop costs ``REFERENCE_S``.

    python probe.py OUT.json -m MODULE [ARGS...]   like ``python -m MODULE``
    python probe.py OUT.json -c CODE               like ``python -c CODE``

runs the target under the probe and writes the samples to ``OUT.json``.
The exit status, stdout and stderr are the target's own.
"""

import json
import os
import runpy
import signal
import statistics
import sys
import time

PERIOD_S = 0.05
LOOP = 5000
# Typical cost of the loop on an Intel Xeon vCPU (2 vCPUs, Python 3.11.7);
# it only sets the scale of the reported times.
REFERENCE_S = 4.5e-4


class Probe:
    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = time.thread_time()
        total = 0
        for i in range(LOOP):
            total += i * i
        self.samples.append(time.thread_time() - start)

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples


def scale(samples) -> float:
    """Factor from wall time to time at the reference speed: the reference
    cost over the mean of the middle half of the sampled costs."""
    ordered = sorted(samples)
    quarter = len(ordered) // 4
    return REFERENCE_S / statistics.fmean(ordered[quarter:len(ordered) - quarter])


def main() -> None:
    out, mode, target, *rest = sys.argv[1:]
    probe = Probe().start()
    try:
        if mode == "-m":
            sys.path[0] = os.getcwd()
            sys.argv = [target, *rest]
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.path[0] = ""
            sys.argv = ["-c", *rest]
            exec(compile(target, "<string>", "exec"), {"__name__": "__main__"})
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(probe.stop(), fh)


if __name__ == "__main__":
    main()
