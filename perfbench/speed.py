"""Machine-speed reference, for end-to-end times that do not drift with the host.

On a shared host the speed of a core drifts by 20-30% over minutes, as other
tenants come and go, and two runs of the same code a few minutes apart differ
by as much.  The slowdown comes in spells of a fraction of a second during
which everything runs up to twice as slow.  The harness therefore times a
fixed reference task, which uses none of the program's code, on the core
that runs the work (run.py pins the benchmark to one core), and scales each
measured time by ``(NOMINAL_S / mean(task times)) ** ELASTICITY``, the task
times being:

- for a command that runs longer than ``PROBE_AFTER_S``, those of probes that
  interrupt it every ``PROBE_EVERY_S`` from then on (their own time is left
  out of the command's);
- for a shorter command, those of the runs just before and after it, which
  take a tenth of the time of the command they follow (at least one run);
- for a fresh interpreter, which the parent cannot interrupt, those of runs
  before and after it (``bracket_scale``).

A scaled time is the time the work would take on a host that runs the task
in ``NOMINAL_S``; the raw wall times are kept in the run record beside it.

The task mixes what the program spends its time on: scalar complex
arithmetic in Python, elementwise numpy on arrays of a few megabytes, and
float formatting into text.  On a 2-vCPU Xeon host, two design passes with
identical inputs in one process differed by 6.5% (standard deviation of the
log) in raw time, 8.4% when scaled by runs between commands only, and 1.8%
when scaled by probes taken during the commands.  Short commands are not
interrupted: a probe evicts their caches, and on landscape and verify the
runs between commands gave the steadier figures.  In a slow spell the
program's time stretches more than the task's: over ten runs of each
workload, an exponent of 1.2 left the passes with identical inputs in one
run 5-20% closer together than an exponent of 1, and 1.4 or more drew them
apart again.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Mean task time on a 2-vCPU Intel Xeon host; only sets the scale.
NOMINAL_S = 0.009
ELASTICITY = 1.2
# Task runs take about a tenth of the measured time, between commands and in
# probes alike.
DUTY = 0.1
PROBE_AFTER_S = 1.0
PROBE_EVERY_S = 0.1

_WAVE = np.exp(1j * np.linspace(0.0, 1.0, 200_000))
_VALUES = np.abs(np.sin(np.arange(1600) * 0.37)).tolist()


def _task() -> float:
    re, im = 1.0, 0.0
    for k in range(9000):
        c, s = math.cos(k * 1e-3), math.sin(k * 1e-3)
        re, im = re * c - im * s, re * s + im * c
    wave = _WAVE * np.conj(_WAVE) + _WAVE
    text = "\n".join(f"{v:.17g},{v:.17g}" for v in _VALUES)
    return re + im + abs(wave[-1]) + len(text)


def task_s() -> float:
    """Wall seconds of one run of the reference task."""
    t0 = time.perf_counter()
    _task()
    return time.perf_counter() - t0


def scale(times) -> float:
    """Factor that turns a time measured amid task runs of ``times`` into nominal seconds."""
    return (NOMINAL_S / statistics.fmean(times)) ** ELASTICITY


def bracket_scale(fn, runs: int):
    """``fn()``'s result and the scale of ``runs`` task runs before and after it."""
    times = [task_s() for _ in range(runs)]
    result = fn()
    times += [task_s() for _ in range(runs)]
    return result, scale(times)


class Meter:
    """Scales the time of each command of a pass to nominal speed.

    Call ``start()`` before a command and ``stop(seconds)`` after it, with
    its wall time; ``stop`` returns that time without the probes' share, and
    ``scaled_s`` sums the scaled times.
    """

    def __init__(self):
        self.scaled_s = 0.0
        self._before = self._runs(0.0)
        self._probes = []

    @staticmethod
    def _runs(seconds: float) -> list:
        return [task_s() for _ in range(max(1, math.ceil(DUTY * seconds / NOMINAL_S)))]

    def _probe(self, *_):
        self._probes.append(task_s())

    def start(self) -> None:
        self._probes = []
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_AFTER_S, PROBE_EVERY_S)

    def stop(self, seconds: float) -> float:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        own = seconds - sum(self._probes)
        after = self._runs(0.0 if self._probes else own)
        self.scaled_s += own * scale(self._probes or self._before + after)
        self._before = after
        return own
