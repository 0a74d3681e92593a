"""Yardsticks of host speed: pass and start-up times put on one scale.

On a shared machine the speed of a CPU drifts by a factor of up to two
for seconds to minutes at a time, as other tenants come and go.  A
timed stretch is therefore rescaled by how long a fixed reference
computation, the yardstick, took right before and right after it on the
same CPU:

    reference seconds = stretch seconds * REF_YARDSTICK_S / yardstick seconds

so a figure means "seconds at the speed at which the yardstick takes
REF_YARDSTICK_S", whatever the host was doing.  The yardstick is integer
arithmetic and a walk over a 100 000-element list in a fixed random
order: it allocates no object the cyclic garbage collector tracks, so
it leaves the collector's schedule for the measured code unchanged.

A pass is cut into stretches of at least EVERY seconds at the marks the
workload makes; the yardstick runs at each cut, outside the stretches.

A start-up of a child process is rescaled the same way by a start-up
yardstick: a child that starts the interpreter and imports a fixed set
of standard modules, run right before and right after it.  Start-ups
are mostly kernel and import work, which the in-process yardstick does
not track.
"""

import os
import random
import subprocess
import sys
import time

now = time.perf_counter

EVERY = 0.05
# The reference speed: the yardstick takes REF_YARDSTICK_S at it.
# Between stretches of a pass, with its data partly evicted by the
# measured code, a 2.1 GHz Xeon vCPU runs the yardstick in about 0.9 ms
# while its host is quiet and 1.5 ms while it is busy.
REF_YARDSTICK_S = 0.001
# The start-up yardstick takes REF_START_S at the reference speed.  On
# the same vCPU, between two start-ups of the benchmark, it takes about
# that while the host is quiet.
REF_START_S = 0.075
START_YARDSTICK = [sys.executable, "-c", "import argparse, dataclasses, "
                   "fractions, json, random, subprocess"]
_WALK = []                # (walked list, order), made at the first use


def yardstick():
    """Seconds one run of the reference computation takes now."""
    if not _WALK:
        rng = random.Random(3)
        walked = [rng.random() for _ in range(100_000)]
        _WALK.append((walked, [rng.randrange(len(walked))
                               for _ in range(3000)]))
    values, order = _WALK[0]
    start = now()
    total = 0
    for i in range(6000):
        total += i * i % 7
    walked = 0.0
    for i in order:
        walked += values[i]
    return now() - start


def pin():
    """Keep this process and its children on one CPU, so that the
    yardstick measures the CPU the measured code runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def rescale(seconds, before, after, ref=REF_YARDSTICK_S):
    """A stretch's seconds at reference speed, given the yardstick's
    times around it and its time ref at reference speed."""
    return seconds * ref / ((before + after) / 2)


def child_seconds(cmd):
    """Wall-clock seconds for the child process cmd to run and exit."""
    start = now()
    # wait() without a timeout blocks in waitpid; with one it polls in
    # steps of up to 50 ms, which would quantize the time
    with subprocess.Popen(cmd, stdout=subprocess.DEVNULL) as proc:
        code = proc.wait()
    if code != 0:
        raise subprocess.CalledProcessError(code, cmd)
    return now() - start


def start_up(cmd):
    """(wall-clock seconds, seconds at reference speed) for the child
    process cmd, between two runs of the start-up yardstick."""
    before = child_seconds(START_YARDSTICK)
    seconds = child_seconds(cmd)
    after = child_seconds(START_YARDSTICK)
    return seconds, rescale(seconds, before, after, REF_START_S)


class Pass:
    """Marks of one timed pass: call mark() at each point where the
    workload may be cut (after a build, a request, a checkpoint return).

    raw_s is the pass's wall time without the yardstick runs; ref_s is
    the same at reference speed; marks counts the calls to mark()."""

    def __init__(self):
        self.marks = 0
        self.stretches = []           # (seconds, yardstick before, after)
        self._yardstick = yardstick()
        self._start = now()

    def mark(self):
        self.marks += 1
        t = now()
        if t - self._start >= EVERY:
            self._cut(t)

    def close(self):
        self._cut(now())
        return self

    def _cut(self, t):
        after = yardstick()
        self.stretches.append((t - self._start, self._yardstick, after))
        self._yardstick = after
        self._start = now()

    @property
    def raw_s(self):
        return sum(s for s, _, _ in self.stretches)

    @property
    def ref_s(self):
        return sum(rescale(*stretch) for stretch in self.stretches)
