"""Host-speed sampling for untraced iterations.

The benchmark runs on shared machines whose speed changes by up to 2x
from one minute to the next, so a median over one run cannot hide it.
While an iteration runs, a ``SIGALRM`` timer interrupts it every
``INTERVAL_S`` and times one of three small fixed kernels, in turn:
dictionary and integer work, a toy packet simulation (object
allocation, a 20,000-entry heap, per-flow dictionaries) and a pointer
chase through a list larger than a core's private caches. Sampling
inside the iteration, rather than between iterations, measures the
host during the same seconds as the program. The three kinds of work
slow down by different amounts when the host does; their sum tracked
the simulator's own slowdown best.

``speed_index`` is the sum over the kernels of each one's mean time,
with the slowest and fastest tenth of its samples left out (a sample
the scheduler interrupted says little about the host's speed).
``run.py`` multiplies an iteration's host times by
``REFERENCE_S / speed_index``. The kernels share no code with the
program, so a change to the program moves the scaled times exactly as
it moves host time. The kernels use their own state and random stream,
so they cannot change a simulated result. Changing this file rescales
every time the benchmark reports.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
from collections import deque
from time import perf_counter

#: Timer period: one kernel runs every INTERVAL_S of wall time.
INTERVAL_S = 0.02
#: Share of each kernel's samples dropped at either end before the mean.
TRIM = 0.1
#: ``speed_index`` that the reported times are scaled to: the sum of
#: the kernels' times on the machine where the benchmark was defined,
#: in its fast phase.
REFERENCE_S = 1.3e-3

_FLOWS = 2000
_HEAP = 20_000
_CHASE = 1 << 17


class _Packet:
    __slots__ = ("flow", "seq", "sent_at")

    def __init__(self, flow, seq, sent_at):
        self.flow = flow
        self.seq = seq
        self.sent_at = sent_at


class _Flow:
    __slots__ = ("cwnd", "next_seq", "acked", "inflight")

    def __init__(self):
        self.cwnd = 10.0
        self.next_seq = 0
        self.acked = 0
        self.inflight = {}


class HostSpeed:
    """Samples the host's speed with a wall-clock timer until
    ``stop()``. Install it in the process that does the work."""

    def __init__(self) -> None:
        self._rng = random.Random(5)
        self._flows = [_Flow() for _ in range(_FLOWS)]
        self._heap = [((i * 0.618) % 1000.0, i, i % _FLOWS) for i in range(_HEAP)]
        heapq.heapify(self._heap)
        self._seq = _HEAP
        self._queue = deque()
        # x -> (a*x + c) mod 2**k with a = 1 (mod 4) and c odd is one
        # cycle through every index.
        self._chase = [(i * 40501 + 12345) % _CHASE for i in range(_CHASE)]
        self._at = 0
        self._kernels = (self._arith, self._packets, self._pointer_chase)
        self.samples = {k.__name__.lstrip("_"): [] for k in self._kernels}
        self._turn = 0
        self._previous = None

    # -- kernels -------------------------------------------------------
    def _arith(self) -> None:
        table = {}
        total = 0
        for i in range(2000):
            table[i & 127] = table.get(i & 127, 0) + i
            total += i * i

    def _packets(self) -> None:
        heap, flows, queue, rng = self._heap, self._flows, self._queue, self._rng
        seq = self._seq
        for _ in range(150):
            now, _, fid = heapq.heappop(heap)
            flow = flows[fid]
            packet = _Packet(flow, flow.next_seq, now)
            flow.next_seq += 1
            flow.inflight[packet.seq] = packet
            queue.append(packet)
            if len(queue) > 64:
                old = queue.popleft()
                old.flow.inflight.pop(old.seq, None)
                old.flow.acked += 1
                old.flow.cwnd += 1.0 / old.flow.cwnd
            heapq.heappush(heap, (now + 1000.0 * rng.random(), seq, (fid * 7 + seq) % _FLOWS))
            seq += 1
        self._seq = seq

    def _pointer_chase(self) -> None:
        chase, at = self._chase, self._at
        for _ in range(1500):
            at = chase[at]
        self._at = at

    # -- timer ---------------------------------------------------------
    def _tick(self, signum, frame) -> None:
        kernel = self._kernels[self._turn % len(self._kernels)]
        self._turn += 1
        start = perf_counter()
        kernel()
        self.samples[kernel.__name__.lstrip("_")].append(perf_counter() - start)

    def start(self) -> None:
        for kernel in self._kernels:  # warm: first calls are not samples
            kernel()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None


def _trimmed_mean(times) -> float:
    ordered = sorted(times)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def speed_index(samples: dict) -> float:
    """Sum over the kernels of each one's trimmed mean time; ``samples``
    maps a kernel name to its times, pooled over processes."""
    return sum(_trimmed_mean(times) for times in samples.values())
