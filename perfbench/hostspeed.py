"""Host-speed probe: reports timings at a fixed reference host speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
a quarter or more over tens of seconds (other tenants, frequency
changes), so two 12-second windows of the same code can differ by 30%.
The drift is slow next to one operation, which makes it measurable in
between: the workloads run ``HostSpeed.probe`` -- a fixed piece of pure
Python work shaped like the anonymizer's (line splitting, dict counting,
regex matching, HMAC) that uses none of the program's code -- before the
first operation and after every one, while the program is idle.

An operation that took ``d`` wall seconds between probes whose mean time
was ``p`` is reported as ``d * REF_WALL_S / p`` reference seconds: the
time it would have taken on a host where the probe takes ``REF_WALL_S``.
CPU time is scaled the same way by the probe's own thread CPU time.  A
change to the program moves the operation and not the probe, so it moves
the reference time by the same share as the wall time.
"""

from __future__ import annotations

import hashlib
import hmac
import re
import statistics
from time import perf_counter, thread_time
from typing import List

#: Probe wall time on the reference host (a 2-vCPU x86-64 VM, Python
#: 3.11, near the median of its drift).  Any fixed value works; this one
#: keeps reference seconds close to wall seconds there.
REF_WALL_S = 0.008
#: Probe thread CPU time on the same host.
REF_CPU_S = 0.008

#: Probes on each side of an operation averaged into its factor: a
#: single 8 ms probe is a noisy sample of a drift that lasts seconds.
SPAN = 2

_LINES = (
    "interface GigabitEthernet0/1",
    " description uplink to core-rtr-07 port 3",
    " ip address 10.17.4.1 255.255.255.252",
    " ip ospf cost 100",
    "router bgp 65010",
    " neighbor 192.0.2.33 remote-as 65020",
    " neighbor 192.0.2.33 route-map FROM-PEER in",
    "access-list 110 permit tcp 172.16.8.0 0.0.0.255 any eq 22",
    "snmp-server community s3cr3t RO 12",
    "ip route 0.0.0.0 0.0.0.0 198.51.100.1",
)
_ADDRESS = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3})\b")
_KEY = b"perfbench-host-speed"
_ROUNDS = 96


def _work() -> int:
    table = {}
    for _ in range(_ROUNDS):
        for line in _LINES:
            words = line.split()
            for word in words:
                table[word] = table.get(word, 0) + 1
            for match in _ADDRESS.finditer(line):
                hmac.new(_KEY, match.group(1).encode(), hashlib.sha256
                         ).digest()
            " ".join(reversed(words)).upper()
    return len(table)


class HostSpeed:
    """Probe samples of one window, in the order they were taken."""

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.cpus: List[float] = []

    def probe(self) -> None:
        wall, cpu = perf_counter(), thread_time()
        _work()
        self.cpus.append(thread_time() - cpu)
        self.walls.append(perf_counter() - wall)

    def wall_factor(self, index: int) -> float:
        """Reference seconds per wall second for operation *index*.

        Operation *index* ran between probes *index* and *index* + 1.
        """
        if not self.walls:
            return 1.0
        low = max(0, index + 1 - SPAN)
        high = min(len(self.walls), index + 1 + SPAN)
        nearby = self.walls[low:high] or self.walls[-SPAN:]
        return REF_WALL_S / statistics.fmean(nearby)

    def cpu_factor(self) -> float:
        """Reference CPU seconds per CPU second over the whole window."""
        if not self.cpus:
            return 1.0
        return REF_CPU_S / statistics.median(self.cpus)
