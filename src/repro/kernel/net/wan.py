"""Simulated-WAN backend: loopback semantics behind an impaired link.

Every payload (stream chunk, datagram, EOF marker) crosses a delay line
before it becomes readable at the peer:

* **latency** — fixed one-way propagation delay; stream ``connect`` also
  charges one SYN/SYN-ACK round trip, so connection-heavy workloads are
  network-bound at startup too,
* **jitter** — uniform random extra delay per payload (seeded, so runs
  are reproducible),
* **bandwidth** — a serialization clock per sender: back-to-back sends
  queue behind each other like packets on a link,
* **loss** — probabilistic *datagram* drops (streams stay reliable, like
  TCP over a lossy path; the datagram simply never arrives and no error
  is reported to either side),
* **reorder** — netem-style early delivery: a reordered datagram skips
  the delay line and jumps ahead of packets still queued on the link
  (streams keep strict FIFO, like TCP reassembly),
* **dup** — netem-style duplication: a duplicated datagram arrives
  twice, the copy right behind the original (datagrams only).

Impairment randomness is **per-flow deterministic**: every sending
socket draws from its own :class:`random.Random` stream, seeded from
``(backend seed, the socket's bound address)``.  Concurrent senders on
different threads therefore cannot perturb each other's loss/jitter/
reorder decisions — a run's impairment pattern is bit-reproducible no
matter how the scheduler interleaves the sending tasks (a single shared
RNG made the draw *order*, and hence every outcome, timing-dependent).

Delivery rides the same machinery :class:`~..eventpoll.TimerFD` uses —
a daemon :class:`threading.Timer` that, on expiry, moves due payloads
into the receive buffer and publishes ``EPOLLIN`` through the socket's
:class:`~..eventpoll.WaitQueue` — so delayed readiness flows through
``epoll_pwait``/``ppoll`` exactly like any other readiness edge, and
edge-triggered interest fires once per arrival, not per send.

In-flight stream bytes stay charged against the receiver's
:class:`~.base.StreamBuffer` window (``in_flight``), so the writer's
flow control sees one consistent ``SOCK_BUF_CAPACITY`` budget.
"""

from __future__ import annotations

import random
import threading
import time as _time
from collections import deque
from typing import Tuple

from ..eventpoll import EPOLLIN
from ..vfs import CharDevice
from .base import SOCK_DGRAM, Socket
from .loopback import LoopbackBackend


class WanBackend(LoopbackBackend):
    """Loopback namespace + delay-line delivery with impairments."""

    name = "wan"

    def __init__(self, latency_ms: float = 20.0, jitter_ms: float = 0.0,
                 loss: float = 0.0, bw_kbps: float = 0.0,
                 reorder: float = 0.0, dup: float = 0.0,
                 seed: int = 0xBEEF):
        super().__init__()
        for name, p in (("loss", loss), ("reorder", reorder), ("dup", dup)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if latency_ms < 0 or jitter_ms < 0 or bw_kbps < 0:
            raise ValueError("latency/jitter/bandwidth must be >= 0")
        self.latency_ns = int(latency_ms * 1e6)
        self.jitter_ns = int(jitter_ms * 1e6)
        self.loss = loss
        self.bw_kbps = bw_kbps
        self.reorder = reorder
        self.dup = dup
        self.seed = seed
        # serializes the link clock: senders may transmit toward
        # different receivers (different conds) at once
        self._link_lock = threading.Lock()

    def _rng_for(self, sock: Socket) -> random.Random:
        """The sender's private impairment stream (see module docstring).

        Keyed by the socket's bound address at first draw (sockets that
        draw before binding get an address-independent stream), so the
        per-socket draw sequence depends only on that socket's own send
        order — never on cross-thread interleaving.
        """
        rng = sock.__dict__.get("_wan_rng")
        if rng is None:
            rng = random.Random(f"{self.seed}:{sock.addr!r}")
            sock.__dict__["_wan_rng"] = rng
        return rng

    def describe(self) -> str:
        out = (f"wan:latency_ms={self.latency_ns / 1e6:g},"
               f"jitter_ms={self.jitter_ns / 1e6:g},"
               f"loss={self.loss:g},bw_kbps={self.bw_kbps:g}")
        if self.reorder:
            out += f",reorder={self.reorder:g}"
        if self.dup:
            out += f",dup={self.dup:g}"
        return out

    # ---- connection establishment pays the handshake ----

    def connect(self, sock: Socket, addr) -> None:
        """Charge one SYN/SYN-ACK round trip before ESTABLISHED.

        Stream connects block for ~1 RTT (two one-way latencies plus a
        jitter sample per direction) whether they succeed or get RST —
        the refusal races back over the same wire.  Datagram "connects"
        only pin the peer address: no packets, no charge.
        """
        if sock.type != SOCK_DGRAM:
            rng = self._rng_for(sock)
            jit = (int(rng.uniform(0, self.jitter_ns)) +
                   int(rng.uniform(0, self.jitter_ns))) \
                if self.jitter_ns else 0
            rtt_ns = 2 * self.latency_ns + jit
            if rtt_ns > 0:
                _time.sleep(rtt_ns / 1e9)
        super().connect(sock, addr)

    # ---- the delay line ----

    def _transmit(self, sender: Socket, peer: Socket, kind: str,
                  payload, nbytes: int, reorder: bool = False) -> bool:
        """Queue one payload for delayed delivery (under ``peer.lock``).

        Returns False when the payload should be delivered inline — the
        link adds no delay and nothing is queued ahead, or ``reorder``
        asks for netem-style early delivery (the queue-jumper skips the
        delay line and lands ahead of anything still queued).  The
        inline path records the tap in the loopback seam; the FIFO
        clock (``_wan_last_at``) is untouched by reordered payloads.
        """
        now = _time.monotonic_ns()
        jit = int(self._rng_for(sender).uniform(0, self.jitter_ns)) \
            if self.jitter_ns else 0
        with self._link_lock:
            # serialization: this sender's link is busy until previous
            # sends finish transmitting at the configured bandwidth
            busy = max(now, sender.__dict__.get("_wan_busy_ns", 0))
            tx_ns = int(nbytes * 8e6 / self.bw_kbps) \
                if self.bw_kbps > 0 else 0
            sender.__dict__["_wan_busy_ns"] = busy + tx_ns
        if reorder:
            return False
        q = peer.__dict__.setdefault("_wan_pending", deque())
        deliver_at = busy + tx_ns + self.latency_ns + jit
        # FIFO: jitter never reorders in-order payloads on one link
        deliver_at = max(deliver_at, peer.__dict__.get("_wan_last_at", 0))
        if deliver_at <= now and not q:
            return False
        peer.__dict__["_wan_last_at"] = deliver_at
        q.append((deliver_at, kind, payload))
        self._tap_record(kind, sender, peer, _payload_bytes(payload))
        # one timer per drain cycle, not per payload: FIFO deadlines are
        # monotonic, so while a timer is armed the head can only move
        # later — _pump re-arms if anything remains after a drain
        if not peer.__dict__.get("_wan_timer_armed", False):
            peer.__dict__["_wan_timer_armed"] = True
            self._arm(peer, deliver_at - now)
        return True

    def _arm(self, peer: Socket, delay_ns: int) -> None:
        t = threading.Timer(max(delay_ns, 0) / 1e9, self._pump, args=(peer,))
        t.daemon = True
        t.start()

    def _pump(self, peer: Socket) -> None:
        """Timer expiry: move every due payload into the receive side."""
        mask = 0
        with peer.lock:
            peer.__dict__["_wan_timer_armed"] = False
            q = peer.__dict__.get("_wan_pending")
            now = _time.monotonic_ns()
            while q and q[0][0] <= now:
                _, kind, payload = q.popleft()
                if kind == "data":
                    peer.rx.in_flight -= len(payload)
                    peer.rx.data.extend(payload)
                    mask |= EPOLLIN
                elif kind == "dgram":
                    peer.dgrams.append(payload)
                    mask |= EPOLLIN
                else:  # "eof": the FIN arrives behind any in-flight data
                    peer.rx.set_eof()
                    mask |= payload
            if q:
                # later payloads (or an early-firing Timer) still pending
                peer.__dict__["_wan_timer_armed"] = True
                self._arm(peer, q[0][0] - now)
        if mask:
            peer.wq.wake(mask)

    # ---- delivery-policy overrides ----

    def _deliver_stream(self, sender: Socket, peer: Socket,
                        chunk: bytes) -> None:
        if self._transmit(sender, peer, "data", chunk, len(chunk)):
            peer.rx.in_flight += len(chunk)
        else:
            super()._deliver_stream(sender, peer, chunk)

    def pending_delivery(self, sock: Socket) -> bool:
        return bool(sock.__dict__.get("_wan_pending"))

    def _deliver_dgram(self, sender: Socket, target: Socket,
                       payload: Tuple[Tuple, bytes]) -> None:
        rng = self._rng_for(sender)
        if self.loss > 0 and rng.random() < self.loss:
            # the WAN ate it; senders never hear about it — but the
            # observability layer does (this drop went uncounted before
            # the shared counter registry existed)
            if self.counters is not None:
                self.counters.inc("net.drop")
            if self.trace is not None:
                self.trace.emit("net_drop", arg=len(payload[1]),
                                info="loss")
            return
        duplicated = self.dup > 0 and rng.random() < self.dup
        # one reorder roll per datagram: a duplicate shares its
        # original's fate, so the copy always rides right behind
        reordered = self.reorder > 0 and rng.random() < self.reorder
        if self.counters is not None:
            if duplicated:
                self.counters.inc("net.dup")
            if reordered:
                self.counters.inc("net.reorder")
        for _ in range(2 if duplicated else 1):
            with target.lock:
                queued = self._transmit(sender, target, "dgram", payload,
                                        len(payload[1]), reorder=reordered)
            if not queued:
                super()._deliver_dgram(sender, target, payload)

    def deliver_eof(self, sender: Socket, peer: Socket, mask: int) -> None:
        with peer.lock:
            queued = self._transmit(sender, peer, "eof", mask, 0)
        if not queued:
            super().deliver_eof(sender, peer, mask)


def _payload_bytes(payload) -> bytes:
    """Wire bytes of a delay-line payload (eof markers carry none)."""
    if isinstance(payload, tuple):
        return payload[1]          # dgram: (src_addr, data)
    if isinstance(payload, (bytes, bytearray)):
        return bytes(payload)      # stream chunk
    return b""                     # eof mask


# ----------------------------------------------------------------------
# /proc/sys/net/wan knob devices (kernel/procfs.py mounts these)
# ----------------------------------------------------------------------

# knob -> (attribute, scale to storage units, upper bound in knob units).
# latency/jitter are exposed in milliseconds but stored in nanoseconds;
# probabilities live in [0, 1]; bandwidth in kbit/s (0 = unlimited).
_WAN_KNOBS = {
    "latency_ms": ("latency_ns", 1e6, float("inf")),
    "jitter_ms": ("jitter_ns", 1e6, float("inf")),
    "loss": ("loss", None, 1.0),
    "reorder": ("reorder", None, 1.0),
    "dup": ("dup", None, 1.0),
    "bw_kbps": ("bw_kbps", None, float("inf")),
}


class WanKnobDevice(CharDevice):
    """One writable /proc/sys/net/wan knob: live link reconfiguration.

    Same validation discipline as the ``/proc/sys/vm`` knobs — a write
    is parsed (``EINVAL`` on garbage), range-checked (``EINVAL`` out of
    range), then applied to the running backend, so an in-flight
    workload's link can be degraded without booting a new kernel.
    Payloads already queued on the delay line keep their old delivery
    times; only subsequent sends see the new impairments.
    """

    def __init__(self, backend: WanBackend, name: str):
        if name not in _WAN_KNOBS:
            raise ValueError(name)
        self.backend = backend
        self.name = name

    def _read_value(self) -> float:
        attr, scale, _ = _WAN_KNOBS[self.name]
        value = getattr(self.backend, attr)
        return value / scale if scale else value

    def read(self, length: int) -> bytes:
        return f"{self._read_value():g}\n".encode()[:length]

    def write(self, data: bytes) -> int:
        from ..errno import EINVAL, KernelError
        try:
            value = float(data.split()[0])
        except (ValueError, IndexError):
            raise KernelError(EINVAL, f"bad value for {self.name}")
        attr, scale, hi = _WAN_KNOBS[self.name]
        if not 0.0 <= value <= hi:
            raise KernelError(EINVAL, f"{self.name} out of range")
        setattr(self.backend, attr, int(value * scale) if scale else value)
        return len(data)
