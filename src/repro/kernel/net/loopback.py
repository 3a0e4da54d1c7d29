"""Loopback backend: the in-process, zero-latency network (the default).

Port/address namespace plus connection establishment; delivery is
immediate — a ``send`` lands in the peer's receive buffer before the
syscall returns, exactly the semantics the repository has always had.
The three ``_deliver_*`` hooks are the seams :class:`~.wan.WanBackend`
overrides to interpose a delay line.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from ..errno import (
    EADDRINUSE, EAGAIN, ECONNREFUSED, EINVAL, EISCONN, ENOTCONN,
    EOPNOTSUPP, EPIPE, KernelError,
)
from ..eventpoll import EPOLLIN
from .base import (
    AF_INET, AF_UNIX, NetBackend, SO_REUSEADDR, SOCK_DGRAM, SOCK_STREAM,
    SOL_SOCKET, Socket,
)


class LoopbackBackend(NetBackend):
    """Port/address namespace with instantaneous in-process delivery."""

    name = "loopback"

    def __init__(self):
        super().__init__()
        self._bound: Dict[Tuple, Socket] = {}
        self.lock = threading.Lock()

    def socket(self, family: int, type_: int) -> Socket:
        if family not in (AF_UNIX, AF_INET):
            raise KernelError(EINVAL, f"family {family}")
        base_type = type_ & 0xFF
        if base_type not in (SOCK_STREAM, SOCK_DGRAM):
            raise KernelError(EINVAL, f"type {type_}")
        return Socket(self, family, base_type)

    def bind(self, sock: Socket, addr: Tuple) -> None:
        key = (sock.family, sock.type, addr)
        with self.lock:
            if key in self._bound and \
                    not sock.opts.get((SOL_SOCKET, SO_REUSEADDR)):
                existing = self._bound[key]
                if existing.state != Socket.ST_CLOSED:
                    raise KernelError(EADDRINUSE, str(addr))
            self._bound[key] = sock
        sock.addr = addr
        sock.state = Socket.ST_BOUND

    def listen(self, sock: Socket, backlog: int) -> None:
        if sock.addr is None:
            raise KernelError(EINVAL, "listen before bind")
        if sock.type != SOCK_STREAM:
            raise KernelError(EOPNOTSUPP)
        sock.backlog_limit = max(backlog, 1)
        sock.state = Socket.ST_LISTENING

    def connect(self, sock: Socket, addr: Tuple) -> None:
        if sock.state == Socket.ST_CONNECTED:
            raise KernelError(EISCONN)
        if sock.type == SOCK_DGRAM:
            sock.peer_addr = addr  # datagram "connect" just fixes the target
            return
        with self.lock:
            listener = self._bound.get((sock.family, sock.type, addr))
        if listener is None or listener.state != Socket.ST_LISTENING:
            raise KernelError(ECONNREFUSED, str(addr))
        server_side = Socket(self, sock.family, sock.type)
        server_side.peer = sock
        server_side.addr = addr
        server_side.peer_addr = sock.addr or ("", 0)
        server_side.state = Socket.ST_CONNECTED
        sock.peer = server_side
        sock.peer_addr = addr
        sock.state = Socket.ST_CONNECTED
        with listener.lock:
            if len(listener.backlog) >= listener.backlog_limit:
                sock.peer = None
                sock.state = Socket.ST_BOUND if sock.addr else Socket.ST_NEW
                raise KernelError(ECONNREFUSED, "backlog full")
            listener.backlog.append(server_side)
        listener.wq.wake(EPOLLIN)

    def accept_step(self, listener: Socket) -> Socket:
        with listener.lock:
            if listener.backlog:
                return listener.backlog.pop(0)
            raise KernelError(EAGAIN, "no pending connections")

    def sendto(self, sock: Socket, data: bytes, addr: Optional[Tuple]) -> int:
        if sock.type != SOCK_DGRAM:
            if addr is not None and sock.state == Socket.ST_CONNECTED:
                return sock.send_step(data)
            raise KernelError(EOPNOTSUPP)
        target_addr = addr or sock.peer_addr
        if target_addr is None:
            raise KernelError(ENOTCONN)
        with self.lock:
            target = self._bound.get((sock.family, SOCK_DGRAM, target_addr))
        if target is None:
            raise KernelError(ECONNREFUSED, str(target_addr))
        self._deliver_dgram(sock, target, (sock.addr or ("", 0), bytes(data)))
        return len(data)

    def recvfrom_step(self, sock: Socket, length: int) -> Tuple[bytes, Tuple]:
        if sock.type != SOCK_DGRAM:
            return sock.recv_step(length), sock.peer_addr or ("", 0)
        with sock.lock:
            if sock.dgrams:
                src, data = sock.dgrams.pop(0)
                return data[:length], src
            raise KernelError(EAGAIN, "no datagrams")

    def socketpair(self, family: int, type_: int) -> Tuple[Socket, Socket]:
        a = self.socket(family, type_)
        b = self.socket(family, type_)
        a.peer = b
        b.peer = a
        a.state = b.state = Socket.ST_CONNECTED
        a.peer_addr = b.peer_addr = ("", 0)
        return a, b

    def unregister(self, sock: Socket) -> None:
        with self.lock:
            for key, s in list(self._bound.items()):
                if s is sock:
                    del self._bound[key]

    # ---- delivery policy (the seams a WAN interposes on) ----

    def stream_send(self, sock: Socket, data: bytes) -> int:
        peer = sock.peer
        if sock.state != Socket.ST_CONNECTED or peer is None:
            if sock.type == SOCK_DGRAM:
                raise KernelError(ENOTCONN)
            raise KernelError(EPIPE, "send on unconnected/reset socket")
        with peer.lock:
            if peer.state == Socket.ST_CLOSED:
                raise KernelError(EPIPE, "peer closed")
            space = peer.rx.space()
            if space <= 0:
                raise KernelError(EAGAIN, "peer buffer full")
            chunk = bytes(data[:space])
            self._deliver_stream(sock, peer, chunk)
            return len(chunk)

    def _deliver_stream(self, sender: Socket, peer: Socket,
                        chunk: bytes) -> None:
        """Make ``chunk`` readable at ``peer`` (called under ``peer.lock``)."""
        self._tap_record("data", sender, peer, chunk)
        n = peer.rx.write(chunk)  # pre-clamped to the window by the caller
        assert n == len(chunk), (n, len(chunk))
        peer.wq.wake(EPOLLIN)

    def _deliver_dgram(self, sender: Socket, target: Socket,
                       payload: Tuple[Tuple, bytes]) -> None:
        self._tap_record("dgram", sender, target, payload[1])
        with target.lock:
            target.dgrams.append(payload)
        target.wq.wake(EPOLLIN)

    def deliver_eof(self, sender: Socket, peer: Socket, mask: int) -> None:
        self._tap_record("eof", sender, peer, b"")
        with peer.lock:
            peer.rx.set_eof()
        peer.wq.wake(mask)
