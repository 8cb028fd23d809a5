"""Load client for the gateway workloads (runs inside ``run.py``).

Speaks the gateway's documented wire protocol over one TCP connection:
u32 big-endian length prefix, then ``repro.gateway.wire`` frame bytes
carrying ``repro.core.delimiting`` fragments.  From ``repro`` it uses
only ``frame_to_wire``/``decode_shim_frame`` and
``Fragment``/``Reassembler``.  Requests are encoded before the clock
starts (a pool of distinct seed-generated payloads per flow), so the
client's own cost per request is socket I/O plus decoding the reply —
it must stay below the server's or the run is client-bound.

Closed loop: 8 flows, each sends its next ping when its reply arrives
(echo/RPC callers wait for replies).  Open loop: pings on a fixed
schedule whatever the replies do, each timed from when it was *due*.

Traffic crosses the host's loopback interface, never a real link.
"""

from __future__ import annotations

import collections
import random
import re
import select
import socket
import struct
import subprocess
import sys
import time
from typing import Any, Deque, Dict, List, Optional, Tuple

import procs
import tables

_PREFIX = struct.Struct(">I")
_POOL = 32                  # distinct pre-encoded requests per flow
_IO_TIMEOUT = 5.0           # a reply this late is a failed request
_SLICE_S = 0.5              # closed-loop figures are medians of such slices
_BACKLOG_CAP = 5000         # open loop stops generating beyond this
_DRAIN_S = 2.0


class GatewayError(RuntimeError):
    """The server did not come up, refused a flow or sent garbage."""


def _wire():
    """The four public names the client uses, imported on first use so
    ``run.py`` itself needs no ``repro`` (``--compare``, the tests)."""
    if procs.SRC not in sys.path:
        sys.path.insert(0, procs.SRC)
    from repro.core.delimiting import Fragment, Reassembler
    from repro.gateway.wire import decode_shim_frame, frame_to_wire
    return Fragment, Reassembler, decode_shim_frame, frame_to_wire


def start_server(duration: float, cpus, profile_to: Optional[str] = None
                 ) -> Tuple[subprocess.Popen, int]:
    """Spawn ``python -m repro gateway serve`` on an ephemeral loopback
    port, pinned to ``cpus``; returns (process, tcp port parsed from
    its banner)."""
    argv = [sys.executable]
    if profile_to is not None:
        argv += ["-m", "cProfile", "-o", profile_to]
    argv += ["-m", "repro", "gateway", "serve", "--host", "127.0.0.1",
             "--tcp-port", "0", "--udp-port", "0",
             "--duration", f"{duration:.0f}"]
    proc = procs.spawn(argv, cpus, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL)
    deadline = time.monotonic() + 30.0
    banner = b""
    fd = proc.stdout.fileno()
    while b"\n" not in banner:
        left = deadline - time.monotonic()
        ready = left > 0 and select.select([fd], [], [], left)[0]
        chunk = ready and proc.stdout.read1(4096)
        if not chunk:
            procs.stop(proc)
            raise GatewayError(f"gateway server printed no banner "
                               f"(got {banner!r})")
        banner += chunk
    match = re.search(rb"tcp=(\d+)", banner)
    if match is None:
        procs.stop(proc)
        raise GatewayError(f"no tcp port in banner {banner!r}")
    return proc, int(match.group(1))


class Phase:
    """What one measured interval produced."""

    def __init__(self) -> None:
        self.sent = 0
        self.replies = 0            # byte-identical replies
        self.mismatched = 0
        self.latencies: List[float] = []
        self.wall_s = 0.0
        self.server_cpu_s = 0.0
        self.client_cpu_s = 0.0
        #: closed loop, per slice: (start, end on procs.now()'s
        #: clock, replies, server CPU seconds)
        self.slices: List[Tuple[float, float, int, float]] = []
        self.lateness: List[float] = []
        self.backlog_grew = False

    @property
    def failed(self) -> int:
        return self.sent - self.replies


class GatewayClient:
    """One TCP connection multiplexing GATEWAY_CLIENTS shim flows."""

    def __init__(self, port: int, server_pid: int, seed: int,
                 payload: int) -> None:
        (self._Fragment, reassembler, self._decode,
         self._encode) = _wire()
        self.server_pid = server_pid
        self.wire_errors = 0
        self.alloc_failures = 0
        self._buf = bytearray()
        # the client side's even flow ids (side 0 of the shim)
        self._flow_ids = [2 * (index + 1)
                          for index in range(tables.GATEWAY_CLIENTS)]
        self._reassemblers = {fid: reassembler() for fid in self._flow_ids}
        self._cursor = {fid: 0 for fid in self._flow_ids}
        self._seed, self._payload = seed, payload
        #: per flow: [(length-prefixed record, the payload it carries)]
        self._pool: Dict[int, List[Tuple[bytes, bytes]]] = {}
        self.sock = socket.create_connection(("127.0.0.1", port),
                                             timeout=_IO_TIMEOUT)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    # -- wire -----------------------------------------------------------
    def _record(self, frame: Tuple[str, int, Any, int]) -> bytes:
        wire = self._encode(frame)
        return _PREFIX.pack(len(wire)) + wire

    def _request(self, fid: int, message_id: int,
                 data: bytes) -> Tuple[bytes, bytes]:
        fragment = self._Fragment(message_id, 0, True, data)
        return (self._record(("data", fid, fragment, fragment.wire_size())),
                data)

    def _frames(self, data: bytes):
        """Decoded shim frames completed by ``data``."""
        buf = self._buf
        buf += data
        while len(buf) >= _PREFIX.size:
            (length,) = _PREFIX.unpack_from(buf, 0)
            end = _PREFIX.size + length
            if len(buf) < end:
                break
            raw = bytes(buf[_PREFIX.size:end])
            del buf[:end]
            try:
                yield self._decode(raw)
            except ValueError:          # FrameFormatError is a ValueError
                self.wire_errors += 1

    def encode_requests(self) -> None:
        """Build the request pool (outside every timed region)."""
        rng = random.Random(self._seed)
        self._pool = {
            fid: [self._request(fid, index, rng.randbytes(self._payload))
                  for index in range(_POOL)]
            for fid in self._flow_ids}

    def _next_request(self, fid: int) -> Tuple[bytes, bytes]:
        index = self._cursor[fid]
        self._cursor[fid] = (index + 1) % _POOL
        return self._pool[fid][index]

    # -- allocation -----------------------------------------------------
    def allocate(self, first: int, last: Optional[int] = None) -> None:
        """Allocate flows ``[first:last]`` to ``echo-server`` and wait for
        every ``alloc-ok``."""
        wanted = set(self._flow_ids[first:last])
        self.sock.sendall(b"".join(
            self._record(("alloc", fid, (f"bench-{fid}", "echo-server"), 16))
            for fid in sorted(wanted)))
        while wanted:
            try:
                data = self.sock.recv(1 << 16)
            except socket.timeout:
                data = b""
            if not data:
                self.alloc_failures += len(wanted)
                raise GatewayError(f"no alloc-ok for flows {sorted(wanted)}")
            for kind, fid, payload, _size in self._frames(data):
                if kind == "alloc-ok":
                    wanted.discard(fid)
                elif kind == "alloc-err":
                    self.alloc_failures += 1
                    raise GatewayError(f"flow {fid} refused: {payload!r}")

    def close(self) -> None:
        try:
            self.sock.sendall(b"".join(
                self._record(("dealloc", fid, None, 0))
                for fid in self._flow_ids))
        except OSError:
            pass
        self.sock.close()

    # -- closed loop ----------------------------------------------------
    def closed_loop(self, seconds: float) -> Phase:
        """Every flow keeps exactly one ping outstanding for ``seconds``."""
        phase = Phase()
        sock = self.sock
        sock.settimeout(_IO_TIMEOUT)
        expected: Dict[int, bytes] = {}
        sent_at: Dict[int, float] = {}
        latencies = phase.latencies
        server_cpu0 = slice_cpu = procs.cpu_seconds(self.server_pid)
        client_cpu0 = time.process_time()
        slice_start = procs.now()
        started = now = time.perf_counter()
        deadline = started + seconds
        slice_end, slice_replies = started + _SLICE_S, 0

        batch = []
        for fid in self._flow_ids:
            record, expected[fid] = self._next_request(fid)
            sent_at[fid] = now
            batch.append(record)
        phase.sent = len(batch)
        sock.sendall(b"".join(batch))

        while expected:
            try:
                data = sock.recv(1 << 18)
            except socket.timeout:
                break                       # the outstanding pings failed
            if not data:
                break
            now = time.perf_counter()
            batch = []
            for kind, fid, payload, _size in self._frames(data):
                if kind != "data" or fid not in expected:
                    continue
                message = self._reassemblers[fid].push(payload)
                if message is None:
                    continue
                if message == expected.pop(fid):
                    phase.replies += 1
                    latencies.append(now - sent_at[fid])
                else:
                    phase.mismatched += 1
                if now < deadline:
                    record, expected[fid] = self._next_request(fid)
                    sent_at[fid] = now
                    batch.append(record)
            if now >= slice_end:
                at, cpu = procs.now(), procs.cpu_seconds(self.server_pid)
                phase.slices.append((slice_start, at,
                                     phase.replies - slice_replies,
                                     cpu - slice_cpu))
                slice_start, slice_cpu = at, cpu
                slice_end, slice_replies = now + _SLICE_S, phase.replies
            if batch:
                phase.sent += len(batch)
                sock.sendall(b"".join(batch))

        phase.wall_s = min(now, deadline) - started
        phase.client_cpu_s = time.process_time() - client_cpu0
        phase.server_cpu_s = procs.cpu_seconds(self.server_pid) - server_cpu0
        return phase

    # -- open loop ------------------------------------------------------
    def open_loop(self, rate: float, seconds: float) -> Phase:
        """``rate`` pings per second for ``seconds`` on a fixed schedule,
        round-robin over the flows; latency counts from the due time.
        Replies still missing ``_DRAIN_S`` after the schedule ends have
        failed and are charged the time waited."""
        phase = Phase()
        sock = self.sock
        sock.setblocking(False)
        total = int(rate * seconds)
        flows = self._flow_ids
        pending: Dict[int, Deque[Tuple[float, bytes]]] = {
            fid: collections.deque() for fid in flows}
        unsent: Deque[Tuple[int, float]] = collections.deque()
        outbuf = bytearray()
        queued_bytes = sent_bytes = 0
        issued = 0
        backlog_marks: List[int] = []
        started = now = time.perf_counter()
        next_mark = started + seconds / 4.0
        schedule_end = started + seconds
        try:
            while True:
                now = time.perf_counter()
                while issued < total and started + issued / rate <= now:
                    if issued - phase.replies - phase.mismatched > _BACKLOG_CAP:
                        total = issued          # hopeless: stop generating
                        phase.backlog_grew = True
                        break
                    due = started + issued / rate
                    fid = flows[issued % len(flows)]
                    record, data = self._next_request(fid)
                    pending[fid].append((due, data))
                    outbuf += record
                    queued_bytes += len(record)
                    unsent.append((queued_bytes, due))
                    issued += 1
                if now >= next_mark and len(backlog_marks) < 4:
                    backlog_marks.append(issued - phase.replies)
                    next_mark += seconds / 4.0
                outstanding = issued - phase.replies - phase.mismatched
                if issued >= total and not outstanding:
                    break
                if now > schedule_end + _DRAIN_S:
                    break
                if outbuf:
                    try:
                        wrote = sock.send(outbuf)
                    except BlockingIOError:
                        wrote = 0
                    if wrote:
                        del outbuf[:wrote]
                        sent_bytes += wrote
                        now = time.perf_counter()
                        while unsent and unsent[0][0] <= sent_bytes:
                            phase.lateness.append(now - unsent.popleft()[1])
                wait = (max(0.0, started + issued / rate - now)
                        if issued < total else 0.05)
                readable, _, _ = select.select(
                    [sock], [sock] if outbuf else [], [], wait)
                if not readable:
                    continue
                try:
                    data = sock.recv(1 << 18)
                except BlockingIOError:
                    continue
                if not data:
                    break
                now = time.perf_counter()
                for kind, fid, payload, _size in self._frames(data):
                    if kind != "data" or not pending.get(fid):
                        continue
                    message = self._reassemblers[fid].push(payload)
                    if message is None:
                        continue
                    due, sent = pending[fid].popleft()
                    if message == sent:
                        phase.replies += 1
                        phase.latencies.append(now - due)
                    else:
                        phase.mismatched += 1
        finally:
            sock.settimeout(_IO_TIMEOUT)
        phase.sent = issued
        phase.wall_s = now - started
        for queue in pending.values():      # missing replies miss the limit
            phase.latencies.extend(now - due for due, _data in queue)
        if len(backlog_marks) >= 2:
            allowed = rate * tables.OPEN_LOOP_LIMIT_MS / 1e3
            phase.backlog_grew |= (backlog_marks[-1]
                                   > backlog_marks[0] + allowed)
        return phase


def measure_setup(duration: float, seed: int, payload: int, cpus,
                  profile_to: Optional[str] = None
                  ) -> Tuple[subprocess.Popen, GatewayClient,
                             Tuple[float, float]]:
    """Server spawn to the first ``alloc-ok``: (server, connected
    client with one flow allocated, (from, to) on ``procs.now()``)."""
    spawned = procs.now()
    server, port = start_server(duration, cpus, profile_to)
    try:
        client = GatewayClient(port, server.pid, seed, payload)
        try:
            client.allocate(0, 1)
        except BaseException:
            client.sock.close()
            raise
    except BaseException:
        procs.stop(server)
        raise
    return server, client, (spawned, procs.now())
