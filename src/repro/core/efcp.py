"""EFCP — the Error and Flow Control Protocol (§3.1, §4).

EFCP is the per-flow data-transfer machinery of an IPC process.  Following
the paper's separation of mechanism and policy (§8), the mechanisms here —
sequencing, retransmission, sliding-window flow control, congestion
response — are fixed, while :class:`EfcpPolicy` selects among behaviours:

* retransmission: ``"selective"`` repeat, ``"gobackn"``, or ``"none"``;
* flow control: credit window granted by the receiver;
* congestion: ``"none"`` (pure credit) or ``"aimd"`` window adaptation;
* ordering: in-order delivery or immediate delivery.

One :class:`EfcpConnection` is one end of one flow.  It is deliberately
unaware of addresses' meaning, of routing, and of what carries its PDUs —
it only emits PDUs through an output callback (the RMT) and consumes PDUs
handed to it.  The same class therefore serves every rank of DIF, from a
shim over one cable to an internet-wide facility: only policies differ,
which is the paper's central claim about the repeating structure.
"""

from __future__ import annotations

from collections import deque
from itertools import takewhile
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from ..sim.engine import Engine, Timer
from ..sim.link import CorruptedFrame
from .names import Address
from .pdu import ACK, ControlPdu, DataPdu
from .qos import QosCube

OutputFn = Callable[[Any], None]        # receives DataPdu / ControlPdu
DeliverFn = Callable[[Any, int], None]  # receives (payload, size)

RETX_SELECTIVE = "selective"
RETX_GOBACKN = "gobackn"
RETX_NONE = "none"

CONGESTION_NONE = "none"
CONGESTION_AIMD = "aimd"

#: A receiver holds an ACK at most this share of its DIF's timeout
#: (``rto_min``, ``flood_ack_timeout``): OSPF's delayed LSAck, RFC 2328.
ACK_DELAY_SHARE = 1 / 8


class EfcpPolicy:
    """Policy bundle configuring an EFCP connection.

    Attributes mirror the knobs the paper says must be tunable per DIF so
    each layer can "operate over different ranges of the performance space".

    ``sack_limit`` caps the selective acknowledgement an ACK carries: the
    highest ``sack_limit`` sequence numbers the receiver holds beyond its
    in-order edge, ascending.  ``0`` sends none (recovery then rests on
    the retransmission timer alone).

    A reliable receiver acks every second in-order PDU, and holds a lone
    one's ACK (for :data:`ACK_DELAY_SHARE` of ``rto_min``) only if the
    sender marked it ``followed`` (RFC 1122 §4.2.3.2, RFC 7053).
    """

    __slots__ = ("reliable", "in_order", "retx", "congestion", "initial_credit",
                 "send_buffer_limit", "rto_initial", "rto_min", "rto_max",
                 "sack_limit", "initial_cwnd")

    def __init__(self, reliable: bool = True, in_order: bool = True,
                 retx: Optional[str] = None, congestion: str = CONGESTION_NONE,
                 initial_credit: int = 64, send_buffer_limit: int = 1024,
                 rto_initial: float = 0.25, rto_min: float = 0.02,
                 rto_max: float = 4.0, sack_limit: int = 16,
                 initial_cwnd: int = 4) -> None:
        if retx is None:
            retx = RETX_SELECTIVE if reliable else RETX_NONE
        if retx not in (RETX_SELECTIVE, RETX_GOBACKN, RETX_NONE):
            raise ValueError(f"unknown retransmission policy {retx!r}")
        if congestion not in (CONGESTION_NONE, CONGESTION_AIMD):
            raise ValueError(f"unknown congestion policy {congestion!r}")
        if reliable and retx == RETX_NONE:
            raise ValueError("a reliable flow needs a retransmission policy")
        if initial_credit < 1:
            raise ValueError("credit window must be at least 1")
        if initial_cwnd < 1:
            raise ValueError("congestion window must be at least 1")
        if send_buffer_limit < 1:
            raise ValueError("send buffer must hold at least 1 SDU")
        if sack_limit < 0:
            raise ValueError("sack_limit must not be negative")
        self.reliable = reliable
        self.in_order = in_order
        self.retx = retx
        self.congestion = congestion
        self.initial_credit = initial_credit
        self.send_buffer_limit = send_buffer_limit
        # floats whatever the caller wrote (a scenario file may say
        # ``"rto_max": 4``): they flow into the connection's RTO through
        # min()/max(), and an RTO that is sometimes an int renders as
        # "4" in one run and "4.0" in the next
        self.rto_initial = float(rto_initial)
        self.rto_min = float(rto_min)
        self.rto_max = float(rto_max)
        self.sack_limit = sack_limit
        self.initial_cwnd = initial_cwnd

    @classmethod
    def for_cube(cls, cube: QosCube, **overrides: Any) -> "EfcpPolicy":
        """Derive a policy from a QoS cube (the flow allocator's mapping)."""
        kwargs: Dict[str, Any] = dict(reliable=cube.reliable,
                                      in_order=cube.in_order)
        kwargs.update(overrides)
        return cls(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "reliable" if self.reliable else "unreliable"
        return f"<EfcpPolicy {kind} retx={self.retx} cc={self.congestion}>"


class EfcpStats:
    """Per-connection counters exposed to experiments."""

    __slots__ = ("retransmissions", "duplicates", "sdus_delivered",
                 "timeouts", "send_rejected", "window_drops", "corrupted")

    def __init__(self) -> None:
        self.retransmissions = 0
        self.duplicates = 0
        self.sdus_delivered = 0
        self.timeouts = 0
        self.send_rejected = 0
        self.window_drops = 0
        self.corrupted = 0


class EfcpConnection:
    """One end of an EFCP connection (full duplex: sender + receiver halves).

    Parameters
    ----------
    engine:
        Simulation engine (timers, clock).
    local_addr / remote_addr:
        DIF-internal addresses of the two IPC processes.
    local_cep / remote_cep:
        Connection-endpoint ids allocated by the flow allocator.
    policy:
        The :class:`EfcpPolicy` in force.
    output:
        Callback receiving every outbound PDU (normally the RMT).
    deliver:
        Callback receiving each in-order SDU ``(payload, size)``.
    priority:
        RMT scheduling priority stamped on data PDUs (from the QoS cube).
    writable:
        Called once ACKs have drained the buffer to half after a refusal.
    """

    __slots__ = ("_engine", "local_addr", "remote_addr", "local_cep",
                 "remote_cep", "policy", "_output", "_deliver", "_priority",
                 "_writable", "_refused", "stats", "closed",
                 "_send_queue", "_outstanding", "_next_seq", "_send_base",
                 "_credit", "_retx_timer", "_srtt", "_rttvar",
                 "_rto", "_cwnd", "_ssthresh", "_sack_passes",
                 "_recovery_point", "_rcv_buffer", "_rcv_expected",
                 "_rcv_window", "_ack_timer", "_ack_held")

    def __init__(self, engine: Engine, local_addr: Address, remote_addr: Address,
                 local_cep: int, remote_cep: int, policy: EfcpPolicy,
                 output: OutputFn, deliver: DeliverFn, priority: int = 8,
                 writable: Optional[Callable[[], None]] = None) -> None:
        self._engine = engine
        self.local_addr = local_addr
        self.remote_addr = remote_addr
        self.local_cep = local_cep
        self.remote_cep = remote_cep
        self.policy = policy
        self._output = output
        self._deliver = deliver
        self._priority = priority
        self._writable = writable
        self._refused = False   # a refusal awaits its ``writable`` call
        self.stats = EfcpStats()
        self.closed = False

        # --- sender state ---
        self._send_queue: Deque[Tuple[int, Any, int]] = deque()  # awaiting window
        self._outstanding: Dict[int, Tuple[Any, int, float, bool]] = {}
        # seq -> (payload, size, time_sent, retransmitted), in ascending seq
        # order: a resend overwrites in place, an acked seq is never resent
        self._next_seq = 0                     # next new sequence number
        self._send_base = 0                    # oldest unacknowledged
        self._credit = policy.initial_credit   # highest seq allowed (excl.)
        self._retx_timer = Timer(engine, self._on_retx_timeout, label="efcp.retx")
        # RTO estimation (RFC 6298 style)
        self._srtt: Optional[float] = None     # no sample yet
        self._rttvar = 0.0
        self._rto = policy.rto_initial
        # congestion window (PDUs); effectively infinite when disabled
        self._cwnd = float(policy.initial_cwnd)
        self._ssthresh = float(policy.initial_credit)
        # fast retransmit: count how often each outstanding seq was "passed"
        # by selective acks of later PDUs (the SACK analogue of dupacks)
        self._sack_passes: Dict[int, int] = {}
        # fast recovery: sequence number that must be passed before another
        # multiplicative decrease may happen (one decrease per window)
        self._recovery_point = -1

        # --- receiver state ---
        self._rcv_buffer: Dict[int, Tuple[Any, int]] = {}
        self._rcv_expected = 0                 # next in-order seq expected
        self._rcv_window = policy.initial_credit
        self._ack_timer = Timer(engine, self._send_held_ack, label="efcp.ack")
        self._ack_held = False                 # one in-order PDU unacked

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def rto(self) -> float:
        """Current retransmission timeout in seconds."""
        return self._rto

    @property
    def srtt(self) -> Optional[float]:
        """Smoothed RTT estimate (None before the first sample)."""
        return self._srtt

    @property
    def cwnd(self) -> float:
        """Congestion window in PDUs (meaningful with AIMD policy)."""
        return self._cwnd

    def outstanding_count(self) -> int:
        """PDUs sent but not yet acknowledged."""
        return len(self._outstanding)

    def queued_count(self) -> int:
        """SDUs accepted but not yet transmitted (window-blocked)."""
        return len(self._send_queue)

    def all_acknowledged(self) -> bool:
        """True when every submitted SDU has been acknowledged."""
        return not self._outstanding and not self._send_queue

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, payload: Any, size: int) -> bool:
        """Submit one SDU; False when the send buffer is full (backpressure)."""
        if self.closed:
            return False
        buffered = len(self._send_queue) + len(self._outstanding)
        if buffered >= self.policy.send_buffer_limit:
            self.stats.send_rejected += 1
            self._refused = True
            return False
        seq = self._next_seq
        self._next_seq += 1
        if not self.policy.reliable:
            # no acks will arrive to slide a window, so none applies: the
            # SDU goes out at once and the send queue stays empty
            self._transmit(seq, payload, size, retransmit=False)
            return True
        self._send_queue.append((seq, payload, size))
        self._pump()
        return True

    def _effective_window_edge(self) -> int:
        """Highest sequence number (exclusive) the sender may transmit."""
        edge = self._credit
        if self.policy.congestion == CONGESTION_AIMD:
            edge = min(edge, self._send_base + int(self._cwnd))
        return edge

    def _pump(self) -> None:
        """Transmit queued SDUs that now fit in the window."""
        edge = self._effective_window_edge()
        while self._send_queue and self._send_queue[0][0] < edge:
            seq, payload, size = self._send_queue.popleft()
            self._transmit(seq, payload, size, retransmit=False)

    def _transmit(self, seq: int, payload: Any, size: int, retransmit: bool) -> None:
        pdu = DataPdu(self.local_addr, self.remote_addr, self.local_cep,
                      self.remote_cep, seq, payload, size,
                      drf=(seq == 0 and not retransmit), priority=self._priority,
                      followed=not retransmit and bool(self._send_queue))
        if self.policy.reliable:
            previous = self._outstanding.get(seq)
            already_retx = previous[3] if previous else False
            self._outstanding[seq] = (payload, size, self._engine.now,
                                      retransmit or already_retx)
            if not self._retx_timer.running:
                self._retx_timer.start(self._rto)
        if retransmit:
            self.stats.retransmissions += 1
        self._output(pdu)

    # ------------------------------------------------------------------
    # Retransmission
    # ------------------------------------------------------------------
    def _on_retx_timeout(self) -> None:
        if not self._outstanding or self.closed:
            return
        self.stats.timeouts += 1
        # congestion response: multiplicative decrease on timeout
        if self.policy.congestion == CONGESTION_AIMD:
            self._ssthresh = max(2.0, self._cwnd / 2.0)
            self._cwnd = 1.0
            self._recovery_point = self._next_seq
        # exponential backoff
        old_rto = self._rto
        self._rto = min(self.policy.rto_max, self._rto * 2.0)
        if self.policy.retx == RETX_GOBACKN:
            for seq, (payload, size, _t, _r) in self._outstanding.items():
                self._transmit(seq, payload, size, retransmit=True)
        else:
            # selective repeat: resend every PDU that has aged past the RTO
            # (each was individually timestamped), so one timeout event
            # recovers all concurrent losses instead of serializing them.
            # Under AIMD the burst is capped at the (collapsed) congestion
            # window — retransmitting a full flight into a congested queue
            # would defeat the multiplicative decrease.
            now = self._engine.now
            budget = None
            if self.policy.congestion == CONGESTION_AIMD:
                budget = max(1, int(self._cwnd))
            for seq, (payload, size, sent_at, _r) in self._outstanding.items():
                if budget is not None and budget <= 0:
                    break
                if now - sent_at >= old_rto - 1e-12:
                    self._transmit(seq, payload, size, retransmit=True)
                    if budget is not None:
                        budget -= 1
        self._retx_timer.start(self._rto)

    # ------------------------------------------------------------------
    # Control (ACK/credit) handling — sender side
    # ------------------------------------------------------------------
    def handle_control(self, pdu: ControlPdu) -> None:
        """Process an inbound DTCP PDU addressed to this connection."""
        if self.closed:
            return
        if isinstance(pdu, CorruptedFrame):
            self.stats.corrupted += 1
            return
        if pdu.kind != ACK:
            return
        now = self._engine.now
        newly_acked = list(takewhile(pdu.ack_seq.__gt__, self._outstanding))
        for seq in pdu.sack:
            if seq in self._outstanding:
                newly_acked.append(seq)
        made_progress = False
        for seq in newly_acked:
            payload_size_time_retx = self._outstanding.pop(seq, None)
            self._sack_passes.pop(seq, None)
            if payload_size_time_retx is None:
                continue
            made_progress = True
            _payload, _size, sent_at, retransmitted = payload_size_time_retx
            if not retransmitted:  # Karn's rule: no samples from retransmits
                self._rtt_sample(now - sent_at)
            if self.policy.congestion == CONGESTION_AIMD:
                if self._cwnd < self._ssthresh:
                    self._cwnd += 1.0          # slow start
                else:
                    self._cwnd += 1.0 / self._cwnd  # congestion avoidance
        if pdu.ack_seq > self._send_base:
            self._send_base = pdu.ack_seq
            made_progress = True
        self._credit = max(self._credit, pdu.credit)
        if made_progress:
            if self._outstanding:
                self._retx_timer.start(self._rto)
            else:
                self._retx_timer.cancel()
        self._fast_retransmit(pdu)
        self._pump()
        if self._refused and (len(self._send_queue) + len(self._outstanding)
                              <= self.policy.send_buffer_limit // 2):
            self._refused = False
            if self._writable is not None:
                self._writable()

    def _fast_retransmit(self, pdu: ControlPdu) -> None:
        """SACK-driven loss recovery: a PDU passed over by three selective
        acks of later sequence numbers is presumed lost and resent without
        waiting for the retransmission timer.  An ACK passes a PDU only
        once the PDU's latest copy is one smoothed RTT old (any ACK
        before the first RTT sample): ACKs still in flight when it was
        resent cannot report on the resend, and counting them would
        fire it again every third ACK."""
        if self.policy.retx != RETX_SELECTIVE or not pdu.sack:
            return
        highest_sacked = max(pdu.sack)
        now = self._engine.now
        srtt = self._srtt
        retransmitted = False
        for seq, (payload, size, sent_at, _r) in self._outstanding.items():
            if seq >= highest_sacked:
                break
            if srtt is not None and now - sent_at < srtt:
                # its latest copy is younger than a round trip: this ACK
                # cannot have seen it, so it says nothing about its loss
                continue
            passes = self._sack_passes.get(seq, 0) + 1
            if passes >= 3:
                self._sack_passes[seq] = 0
                self._transmit(seq, payload, size, retransmit=True)
                retransmitted = True
            else:
                self._sack_passes[seq] = passes
        if retransmitted and self.policy.congestion == CONGESTION_AIMD \
                and self._send_base >= self._recovery_point:
            # fast recovery: one multiplicative decrease per window of loss
            self._ssthresh = max(2.0, self._cwnd / 2.0)
            self._cwnd = self._ssthresh
            self._recovery_point = self._next_seq

    def _rtt_sample(self, rtt: float) -> None:
        if self._srtt is None:
            self._srtt = rtt
            self._rttvar = rtt / 2.0
        else:
            self._rttvar = 0.75 * self._rttvar + 0.25 * abs(self._srtt - rtt)
            self._srtt = 0.875 * self._srtt + 0.125 * rtt
        self._rto = min(self.policy.rto_max,
                        max(self.policy.rto_min, self._srtt + 4 * self._rttvar))

    # ------------------------------------------------------------------
    # Receiving — receiver side
    # ------------------------------------------------------------------
    def handle_data(self, pdu: DataPdu) -> None:
        """Process an inbound DTP PDU addressed to this connection."""
        if self.closed:
            return
        if isinstance(pdu, CorruptedFrame):
            # delimiting/SDU-protection failure: the PDU is counted and
            # discarded, never delivered — retransmission recovers it
            self.stats.corrupted += 1
            return
        seq = pdu.seq
        if not self.policy.reliable:
            self._receive_unreliable(pdu)
            return
        if seq >= self._rcv_expected + self._rcv_window:
            # beyond the credit this receiver ever granted: buffering it
            # would let a peer (or bug) grow _rcv_buffer without bound
            self.stats.window_drops += 1
            return
        if seq < self._rcv_expected or seq in self._rcv_buffer:
            self.stats.duplicates += 1
            self._send_ack_now()
            return
        # in order with no gap behind it: neither a loss nor a repair
        in_order = seq == self._rcv_expected and not self._rcv_buffer
        self._rcv_buffer[seq] = (pdu.payload, pdu.payload_size)
        while self._rcv_expected in self._rcv_buffer:
            payload, size = self._rcv_buffer.pop(self._rcv_expected)
            self._rcv_expected += 1
            self._deliver_sdu(payload, size)
        if in_order and pdu.followed and not self._ack_held:
            self._ack_held = True
            self._ack_timer.start(self.policy.rto_min * ACK_DELAY_SHARE)
        else:
            self._send_ack_now()

    def _receive_unreliable(self, pdu: DataPdu) -> None:
        if self.policy.in_order:
            if pdu.seq < self._rcv_expected:
                self.stats.duplicates += 1
                return  # late: drop to preserve ordering
            self._rcv_expected = pdu.seq + 1
        self._deliver_sdu(pdu.payload, pdu.payload_size)

    def _deliver_sdu(self, payload: Any, size: int) -> None:
        self.stats.sdus_delivered += 1
        self._deliver(payload, size)

    def _send_held_ack(self) -> None:
        # an ACK sent since the hold covered the held PDU
        if self._ack_held:
            self._send_ack_now()

    def _send_ack_now(self) -> None:
        if self.closed:
            return
        self._ack_held = False
        limit = self.policy.sack_limit
        # the newest buffered PDUs: the one that triggered this ACK is
        # among them, and the oldest were named by earlier ACKs
        # (RFC 2018 §4); ``[-0:]`` would name them all
        sack = tuple(sorted(self._rcv_buffer)[-limit:]) if limit else ()
        credit = self._rcv_expected + self._rcv_window
        pdu = ControlPdu(self.local_addr, self.remote_addr, ACK,
                         self.local_cep, self.remote_cep,
                         ack_seq=self._rcv_expected, credit=credit, sack=sack)
        self._output(pdu)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Tear the connection down locally; pending state is discarded."""
        if self.closed:
            return
        self.closed = True
        self._retx_timer.cancel()
        self._ack_timer.cancel()
        self._send_queue.clear()
        self._outstanding.clear()
        self._rcv_buffer.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<EfcpConnection {self.local_addr}:{self.local_cep}->"
                f"{self.remote_addr}:{self.remote_cep} "
                f"next={self._next_seq} base={self._send_base}>")
