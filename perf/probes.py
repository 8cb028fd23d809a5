"""Outside-timed probes of public functions: µs per operation.

``python3 perf/probes.py <seed>`` (``src/`` on ``PYTHONPATH``) builds a
seed-generated corpus, times batches of each public function with
``perf_counter`` and prints one JSON object ``{metric: µs}`` plus
``notes`` and, per metric, the window it was measured in (the harness
scales each figure by the CPU's speed over that window, see
``calibrate.py``).  Each figure is the median of ``_ROUNDS`` batch
timings.

A probe whose target no longer imports (ROADMAP plans to merge the
three encoders) reports 0 with a note and never fails the run.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

import procs

_ROUNDS = 5


def _us_per_op(batch: Callable[[], int]) -> float:
    """Median over rounds of (batch wall ÷ operations it reports)."""
    timings = []
    for _ in range(_ROUNDS):
        started = time.perf_counter()
        operations = batch()
        timings.append((time.perf_counter() - started) / operations * 1e6)
    return statistics.median(timings)


def _loop(function: Callable[[Any], Any], corpus: List[Any],
          times: int) -> Callable[[], int]:
    def batch() -> int:
        for _ in range(times):
            for item in corpus:
                function(item)
        return times * len(corpus)
    return batch


# ----------------------------------------------------------------------
def probe_codec(rng: random.Random) -> Dict[str, float]:
    from repro.core.codec import decode, encode
    from repro.core.names import Address
    from repro.core.pdu import DataPdu, ManagementPdu
    from repro.core.riep import M_WRITE, RiepMessage
    from repro.core.routing import Lsa
    addresses = [Address(rng.randrange(8), rng.randrange(64))
                 for _ in range(16)]
    corpus: List[Any] = []
    for index in range(24):
        src, dst = rng.sample(addresses, 2)
        corpus.append(DataPdu(src, dst, index, index + 1, index,
                              rng.randbytes(rng.choice((64, 400, 1400))),
                              1400))
        lsa = Lsa(src, index, {a: float(rng.randrange(1, 9))
                               for a in rng.sample(addresses, 6)})
        corpus.append(lsa)
        corpus.append(ManagementPdu(
            src, None, RiepMessage(M_WRITE, obj="/routing/lsa",
                                   value=lsa.to_value())))
    encoded = [encode(item) for item in corpus]
    return {"core.codec.encode_us": _us_per_op(_loop(encode, corpus, 40)),
            "core.codec.decode_us": _us_per_op(_loop(decode, encoded, 40))}


def _shim_frames(rng: random.Random, count: int, size: int
                 ) -> List[Tuple[str, int, Any, int]]:
    from repro.core.delimiting import Fragment
    frames = []
    for index in range(count):
        fragment = Fragment(index, 0, True, rng.randbytes(size))
        frames.append(("data", 2 * (index % 8 + 1), fragment,
                       fragment.wire_size()))
    return frames


def probe_framing(rng: random.Random) -> Dict[str, float]:
    from repro.core.codec import encode
    from repro.shard.framing import pack_frames, unpack_frames
    batch = [(0.001 * index, f"h{index % 7}--border{index % 3}",
              encode(frame), frame[3])
             for index, frame in enumerate(_shim_frames(rng, 64, 400))]
    packed = pack_frames(batch)
    return {"shard.framing.pack_us":
            _us_per_op(_loop(pack_frames, [batch], 40)),
            "shard.framing.unpack_us":
            _us_per_op(_loop(unpack_frames, [packed], 40))}


def probe_wire(rng: random.Random) -> Dict[str, float]:
    from repro.gateway.wire import decode_shim_frame, frame_to_wire
    frames = _shim_frames(rng, 64, 64)
    wired = [frame_to_wire(frame) for frame in frames]
    return {"gateway.wire.encode_us":
            _us_per_op(_loop(frame_to_wire, frames, 40)),
            "gateway.wire.decode_us":
            _us_per_op(_loop(decode_shim_frame, wired, 40))}


def probe_ring(rng: random.Random) -> Dict[str, float]:
    import multiprocessing
    from repro.shard.ring import SpscRing, ring_supported
    if not ring_supported():
        raise ImportError("shared-memory rings unsupported on this host")
    payload = rng.randbytes(48 * 1024)
    ring = SpscRing.create(multiprocessing.get_context("spawn"))
    try:
        def batch() -> int:
            for _ in range(200):
                ring.write(payload)
                ring.read()
            return 200
        return {"shard.ring.relay_us": _us_per_op(batch)}
    finally:
        ring.close()        # the creator's close unlinks the segment


def probe_engine(_rng: random.Random) -> Dict[str, float]:
    from repro.sim.engine import Engine

    def noop() -> None:
        pass

    def batch() -> int:
        engine = Engine()
        for index in range(100_000):
            engine.call_later(index * 1e-6, noop)
        engine.run()
        return 100_000
    return {"sim.engine.dispatch_us": _us_per_op(batch)}


def _link_send_us(seed: int, conditions: Any) -> float:
    from repro.sim.link import UniformLoss
    from repro.sim.network import Network
    network = Network(seed=seed)
    network.add_node("a")
    network.add_node("b")
    link = network.connect(
        "a", "b", capacity_bps=1e9, delay=0.0001, queue_limit=1 << 20,
        loss=UniformLoss(0.01) if conditions is not None else None,
        conditions=conditions)
    received = [0]

    def on_frame(_payload: Any, _size: int) -> None:
        received[0] += 1
    link.ends[1].attach(on_frame)
    payload = b"x" * 400

    def batch() -> int:
        for _ in range(20_000):
            link.ends[0].send(payload, 400)
        network.run()
        return 20_000
    return _us_per_op(batch)


def probe_link(rng: random.Random) -> Dict[str, float]:
    from repro.sim.link import LinkConditions
    seed = rng.randrange(1 << 16)
    conditioned = LinkConditions.from_dict({
        "jitter": {"model": "uniform", "amplitude": 0.0005},
        "corruption": {"probability": 0.005, "max_flips": 3},
        "reorder": {"probability": 0.02, "depth": 3, "max_hold": 0.01}})
    return {"sim.link.send_us": _link_send_us(seed, None),
            "sim.link.conditioned_send_us": _link_send_us(seed, conditioned)}


PROBE_GROUPS: Tuple[Tuple[Callable[[random.Random], Dict[str, float]],
                          Tuple[str, ...]], ...] = (
    (probe_codec, ("core.codec.encode_us", "core.codec.decode_us")),
    (probe_framing, ("shard.framing.pack_us", "shard.framing.unpack_us")),
    (probe_wire, ("gateway.wire.encode_us", "gateway.wire.decode_us")),
    (probe_ring, ("shard.ring.relay_us",)),
    (probe_engine, ("sim.engine.dispatch_us",)),
    (probe_link, ("sim.link.send_us", "sim.link.conditioned_send_us")),
)


def main(argv: List[str]) -> int:
    seed = int(argv[1])
    out: Dict[str, Any] = {"notes": [], "windows": {}}
    for probe, names in PROBE_GROUPS:
        started = procs.now()
        try:
            out.update(probe(random.Random(seed)))
        except (ImportError, AttributeError, TypeError) as exc:
            # the probed public function moved or changed shape
            out.update({name: 0.0 for name in names})
            out["notes"].append(f"{probe.__name__}: {type(exc).__name__}: "
                                f"{exc} - reported as 0")
        # when it ran, on the clock the harness's speed samplers share
        window = (started, procs.now())
        out["windows"].update({name: window for name in names})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
