"""The ``repro gateway`` subcommand: serve, load, conformance.

Usage::

    python -m repro gateway serve [--host H] [--tcp-port P] [--udp-port P]
                                  [--duration S]
    python -m repro gateway load  [--host H] --port P [--transport tcp|udp]
                                  [--clients N] [--conns N] [--pings N]
                                  [--payload B] [--interval S]
                                  [--workload echo|rpc] [--timeout S]
    python -m repro gateway conformance [--pings N] [--rpc-calls N]

``serve`` hosts the apps/ suite on real sockets; ``load`` drives an
open-loop client fleet against one; ``conformance`` runs the
socket-vs-simulated transcript check and prints both fingerprints.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Callable, Dict, List, Optional, Tuple


def _parse_flags(args: List[str], spec: Dict[str, Callable[[str], object]]
                 ) -> Tuple[Optional[Dict[str, object]], Optional[str]]:
    """Parse ``--flag value`` pairs per ``spec`` (flag → converter).

    Returns (values, None) on success or (None, error message).
    """
    values: Dict[str, object] = {}
    index = 0
    while index < len(args):
        flag = args[index]
        if flag not in spec:
            return None, f"unknown flag {flag!r}"
        index += 1
        if index >= len(args):
            return None, f"{flag} requires a value"
        try:
            values[flag.lstrip("-").replace("-", "_")] = spec[flag](args[index])
        except ValueError as exc:
            return None, f"{flag}: {exc}"
        index += 1
    return values, None


def _serve_main(args: List[str]) -> int:
    from .server import GatewayServer
    values, error = _parse_flags(args, {
        "--host": str, "--tcp-port": int, "--udp-port": int,
        "--duration": float})
    if values is None:
        print(f"gateway serve: {error}", file=sys.stderr)
        return 2
    duration = values.pop("duration", None)
    server = GatewayServer(**values)   # type: ignore[arg-type]

    async def _run() -> None:
        await server.start()
        print(f"gateway serving {', '.join(a for a in ('echo', 'rpc', 'pubsub'))} "
              f"on {server.host} tcp={server.tcp_port} udp={server.udp_port}",
              flush=True)
        try:
            if duration is None:
                while True:
                    await asyncio.sleep(3600)
            else:
                await asyncio.sleep(float(duration))
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    # stdout carries the banner and nothing else (callers parse it)
    print(json.dumps(server.stats, sort_keys=True), file=sys.stderr,
          flush=True)
    return 0


def _load_main(args: List[str]) -> int:
    from .load import run_load
    values, error = _parse_flags(args, {
        "--host": str, "--port": int, "--transport": str, "--clients": int,
        "--conns": int, "--pings": int, "--payload": int,
        "--interval": float, "--workload": str, "--timeout": float})
    if values is None:
        print(f"gateway load: {error}", file=sys.stderr)
        return 2
    if "port" not in values:
        print("gateway load: --port is required", file=sys.stderr)
        return 2
    host = values.pop("host", "127.0.0.1")
    port = values.pop("port")
    try:
        row = asyncio.run(run_load(str(host), int(port), **values))  # type: ignore[arg-type]
    except (ValueError, OSError) as exc:
        print(f"gateway load: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(row, indent=2, sort_keys=True))
    return 0 if row["complete"] else 1


def _conformance_main(args: List[str]) -> int:
    from .conformance import (SessionSpec, run_simulated_session,
                              run_socket_session, strip_private,
                              transcript_fingerprint)
    values, error = _parse_flags(args, {
        "--pings": int, "--rpc-calls": int, "--payload": int})
    if values is None:
        print(f"gateway conformance: {error}", file=sys.stderr)
        return 2
    spec = SessionSpec(**values)   # type: ignore[arg-type]
    simulated = strip_private(run_simulated_session(spec))
    socketed = strip_private(run_socket_session(spec))
    sim_fp = transcript_fingerprint(simulated)
    sock_fp = transcript_fingerprint(socketed)
    frames = sum(len(v) for v in simulated.values())
    print(f"simulated: {sim_fp}  ({frames} frames)")
    print(f"socket:    {sock_fp}")
    if sim_fp != sock_fp:
        print("CONFORMANCE VIOLATION: transcripts differ", file=sys.stderr)
        return 1
    print("transcripts identical")
    return 0


def gateway_main(argv: List[str]) -> int:
    """The ``gateway`` subcommand dispatcher."""
    if not argv or argv[0] in ("help", "--help", "-h"):
        print(__doc__.strip())
        return 0 if argv else 2
    command = argv[0]
    if command == "serve":
        return _serve_main(argv[1:])
    if command == "load":
        return _load_main(argv[1:])
    if command == "conformance":
        return _conformance_main(argv[1:])
    print(f"unknown gateway subcommand {command!r} (serve|load|conformance)",
          file=sys.stderr)
    return 2
