"""CI smoke for the live-traffic gateway under open-loop load.

Starts an in-process :class:`~repro.gateway.server.GatewayServer` on
loopback and drives it with the open-loop client harness:

* 1,000 concurrent logical TCP clients (the acceptance floor — each is
  one allocated shim flow) multiplexed over 64 connections;
* 200 UDP clients against the same server, RPC workload.

Every flow must allocate, every ping must come back, no wire errors —
open-loop, so a slow server shows up as missing replies, not a slower
test.  The wall-clock cap lives in the CI step (``timeout``); this
script asserts the outcomes.

Usage::

    PYTHONPATH=src python benchmarks/smoke_gateway_load.py

Exit 0 when both sessions completed cleanly.
"""

from __future__ import annotations

import asyncio
import json
import sys

TCP_CLIENTS = 1_000
UDP_CLIENTS = 200


async def smoke() -> int:
    from repro.gateway.load import run_load
    from repro.gateway.server import GatewayServer

    server = GatewayServer()
    await server.start()
    try:
        rows = [
            await run_load("127.0.0.1", server.tcp_port, transport="tcp",
                           clients=TCP_CLIENTS, pings=3, timeout=60.0),
            await run_load("127.0.0.1", server.udp_port, transport="udp",
                           clients=UDP_CLIENTS, pings=3, workload="rpc",
                           timeout=60.0),
        ]
        # the clients' last frames and FINs are still in flight
        for _ in range(500):
            stats = server.stats
            if (not server.active_flows
                    and stats["closed"] >= stats["tcp_connections"]):
                break
            await asyncio.sleep(0.01)
        flows_left = server.active_flows
    finally:
        await server.stop()
    await asyncio.sleep(0.05)   # connection_lost callbacks of the stop

    stats = server.stats
    print(json.dumps({"rows": rows, "server_stats": stats}, indent=2))
    failures = []
    if flows_left or stats["flows_lost"]:
        failures.append(f"after every client deallocated, {flows_left} "
                        f"flow(s) still held and {stats['flows_lost']} "
                        f"released only by connection loss")
    if server.active_connections:
        failures.append(f"{server.active_connections} shim(s) still "
                        f"attached after the stop")
    opened = stats["tcp_connections"] + stats["udp_peers"]
    if stats["closed"] != opened:
        failures.append(f"{opened} connection(s) opened, "
                        f"{stats['closed']} closed")
    for row in rows:
        tag = f"{row['transport']}/{row['workload']}"
        if not row["complete"]:
            failures.append(
                f"{tag}: incomplete — {row['replies']}/{row['expected']} "
                f"replies, {row['alloc_failures']} allocation failure(s)")
        if row["wire_errors"]:
            failures.append(f"{tag}: {row['wire_errors']} wire error(s)")
    if stats["wire_errors"]:
        failures.append(f"server counted {stats['wire_errors']} wire error(s)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main() -> int:
    return asyncio.run(smoke())


if __name__ == "__main__":
    raise SystemExit(main())
