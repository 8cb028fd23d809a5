#!/usr/bin/env python3
"""Figure 3 live: repeat the IPC layer over a lossy wireless scope.

Builds ``sender —(60 ms WAN)— border —(lossy radio)— mobile`` twice:

* once with a single internet-wide DIF (end-to-end recovery only),
* once with an extra 2-member wireless DIF whose EFCP policies are tuned
  to the radio (5 ms retransmission floor),

then transfers the same file through both at increasing loss, at three
seeds each, and prints the goodput table — §6.2's "proxies are a
kludge; scoped layers are the architecture" argument, measured.  The
gain lines compare each configuration's mean over the seeds: one seed
says little about a lossy radio.

Run:  python examples/recursive_wireless.py
"""

from repro.experiments.common import format_table
from repro.experiments.e3_scoped_recovery import run_transfer


SEEDS = (1, 2, 3)


def main() -> None:
    rows = []
    for loss in (0.0, 0.1, 0.2, 0.3):
        for config in ("e2e", "scoped"):
            for seed in SEEDS:
                row = run_transfer(config, loss, total_bytes=100_000,
                                   seed=seed)
                rows.append(row)
                print(f"  {config:>6} at loss={loss:.0%} seed {seed}: "
                      f"{row['goodput_mbps']:.2f} Mb/s "
                      f"(top-layer retransmissions: "
                      f"{row['top_layer_retx']})")
    print()
    print(format_table(rows, title="Fig 3 reproduction: scoped recovery"))
    print()
    mean = {}
    for row in rows:
        key = row["config"], row["loss"]
        mean[key] = mean.get(key, 0.0) + row["goodput_mbps"] / len(SEEDS)
    for loss in (0.1, 0.2, 0.3):
        gain = mean["scoped", loss] / mean["e2e", loss]
        print(f"at {loss:.0%} wireless loss the scoped stack delivers "
              f"{gain:.2f}x the goodput (mean of seeds "
              f"{SEEDS[0]}-{SEEDS[-1]})")


if __name__ == "__main__":
    main()
