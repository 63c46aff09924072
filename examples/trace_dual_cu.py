#!/usr/bin/env python
"""Make the Figure 10 dual-CU overlap claim *visible* in a timeline.

Runs the same multi-agent workload on two FA3C configurations:

* **FA3C** — per CU pair, one CU dedicated to inference and one to
  training (Section 4.2.2), so the two task types overlap; and
* **FA3C-SingleCU** — one 2N-PE CU per pair serving both task types, so
  inference queues behind training.

Each run is captured with :mod:`repro.obs` and exported as a Chrome
trace-event file.  Open the JSON files in ``chrome://tracing`` or
https://ui.perfetto.dev: in the dual-CU trace the ``icu0`` and ``tcu0``
lanes are busy *simultaneously*, while the single-CU trace serialises
everything onto one ``cu0`` lane — the overlap is the throughput gap.

Run:  python examples/trace_dual_cu.py [out_dir]
"""

import sys

from repro import obs
from repro.fpga.platform import FA3CPlatform
from repro.nn.network import A3CNetwork
from repro.platforms import measure_ips

AGENTS = 8
ROUTINES = 12


def capture(platform, path):
    """One observed run -> (result, its span tracer, span count).  The
    tracer is the global one: read it before the next capture resets
    it."""
    obs.enable(reset=True)
    result = measure_ips(platform, AGENTS, routines_per_agent=ROUTINES)
    spans = obs.write_chrome_trace(path, obs.tracer(),
                                   meta={"platform": result.platform,
                                         "agents": AGENTS})
    obs.disable()
    return result, obs.tracer(), spans


def main(out_dir="."):
    topology = A3CNetwork(num_actions=6).topology()
    configs = [
        (FA3CPlatform.fa3c(topology, cu_pairs=1), "trace_dual_cu.json"),
        (FA3CPlatform.single_cu(topology, cu_pairs=1),
         "trace_single_cu.json"),
    ]
    results = []
    for platform, name in configs:
        path = f"{out_dir}/{name}"
        result, gantt, spans = capture(platform, path)
        results.append(result)
        print(f"{result.platform}: {result.ips:,.0f} IPS with "
              f"{AGENTS} agents -> {path} ({spans} spans)")
        # A window from the middle of the run: past pipeline fill.
        lo, hi = gantt.window(obs.SIM)
        mid = lo + (hi - lo) * 0.4
        print(gantt.gantt(width=68, start=mid,
                          end=mid + (hi - lo) * 0.2))
        for row in gantt.summary():
            print(f"   {row['lane']:<6} busy {row['utilisation']:6.1%} "
                  f"over {row['spans']} spans")
        print()
    dual, single = results
    print(f"dual-CU speedup over single-CU: "
          f"{dual.ips / single.ips:.2f}x — load both traces in "
          f"Perfetto to see why: the dual-CU icu/tcu lanes overlap.")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else ".")
