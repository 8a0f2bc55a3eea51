#!/usr/bin/env python3
"""Print E13's EXPERIMENTS.md tables from a BENCH_finger.json.

    python3 tools/finger_tables.py build/bench/BENCH_finger.json

bench_finger writes the JSON; this script turns it into the markdown tables
of EXPERIMENTS.md's E13 section, so the tables there are regenerated from a
run rather than typed in: FRSkipList's head-descent steps/op, and for each
structure that keeps a finger layer (FRSkipListRC, FRList under epoch) the
finger-on vs finger-off steps/op and ns/op and the finger hit rate.
"""

import json
import sys

THREADS = (1, 8, 16)
WORKLOADS = ("repeat-range", "zipf-0.99", "uniform")
FINGERED = (("arena", "rc", "FRSkipListRC"), ("list", "epoch", "FRList (epoch)"))


def table(title, head, rows):
    out = [f"{title}:", "", "| " + " | ".join(head) + " |",
           "|" + "---|" * len(head)]
    out += ["| " + " | ".join(r) + " |" for r in rows]
    return "\n".join(out) + "\n"


def main():
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    with open(sys.argv[1]) as f:
        configs = json.load(f)["configs"]
    rows = {(c["layout"], c["reclaimer"], c["finger"], c["workload"],
             c["threads"]): c for c in configs}
    cols = [f"{t} thread{'s' if t > 1 else ''}" for t in THREADS]

    def get(layout, reclaimer, finger, w, t):
        return rows.get((layout, reclaimer, finger, w, t))

    def steps(row):
        return f"{row['essential_steps_per_op']:.2f}" if row else "—"

    print(table("FRSkipList (head descent) steps/op",
                ["workload"] + cols,
                [[w] + [steps(get("tower", "epoch", False, w, t))
                        for t in THREADS]
                 for w in WORKLOADS]))
    for layout, reclaimer, name in FINGERED:
        def cells(fmt):
            out = []
            for w in WORKLOADS:
                pairs = [(get(layout, reclaimer, False, w, t),
                          get(layout, reclaimer, True, w, t)) for t in THREADS]
                out.append([w] + [fmt(off, on) if off and on else "—"
                                  for off, on in pairs])
            return out

        def reduction(off, on):
            so = off["essential_steps_per_op"]
            sn = on["essential_steps_per_op"]
            return f"{100 * (1 - sn / so):.1f}% ({so:.2f} → {sn:.2f})"

        print(table(f"{name} steps/op reduction, finger-on vs finger-off "
                    "(off → on)", ["workload"] + cols, cells(reduction)))
        print(table(f"{name} ns/op, finger-off → finger-on",
                    ["workload"] + cols,
                    cells(lambda off, on: f"{off['ns_per_op']:.0f} → "
                                          f"{on['ns_per_op']:.0f}")))
        print(table(f"{name} finger hit rate", ["workload"] + cols,
                    cells(lambda off, on: f"{on['finger_hit_rate']:.3f}")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
