"""Record the output digests that the benchmark checks its jobs against.

    python3 perfbench/record_digests.py

Run from the root of a source checkout whose outputs are known good; it
rewrites ``perfbench/digests.json``.  For the ``fields`` workload it also
fixes each chart's pool of generator pairs, drawn uniformly from a
constant seed, from which the benchmark deals its jobs.
"""

from __future__ import annotations

import json
import os
import random
import sys

import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    os.environ["SUPERFLAG_MAX_SIZE"] = "4"
    run.OUT.mkdir(exist_ok=True)
    sf = run.import_superflag()
    table = {}
    for name, deck in (("structure", workloads.STRUCTURE_DECK),
                       ("witness-weights", workloads.WITNESS_DECK)):
        wl = workloads.CliWorkload(deck, [], run.OUT, {})
        wl.sf = sf
        table[name] = {}
        for job in sorted(set(deck)):
            rc, status, got = wl.output(wl.call(job))
            if rc != 0 or status != "pass":
                raise SystemExit(f"{job} does not pass; nothing recorded")
            table[name][workloads.cli_key(job)] = got
    fields = workloads.FieldsWorkload({})
    fields.sf = sf
    table["fields"] = {}
    for k1, l1, tail in workloads.FIELD_CHARTS:
        key = workloads.chart_key(k1, l1, tail)
        iso = sf.charts.isotropic_chart(k1, l1, tail=tail)
        bas = sf.osp.basis("odd", k1 - 1, l1)
        fields.charts[key] = (iso, bas)
        rng = random.Random(f"pool {key}")
        tags = bas.tags()
        pool = []
        for _ in range(workloads.POOL_SIZE):
            x, y = rng.choice(tags), rng.choice(tags)
            holds, renders, _ = fields.call((key, x, y))
            if not holds:
                raise SystemExit(f"{key} {x} {y}: identity fails")
            pool.append([x, y, workloads.digest(*renders)])
        table["fields"][key] = pool
    path = workloads.DIGESTS
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
