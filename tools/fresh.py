"""Run one case of a timing tool several times, each in a fresh process,
and sum the runs up in one record. `tools/scale.py` and `tools/roots.py`
use it for their `--runs` option."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

# timed fields of a child's record, each summed up as a median and a minimum
TIMES = ("wall_s", "oracle_s")


def repeated(cmd: list, runs: int, same: tuple) -> dict:
    """Run `cmd`, which prints one JSON record, `runs` times, each in a
    fresh process. The record returned is the first run's, with every
    field of TIMES the median over the runs and `maxrss_mb` the largest;
    with more than one run it also has `runs` and each time's minimum as
    `<name>_min_s`. Exits with an error when a field named in `same`
    differs between runs."""
    records = [json.loads(subprocess.run(cmd, check=True, capture_output=True,
                                         text=True).stdout)
               for _ in range(runs)]
    first = records[0]
    for name in same:
        values = [r[name] for r in records]
        if len(set(values)) > 1:
            sys.exit(f"{first['case']}: {name} differs between runs: {values}")
    out = dict(first, maxrss_mb=max(r["maxrss_mb"] for r in records))
    for name in TIMES:
        values = [r[name] for r in records if r.get(name) is not None]
        if values:
            out[name] = round(statistics.median(values), 3)
            if runs > 1:
                out[f"{name[:-2]}_min_s"] = min(values)
    if runs > 1:
        out["runs"] = runs
    return out
