"""Compare two sets of benchmark records, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py SET_A/*.json [-- SET_B/*.json]

Each file holds one record or a list of records written by ``run.py
--json``.  For every workload and metric the table shows each set's
median and quartiles (``statistics.quantiles(values, n=4)``).

Two sets are compared seed by seed: for every seed both sets ran, the
ratio of set B's value to set A's (each the median of that set's runs at
that seed).  Pairing cancels the inputs' share of the variation, so what
is left is the host's and the program's.  The ``B/A`` column is the
median ratio and ``spread`` the ratios' interquartile distance over
that median.  Statuses:

* ``worse`` -- the median ratio is worse than 1 by more than
  :data:`GATE`, for every metric ``BENCHMARK.json`` gives a bound and
  for the rows of :data:`GATED`; or a deterministic model output (error
  rate, BER, covert b/s, output digest) differs for a seed both sets ran;
* ``unresolved`` -- the ratios' spread exceeds :data:`GATE`, so the sets
  cannot tell a change of that size from noise;
* ``changed`` -- a deterministic per-layer work counter differs for a
  seed both sets ran (expected when a change alters the work done);
* ``unpaired`` -- a gated row whose sets share no seed;
* ``better`` / ``same`` -- otherwise, for gated rows.

The ``host.calib_ms`` rows show the host-drift sentinel: the time of a
fixed work unit before and after every workload.  A large difference
between the sets means the host, not the program, changed.

With one set, the table shows that set's medians, and each bounded
metric's spread across the set's runs against its ``BENCHMARK.json``
bound (``ok`` or ``unresolved``).  The exit status is 1 when any row is
``worse`` and 2 on malformed input.
"""

from __future__ import annotations

import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")
#: Largest share by which a paired median ratio may be worse.
GATE = 0.10
#: Gated timings a record carries outside its metrics, by direction.
GATED = {"cached_rerun_ms": "lower"}
#: Model outputs that must repeat exactly for the same workload and seed.
MODEL_KEYS = ("error_rate", "ber", "covert_bps", "digest")
#: Per-layer metrics measured in host time; every other one is a count
#: (or a ratio of counts) that repeats exactly for the same seed.
TIMED = re.compile(r"(_ms|_ms_per_op|_us_per_event)$|^tracing\.")


def load_records(paths: Sequence[str]) -> List[Dict[str, Any]]:
    """Records from ``run.py --json`` files (one record or a list each)."""
    records: List[Dict[str, Any]] = []
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        records.extend(data if isinstance(data, list) else [data])
    for record in records:
        names = [record["workload"]] + list(record["metrics"])
        bad = [n for n in names if not NAME_RE.fullmatch(n)]
        if bad:
            raise ValueError(f"names break [A-Za-z0-9_.-]+: {bad}")
    return records


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a lone value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def _series(records: List[Dict[str, Any]]) -> Dict[Tuple[str, str], list]:
    """(workload, metric) -> [(seed, value)] over a set's records."""
    out: Dict[Tuple[str, str], list] = defaultdict(list)
    for record in records:
        workload, seed = record["workload"], record["seed"]
        for name, metric in record["metrics"].items():
            value = metric["value"] if isinstance(metric, dict) else metric
            out[(workload, name)].append((seed, value))
        for name, value in record.get("gated", {}).items():
            out[(workload, name)].append((seed, value))
        calib = record.get("host", {}).get("calib_ms")
        if calib and not record["trace"]:
            out[(workload, "host.calib_ms")].extend(
                (seed, v) for v in calib)
        for key in MODEL_KEYS:
            value = record.get("model", {}).get(key)
            if value is not None:
                out[(workload, f"model.{key}")].append((seed, value))
    return out


def _by_seed(values: list) -> Dict[Any, List[Any]]:
    seeds: Dict[Any, List[Any]] = defaultdict(list)
    for seed, value in values:
        seeds[seed].append(value)
    return seeds


def _same_per_seed(a: list, b: list, seeded: bool) -> Optional[bool]:
    """Whether every seed both sets ran gave equal values (None: no overlap).

    An unseeded workload's runs must all agree, whatever their seeds.
    """
    if not seeded:
        a = [(None, v) for _, v in a]
        b = [(None, v) for _, v in b]
    seeds_a, seeds_b = _by_seed(a), _by_seed(b)
    common = set(seeds_a) & set(seeds_b)
    if not common:
        return None
    return all(set(seeds_a[s]) == set(seeds_b[s]) and len(set(seeds_a[s])) == 1
               for s in common)


def paired_ratios(a: list, b: list) -> List[float]:
    """B/A per seed both sets ran, each side the median at that seed."""
    seeds_a, seeds_b = _by_seed(a), _by_seed(b)
    ratios = []
    for seed in sorted(set(seeds_a) & set(seeds_b), key=str):
        base = statistics.median(seeds_a[seed])
        if base:
            ratios.append(statistics.median(seeds_b[seed]) / base)
    return ratios


def classify(name: str, a: list, b: Optional[list],
             meta: Optional[Dict[str, Any]], seeded: bool = True) -> str:
    """The status of one (workload, metric) row."""
    if name.startswith("model."):
        if b is None:
            return "-"
        same = _same_per_seed(a, b, seeded)
        return "-" if same is None else ("same" if same else "worse")
    better = (meta or {}).get("better", GATED.get(name))
    if better is None or (meta is not None and "bound" not in meta):
        if b is None or TIMED.search(name):
            return "-"
        same = _same_per_seed(a, b, seeded)
        return "-" if same is None else ("same" if same else "changed")
    if b is None:
        bound = meta["bound"] if meta is not None else GATE
        return "unresolved" if spread([v for _, v in a]) > bound else "ok"
    ratios = paired_ratios(a, b)
    if not ratios:
        return "unpaired"
    ratio = statistics.median(ratios)
    worse_by = ratio - 1 if better == "lower" else 1 - ratio
    if worse_by > GATE:
        return "worse"
    if spread(ratios) > GATE:
        return "unresolved"
    return "better" if worse_by < -GATE else "same"


def _fmt(values: list) -> str:
    numbers = [v for _, v in values]
    if any(isinstance(v, str) for v in numbers):
        distinct = sorted(set(numbers))
        return distinct[0] if len(distinct) == 1 else f"{len(distinct)} distinct"
    q1, median, q3 = quartiles(numbers)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def compare(set_a: List[Dict[str, Any]], set_b: Optional[List[Dict[str, Any]]],
            spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per (workload, metric) present in set A (and B, if given)."""
    metas = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    seeded = {r["workload"]: r.get("seeded", True)
              for r in set_a + (set_b or [])}
    series_a = _series(set_a)
    series_b = _series(set_b) if set_b is not None else {}
    rows = []
    for (workload, name), a in sorted(series_a.items()):
        b = series_b.get((workload, name)) if set_b is not None else None
        if set_b is not None and b is None:
            continue
        numeric = not any(isinstance(v, str) for _, v in a)
        ratios = paired_ratios(a, b) if b is not None and numeric else []
        if b is None:
            row_spread = spread([v for _, v in a]) if numeric else None
        else:
            row_spread = spread(ratios) if ratios else None
        meta = metas.get(name)
        gate = None
        if b is None and meta is not None and "bound" in meta:
            gate = meta["bound"]
        elif name in GATED or (meta is not None and "bound" in meta):
            gate = GATE
        rows.append({
            "workload": workload, "metric": name,
            "a": _fmt(a), "b": _fmt(b) if b else "",
            "ratio": statistics.median(ratios) if ratios else None,
            "spread": row_spread, "gate": gate,
            "status": classify(name, a, b, meta, seeded[workload]),
        })
    return rows


def main(argv: Optional[List[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if args else 2
    if "--" in args:
        cut = args.index("--")
        paths_a, paths_b = args[:cut], args[cut + 1:]
    else:
        paths_a, paths_b = args, None
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(
            encoding="utf-8"))
        set_a = load_records(paths_a)
        set_b = load_records(paths_b) if paths_b is not None else None
    except (OSError, ValueError, KeyError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    rows = compare(set_a, set_b, spec)
    header = f"{'workload':16s} {'metric':32s} {'A median [q1, q3]':36s}"
    if set_b is not None:
        header += f" {'B median [q1, q3]':36s} {'B/A':>6s}"
    print(header + f" {'spread':>7s} {'gate':>5s}  status")
    for row in rows:
        line = f"{row['workload']:16s} {row['metric']:32s} {row['a']:36s}"
        if set_b is not None:
            ratio = "" if row["ratio"] is None else f"{row['ratio']:.3f}"
            line += f" {row['b']:36s} {ratio:>6s}"
        row_spread = "" if row["spread"] is None else f"{row['spread']:.3f}"
        gate = "" if row["gate"] is None else f"{row['gate']:.2f}"
        print(line + f" {row_spread:>7s} {gate:>5s}  {row['status']}")
    return 1 if any(row["status"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
