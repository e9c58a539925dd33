"""Stable content digests and human-readable digest diffs.

The golden-trace harness reduces every canonical scenario to a
*document* — a nested structure of plain JSON types (dicts, lists,
strings, ints, exact floats) — and pins its SHA-256.  This module owns
that reduction:

* :func:`canonical_json` serialises any supported value through
  :func:`repro.runner.canonicalize` with sorted keys, so logically
  equal documents always produce byte-identical JSON.  Floats are
  emitted as their shortest round-tripping decimal (Python's ``repr``),
  which means the digest is exact to the last bit — there is no epsilon
  anywhere in the golden check, by design: the simulator is fully
  deterministic, so *any* drift is a finding.
* :func:`content_digest` / :func:`section_digests` hash a document (or
  each of its top-level sections, which is what makes a mismatch
  diagnosable at a glance).
* :func:`summarize_array` reduces a large float array to shape, an
  exact content hash, and a few derived scalars — the committed golden
  stays small while still pinning every sample.
* :func:`diff_documents` renders the leaf-level differences between two
  documents as ``path: old -> new`` lines for the mismatch report.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

from repro.runner.cache import canonicalize


def canonical_json(obj: Any) -> str:
    """Byte-stable JSON text of ``obj`` (sorted keys, no whitespace)."""
    return json.dumps(canonicalize(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


def content_digest(obj: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``obj``."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def section_digests(document: Mapping[str, Any]) -> Dict[str, str]:
    """Per-section digests of a document's top-level entries.

    A golden mismatch first compares these, so the report can say
    *which* section drifted (rail trace vs transfer report vs metrics)
    before descending to leaf diffs.
    """
    return {name: content_digest(value) for name, value in document.items()}


def summarize_array(values: Sequence[float], name: str = "array") -> Dict[str, Any]:
    """A digest-ready reduction of a float array.

    The exact content is pinned by a SHA-256 over the IEEE-754 bytes
    (little-endian float64), while length and a handful of derived
    scalars keep a mismatch humanly readable without storing thousands
    of floats in the golden file.
    """
    import numpy as np

    arr = np.ascontiguousarray(np.asarray(values, dtype=float), dtype="<f8")
    out: Dict[str, Any] = {
        "name": name,
        "len": int(arr.size),
        "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
    }
    if arr.size:
        out.update(
            first=float(arr.reshape(-1)[0]),
            last=float(arr.reshape(-1)[-1]),
            min=float(arr.min()),
            max=float(arr.max()),
            mean=float(arr.mean()),
        )
    return out


def summarize_breakpoints(times: Sequence[float], values: Sequence[float],
                          name: str = "signal") -> Dict[str, Any]:
    """A digest-ready reduction of a breakpoint export.

    Rail traces are pinned through their breakpoints (the exact
    simulator state transitions) rather than a resampled grid: the
    breakpoint set is the ground truth every sampled view derives from.
    """
    return {
        "name": name,
        "times": summarize_array(times, name=f"{name}.times"),
        "values": summarize_array(values, name=f"{name}.values"),
    }


def flatten_leaves(document: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    """Yield ``(dotted.path, leaf)`` pairs of a canonical document.

    Dicts recurse by key, lists by index; everything else is a leaf.
    """
    if isinstance(document, dict):
        for key in sorted(document):
            path = f"{prefix}.{key}" if prefix else str(key)
            yield from flatten_leaves(document[key], path)
    elif isinstance(document, list):
        for i, item in enumerate(document):
            yield from flatten_leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, document


def diff_documents(old: Any, new: Any, max_lines: int = 40) -> List[str]:
    """Human-readable leaf differences between two canonical documents.

    Returns ``path: old -> new`` lines (plus ``only in`` lines for
    added/removed paths), truncated to ``max_lines`` with a summary
    line when more differ.  Both arguments are canonicalised first, so
    dataclasses and arrays can be passed directly.
    """
    old_leaves = dict(flatten_leaves(canonicalize(old)))
    new_leaves = dict(flatten_leaves(canonicalize(new)))
    lines: List[str] = []
    for path in sorted(old_leaves.keys() | new_leaves.keys()):
        if path not in new_leaves:
            lines.append(f"{path}: {old_leaves[path]!r} -> (removed)")
        elif path not in old_leaves:
            lines.append(f"{path}: (added) -> {new_leaves[path]!r}")
        elif old_leaves[path] != new_leaves[path]:
            lines.append(f"{path}: {old_leaves[path]!r} -> {new_leaves[path]!r}")
    if len(lines) > max_lines:
        hidden = len(lines) - max_lines
        lines = lines[:max_lines] + [f"... and {hidden} more differing leaves"]
    return lines
