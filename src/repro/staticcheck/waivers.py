"""Waiver-file parsing and default discovery.

The waiver file records *reviewed, deliberate* exceptions — one
``rule path-glob [substring]`` line each, ``#`` comments allowed.  The
CLI and the ``repro.verify`` lint stage both read the default file,
``tests/lint_waivers.txt``; any registered rule id may be waived.

A waiver that matches nothing fails the run (``Report.ok`` is false),
so the file can only shrink.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, List, Optional

from repro.errors import ConfigError
from repro.staticcheck.model import Waiver
from repro.staticcheck.registry import all_rules


def parse_waivers(text: str,
                  allowed_rules: Optional[Iterable[str]] = None) -> List[Waiver]:
    """Parse waiver-file text into :class:`Waiver` entries.

    Each non-comment line is ``rule path-glob [substring...]``; the
    substring (everything after the second field) must appear in the
    offending source line for the waiver to apply.  Rule ids are
    validated against ``allowed_rules`` (default: every registered rule).
    """
    valid = tuple(allowed_rules) if allowed_rules is not None \
        else tuple(all_rules())
    waivers: List[Waiver] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(None, 2)
        if len(parts) < 2:
            raise ConfigError(
                f"waiver line {lineno}: expected 'rule path-glob "
                f"[substring]', got {raw!r}")
        rule, path_glob = parts[0], parts[1]
        if rule not in valid:
            raise ConfigError(
                f"waiver line {lineno}: unknown rule {rule!r}; valid: "
                f"{', '.join(valid)}")
        substring = parts[2].strip() if len(parts) == 3 else None
        waivers.append(Waiver(rule=rule, path_glob=path_glob,
                              substring=substring))
    return waivers


def default_waivers_path() -> Optional[Path]:
    """The repo's waiver file (``tests/lint_waivers.txt``), if present."""
    import repro

    repo_root = Path(repro.__file__).resolve().parent.parent.parent
    candidate = repo_root / "tests" / "lint_waivers.txt"
    return candidate if candidate.is_file() else None


def load_waivers(path: Optional[Path] = None,
                 allowed_rules: Optional[Iterable[str]] = None) -> List[Waiver]:
    """Waivers from ``path`` (default: the repo waiver file, may be absent)."""
    if path is None:
        path = default_waivers_path()
        if path is None:
            return []
    return parse_waivers(Path(path).read_text(encoding="utf-8"),
                         allowed_rules=allowed_rules)
