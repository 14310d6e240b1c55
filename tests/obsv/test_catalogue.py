"""The metric catalogue in ``docs/architecture.md`` matches the code.

Every name ``src/`` passes to ``counter``, ``gauge``, ``histogram`` or
``timer`` must have a catalogue row of that kind, and every row must
name something ``src/`` emits.  A name built with an f-string
(``f"storage.{self.name}.installs"``) is matched against the rows that
carry a ``<placeholder>`` (``storage.<backend>.installs``).
"""

from __future__ import annotations

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
DOC = ROOT / "docs" / "architecture.md"

#: instrument method → the catalogue kind it records
KINDS = {
    "counter": "counter",
    "gauge": "gauge",
    "histogram": "histogram",
    "timer": "histogram",
}


def _names(argument):
    """``(literal name or None, f-string pattern or None)`` per name the
    argument can evaluate to; anything else is unreadable."""
    if isinstance(argument, ast.Constant) and isinstance(
        argument.value, str
    ):
        yield argument.value, None
    elif isinstance(argument, ast.JoinedStr):
        yield None, "".join(
            re.escape(part.value) if isinstance(part, ast.Constant) else ".+"
            for part in argument.values
        )
    elif isinstance(argument, ast.IfExp):
        yield from _names(argument.body)
        yield from _names(argument.orelse)
    else:
        raise AssertionError(
            f"metric name {ast.unparse(argument)!r} is neither a literal "
            "nor an f-string, so the catalogue cannot be checked"
        )


def emitted():
    """``(literals, patterns)``: name → kinds, f-string regex → kinds."""
    literals: dict[str, set] = {}
    patterns: dict[str, set] = {}
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "obsv" / "registry.py":
            continue  # the registry itself, not an emitter
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in KINDS
                and node.args
            ):
                continue
            kind = KINDS[node.func.attr]
            for literal, pattern in _names(node.args[0]):
                if literal is not None:
                    literals.setdefault(literal, set()).add(kind)
                else:
                    patterns.setdefault(pattern, set()).add(kind)
    return literals, patterns


def catalogue():
    """Catalogue name → kind cell.  ``.event`` abbreviates the previous
    name of its row with its last component replaced."""
    text = DOC.read_text(encoding="utf-8")
    lines = text[text.index("**Metric catalogue**"):].splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("|"))
    rows: dict[str, str] = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        names_cell, kind_cell = line.split("|")[1:3]
        previous = None
        for name in re.findall(r"`([^`]+)`", names_cell):
            if name.startswith("."):
                name = previous.rsplit(".", 1)[0] + name
            rows[name] = kind_cell.strip()
            previous = name
    return rows


def test_catalogue_parses():
    rows = catalogue()
    assert rows["wal.bytes_appended"] == "counter"
    assert rows["storage.<backend>.atoms_installed"] == "counter"
    assert len(rows) > 100


def test_every_literal_name_has_a_row_of_its_kind():
    literals, _ = emitted()
    rows = catalogue()
    missing = sorted(name for name in literals if name not in rows)
    assert missing == [], f"emitted but not catalogued: {missing}"
    wrong = sorted(
        name
        for name, kinds in literals.items()
        if any(kind not in rows[name] for kind in kinds)
    )
    assert wrong == [], f"catalogued under another kind: {wrong}"


def test_every_fstring_name_matches_a_placeholder_row():
    _, patterns = emitted()
    placeholders = {
        name: kind for name, kind in catalogue().items() if "<" in name
    }
    for pattern, kinds in sorted(patterns.items()):
        matches = [
            name
            for name in placeholders
            if re.fullmatch(pattern, name)
        ]
        assert matches, f"no <placeholder> row matches {pattern!r}"
        assert any(
            all(kind in placeholders[name] for kind in kinds)
            for name in matches
        ), f"{pattern!r} matches rows of another kind: {matches}"


def test_every_row_names_something_emitted():
    literals, patterns = emitted()
    stale = sorted(
        name
        for name in catalogue()
        if not (
            name in literals
            if "<" not in name
            else any(re.fullmatch(pattern, name) for pattern in patterns)
        )
    )
    assert stale == [], f"catalogued but never emitted: {stale}"
