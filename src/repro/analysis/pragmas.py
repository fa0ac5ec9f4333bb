"""Comment-level annotations understood by lintor.

Two comment forms carry analyzer state, collected with :mod:`tokenize`
so they survive anywhere the grammar allows a comment:

* ``# lintor: disable=R003 reason=payload is a finite fingerprint`` —
  suppress the named rule(s) on that line.  The reason is mandatory;
  a disable without one is itself a finding (rule R000).
* ``# guarded-by: _lock`` — trailing an attribute assignment: every
  other access to that attribute must happen inside ``with self._lock:``
  (or in ``__init__``).
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field

__all__ = ["FileComments", "collect_comments"]

_DISABLE_RE = re.compile(
    r"#\s*lintor:\s*disable=(?P<rules>[A-Za-z0-9,\s]*?)(?:\s+reason=(?P<reason>.*))?$"
)
_GUARDED_RE = re.compile(r"#\s*guarded-by:\s*(?P<guard>[A-Za-z_][A-Za-z0-9_\-]*)")
_RULE_CODE_RE = re.compile(r"^R\d{3}$")


@dataclass
class FileComments:
    """Per-file annotation state extracted from comments."""

    #: line -> set of rule codes disabled on that line
    disables: dict[int, set[str]] = field(default_factory=dict)
    #: (line, message) pairs for malformed pragmas (reported as R000)
    malformed: list[tuple[int, str]] = field(default_factory=list)
    #: line -> guard name for ``# guarded-by:`` declarations
    guards: dict[int, str] = field(default_factory=dict)


def collect_comments(source: str) -> FileComments:
    """Tokenize ``source`` and extract every lintor-relevant comment."""
    comments = FileComments()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        stream = [tok for tok in tokens if tok.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        # The AST parse will report the syntax problem; comments are moot.
        return comments
    for tok in stream:
        line = tok.start[0]
        text = tok.string
        match = _DISABLE_RE.search(text)
        if match:
            _record_disable(comments, line, match)
            continue
        if "lintor:" in text:
            comments.malformed.append(
                (line, f"unrecognized lintor pragma {text.strip()!r}")
            )
            continue
        match = _GUARDED_RE.search(text)
        if match:
            comments.guards[line] = match.group("guard")
    return comments


def _record_disable(comments: FileComments, line: int, match: re.Match) -> None:
    rules = [code.strip() for code in match.group("rules").split(",") if code.strip()]
    reason = (match.group("reason") or "").strip()
    if not rules:
        comments.malformed.append((line, "lintor disable pragma names no rule"))
        return
    bad = [code for code in rules if not _RULE_CODE_RE.match(code)]
    if bad:
        comments.malformed.append(
            (line, f"lintor disable pragma has malformed rule code(s) {', '.join(bad)}")
        )
        return
    if not reason:
        comments.malformed.append(
            (line, f"lintor disable pragma for {', '.join(rules)} must give a reason=")
        )
        return
    comments.disables.setdefault(line, set()).update(rules)
