#!/usr/bin/env python
"""Documentation gate: links, doctests and CLI examples must not rot.

Three checks over ``README.md`` and ``docs/*.md`` (run from the repo root
with ``PYTHONPATH=src python tools/check_docs.py``):

1. **Intra-repo links** — every relative markdown link target must exist.
2. **Doctest examples** — every fenced code block containing ``>>>`` lines
   is executed with :mod:`doctest`; examples in the docs are promises, so
   they run against the real package.
3. **Generated blocks** — blocks wrapped in
   ``<!-- cli:<subcommand> --help -->`` … ``<!-- /cli -->`` markers must
   equal the live ``--help`` output of that subcommand (as a fenced
   block), and blocks wrapped in ``<!-- surface -->`` …
   ``<!-- /surface -->`` the endpoint table generated from
   ``repro.platform.surface``.  ``--fix`` regenerates them in place, which
   is how the blocks were produced — the docs can never drift from the
   parser or the service surface again.

Exit status is non-zero when any check fails (the CI docs job gates on it).
"""

from __future__ import annotations

import argparse
import doctest
import os
import re
import sys
from pathlib import Path

# argparse wraps help text to the terminal width; pin it so the generated
# blocks are identical on every machine (and in CI).
os.environ["COLUMNS"] = "88"

REPO_ROOT = Path(__file__).resolve().parents[1]

_LINK_PATTERN = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_PATTERN = re.compile(r"^```")
_CLI_OPEN = re.compile(r"<!--\s*cli:([a-z-]+)\s+--help\s*-->|<!--\s*(surface)\s*-->")


def doc_files() -> list[Path]:
    """README plus every markdown page under docs/."""
    files = [REPO_ROOT / "README.md"]
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [path for path in files if path.exists()]


# ----------------------------------------------------------------- link check
def check_links(path: Path) -> list[str]:
    """Relative link targets that do not exist, as error strings."""
    errors = []
    for line_number, line in enumerate(path.read_text().splitlines(), start=1):
        for target in _LINK_PATTERN.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                errors.append(f"{path.relative_to(REPO_ROOT)}:{line_number}: broken link {target!r}")
    return errors


# ------------------------------------------------------------------- doctests
def fenced_blocks(text: str) -> list[tuple[int, str]]:
    """Every fenced code block as ``(starting line number, content)``."""
    blocks = []
    lines = text.splitlines()
    index = 0
    while index < len(lines):
        if _FENCE_PATTERN.match(lines[index]):
            start = index + 1
            body = []
            index += 1
            while index < len(lines) and not _FENCE_PATTERN.match(lines[index]):
                body.append(lines[index])
                index += 1
            blocks.append((start + 1, "\n".join(body)))
        index += 1
    return blocks


def check_doctests(path: Path) -> list[str]:
    """Run every ``>>>`` example in the file; return failures as strings."""
    errors = []
    runner = doctest.DocTestRunner(verbose=False, optionflags=doctest.ELLIPSIS)
    parser = doctest.DocTestParser()
    for line_number, body in fenced_blocks(path.read_text()):
        if ">>>" not in body:
            continue
        name = f"{path.relative_to(REPO_ROOT)}:{line_number}"
        try:
            test = parser.get_doctest(body, {"__name__": "__docs__"}, name, str(path), line_number)
        except ValueError as error:
            errors.append(f"{name}: unparsable doctest block ({error})")
            continue
        result = runner.run(test, clear_globs=True)
        if result.failed:
            errors.append(f"{name}: {result.failed} of {result.attempted} example(s) failed")
    return errors


# ------------------------------------------------------------ generated blocks
def cli_help(subcommand: str) -> str:
    """The live ``--help`` text of one ``lightor`` subcommand."""
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._subparsers._group_actions:  # noqa: SLF001 - argparse has no public accessor
        if subcommand in action.choices:
            return action.choices[subcommand].format_help().rstrip()
    raise KeyError(f"no such subcommand: {subcommand!r}")


def endpoint_table() -> list[str]:
    """The endpoint table of ``docs/serving.md``, one row per surface verb."""
    from repro.platform.surface import VERBS

    lines = [
        "| Method & path | Call | Route label | Body → response |",
        "| --- | --- | --- | --- |",
    ]
    for verb in VERBS:
        path, sent = verb.path, "`{}`" if verb.method == "POST" else ""
        fields = [f"{arg.name}: {arg.codec.shape}" for arg in verb.args if arg.at == "field"]
        for arg in verb.args:
            if arg.at == "query":
                path += f"?{arg.name}={arg.codec.shape}"
            elif arg.at == "body":
                sent = arg.codec.shape
        if fields:
            sent = f"`{{{', '.join(fields)}}}`"
        key, shape = verb.result.key, verb.result.codec.shape
        answer = shape if key is None else "`{%s%s%s}`" % (
            key, f": {shape}" if shape else "", ", ingested" if verb.result.counts else ""
        )
        row = f"| `{verb.method} {path}` | `{verb.name}` | `{verb.route}` | {sent} → {answer} |"
        lines.append(row.replace("|  → ", "| → "))
    return lines


def generated_block(name: str) -> tuple[str, list[str]]:
    """The closing marker and current lines of one generated block."""
    if name == "surface":
        return "<!-- /surface -->", endpoint_table()
    return "<!-- /cli -->", ["```text", *cli_help(name).splitlines(), "```"]


def sync_cli_blocks(path: Path, fix: bool) -> list[str]:
    """Compare (or with ``fix``, rewrite) the marked generated blocks."""
    lines = path.read_text().splitlines()
    errors = []
    output = []
    index = 0
    changed = False
    while index < len(lines):
        line = lines[index]
        output.append(line)
        match = _CLI_OPEN.search(line)
        if not match:
            index += 1
            continue
        name = match.group(1) or match.group(2)
        close, expected = generated_block(name)
        try:
            close_offset = next(
                offset for offset, later in enumerate(lines[index:]) if later.strip() == close
            )
        except StopIteration:
            errors.append(f"{path.relative_to(REPO_ROOT)}:{index + 1}: unterminated {name} block")
            index += 1
            continue
        block = lines[index + 1 : index + close_offset]
        if block != expected:
            if fix:
                changed = True
            else:
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}:{index + 1}: stale `{name}` "
                    "block (run: PYTHONPATH=src python tools/check_docs.py --fix)"
                )
        output.extend(expected if fix else block)
        output.append(close)
        index += close_offset + 1
    if fix and changed:
        path.write_text("\n".join(output) + "\n")
        print(f"regenerated blocks in {path.relative_to(REPO_ROOT)}")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fix", action="store_true", help="regenerate the generated blocks in place"
    )
    args = parser.parse_args(argv)

    errors: list[str] = []
    for path in doc_files():
        errors.extend(check_links(path))
        errors.extend(sync_cli_blocks(path, fix=args.fix))
        errors.extend(check_doctests(path))
    if errors:
        print(f"{len(errors)} documentation problem(s):")
        for error in errors:
            print(f"  {error}")
        return 1
    print(f"docs OK: {len(doc_files())} file(s) — links, doctests and generated blocks in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
