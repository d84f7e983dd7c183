#!/usr/bin/env python
"""Documentation consistency checker (run by CI and tests/test_docs.py).

Verifies that the documentation layer cannot silently drift from the code:

1. README.md documents every `repro` CLI subcommand (as a `### <name>`
   heading), the `--engine` flag with every registered backend name, the
   `--telemetry`/`--trace-out` observability flags, and every long
   option of the `serve` and `index` subcommands.
2. Every `DESIGN.md §N[.M]` reference in the source tree points at a
   numbered section that actually exists in DESIGN.md.
3. Every documentation file mentioned from package docstrings
   (README.md, DESIGN.md, EXPERIMENTS.md) exists.
4. EXPERIMENTS.md covers every `benchmarks/bench_*.py` script.

Exits non-zero with a list of problems; prints nothing on success unless
``--verbose``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _cli_subcommands() -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    for action in parser._actions:  # noqa: SLF001 - argparse has no public API
        if getattr(action, "choices", None):
            return sorted(action.choices)
    raise AssertionError("CLI parser has no subcommands")


def _engine_names() -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.walks.backends import available_engines

    return list(available_engines())


def _subcommand_options(name: str) -> list[str]:
    """All long option strings of one subcommand (minus ``--help``)."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.cli import build_parser

    parser = build_parser()
    sub = next(
        action
        for action in parser._actions  # noqa: SLF001 - argparse has no public API
        if getattr(action, "choices", None)
    )
    options: set[str] = set()
    for action in sub.choices[name]._actions:  # noqa: SLF001
        for option in action.option_strings:
            if option.startswith("--") and option != "--help":
                options.add(option)
    return sorted(options)


def _design_sections(design_text: str) -> set[str]:
    """Section numbers declared by DESIGN.md headings (e.g. {'2', '4.4'})."""
    sections = set()
    for match in re.finditer(
        r"^#{2,4}\s+(\d+(?:\.\d+)*)[.\s]", design_text, re.MULTILINE
    ):
        number = match.group(1)
        sections.add(number)
        # A section implies all its ancestors ("4.4" implies "4").
        while "." in number:
            number = number.rsplit(".", 1)[0]
            sections.add(number)
    return sections


def check_docs() -> list[str]:
    """Return a list of problems (empty when the docs are consistent)."""
    problems: list[str] = []

    readme_path = REPO_ROOT / "README.md"
    design_path = REPO_ROOT / "DESIGN.md"
    experiments_path = REPO_ROOT / "EXPERIMENTS.md"
    for path in (readme_path, design_path, experiments_path):
        if not path.is_file():
            problems.append(f"missing documentation file: {path.name}")
    if problems:
        return problems

    readme = readme_path.read_text(encoding="utf-8")
    design = design_path.read_text(encoding="utf-8")
    experiments = experiments_path.read_text(encoding="utf-8")

    # 1. CLI coverage in README.
    for command in _cli_subcommands():
        if not re.search(rf"^### {re.escape(command)}\s*$", readme, re.MULTILINE):
            problems.append(
                f"README.md lacks a '### {command}' CLI reference section"
            )
    if "--engine" not in readme:
        problems.append("README.md does not document the --engine flag")
    for engine in _engine_names():
        if engine not in readme:
            problems.append(f"README.md does not mention engine {engine!r}")
    for flag in ("--telemetry", "--trace-out"):
        if flag not in readme:
            problems.append(f"README.md does not document the {flag} flag")
    for subcommand in ("serve", "index"):
        for option in _subcommand_options(subcommand):
            if option not in readme:
                problems.append(
                    f"README.md does not document the {subcommand} "
                    f"flag {option}"
                )

    # 2. DESIGN.md section references from the source tree.
    sections = _design_sections(design)
    for py in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = py.read_text(encoding="utf-8")
        for match in re.finditer(r"DESIGN\.md\s+§(\d+(?:\.\d+)*)", text):
            if match.group(1) not in sections:
                problems.append(
                    f"{py.relative_to(REPO_ROOT)} references DESIGN.md "
                    f"§{match.group(1)}, which has no matching heading"
                )

    # 3. Doc files referenced from source docstrings exist (checked above
    # for the three core files); also catch references to other .md names.
    for py in sorted((REPO_ROOT / "src").rglob("*.py")):
        text = py.read_text(encoding="utf-8")
        for match in re.finditer(r"([A-Z][A-Z_]+\.md)", text):
            if not (REPO_ROOT / match.group(1)).is_file():
                problems.append(
                    f"{py.relative_to(REPO_ROOT)} references missing doc "
                    f"file {match.group(1)}"
                )

    # 4. EXPERIMENTS.md covers every benchmark script.
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        if bench.name not in experiments:
            problems.append(f"EXPERIMENTS.md does not mention {bench.name}")

    return problems


def main(argv: "list[str] | None" = None) -> int:
    verbose = "--verbose" in (argv or sys.argv[1:])
    problems = check_docs()
    if problems:
        print("documentation check failed:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    if verbose:
        print("documentation check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
