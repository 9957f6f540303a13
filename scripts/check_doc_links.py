#!/usr/bin/env python3
"""Fail on broken relative links in the repo's markdown docs.

Scans README.md and docs/*.md for inline markdown links, resolves
relative targets (path plus optional #anchor) against the linking
file, and exits non-zero listing any target that does not exist.
External links (http/https/mailto) are ignored; anchors are checked
against the target file's headings.

Also scans the files under src/, bench/ and examples/ for mentions of
a markdown file by name (e.g. "see EVALUATION.md") and fails on any
name that no markdown file in the repo carries.

Usage: scripts/check_doc_links.py [repo_root]
"""

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
MD_NAME_RE = re.compile(r"\b[\w\-]+\.md\b")
CODE_DIRS = ("src", "bench", "examples")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def anchor_of(heading: str) -> str:
    """GitHub-style anchor: lowercase, spaces to dashes, strip punctuation."""
    heading = heading.strip().lower()
    heading = re.sub(r"[^\w\- ]", "", heading)
    return heading.replace(" ", "-")


def check_file(md: Path, root: Path) -> list:
    errors = []
    text = md.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, anchor = target.partition("#")
        if not path_part:  # same-file anchor
            dest = md
        else:
            dest = (md.parent / path_part).resolve()
            if not dest.exists():
                errors.append(f"{md.relative_to(root)}: broken link -> {target}")
                continue
        if anchor and dest.suffix == ".md":
            headings = {anchor_of(h) for h in HEADING_RE.findall(
                dest.read_text(encoding="utf-8"))}
            if anchor not in headings:
                errors.append(
                    f"{md.relative_to(root)}: missing anchor -> {target}")
    return errors


def check_code_mentions(root: Path) -> list:
    """Markdown file names mentioned in code that name no repo file."""
    def visible(path: Path) -> bool:
        return not any(part.startswith(".")
                       for part in path.relative_to(root).parts)

    names = {p.name for p in root.rglob("*.md") if visible(p)}
    errors = []
    for sub in CODE_DIRS:
        for path in sorted((root / sub).rglob("*")):
            if not path.is_file() or not visible(path):
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            for lineno, line in enumerate(text.splitlines(), 1):
                for name in MD_NAME_RE.findall(line):
                    if name not in names:
                        errors.append(
                            f"{path.relative_to(root)}:{lineno}: "
                            f"mentions {name}, which no markdown file "
                            f"in the repo is named")
    return errors


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1 else ".").resolve()
    files = [root / "README.md"] + sorted((root / "docs").glob("*.md"))
    errors = []
    checked = 0
    for md in files:
        if not md.exists():
            continue
        checked += 1
        errors.extend(check_file(md, root))
    errors.extend(check_code_mentions(root))
    for e in errors:
        print(f"ERROR: {e}")
    print(f"checked {checked} file(s) and the code under "
          f"{', '.join(CODE_DIRS)}: {len(errors)} problem(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
