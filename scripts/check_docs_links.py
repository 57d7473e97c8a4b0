#!/usr/bin/env python3
"""Check that intra-repo links, file references and heading anchors in the
Markdown docs resolve.

Scans the repo's committed *.md files (top level, docs/, .github/) for

  * inline Markdown links [text](target) — http(s)/mailto links are
    ignored, everything else must exist relative to the linking file (or
    the repo root as a fallback);
  * anchor fragments — `[x](#section)` must name a heading in the same
    file, and `[x](docs/FOO.md#section)` must name a heading in the linked
    Markdown file. Anchors are derived from headings the way GitHub does
    it: lowercase, punctuation stripped, spaces to hyphens, duplicate
    headings suffixed -1, -2, ...;
  * backtick references like `src/select/bnb.hpp`, `docs/TOPO_FORMAT.md`
    or `scripts/check_docs_links.py` — single-token paths with a known
    directory prefix and file extension must exist.

Fenced code blocks are ignored, both as link sources and when collecting
headings. Exits non-zero listing every broken reference. Run from
anywhere:

  python3 scripts/check_docs_links.py
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Committed Markdown roots (build/ output and similar are never scanned).
DOC_GLOBS = ["*.md", "docs/*.md", ".github/**/*.md"]
# Generated reference material (paper/snippet retrieval dumps) is not ours
# to fix and may cite assets that were never retrieved.
SKIP = {"PAPERS.md", "SNIPPETS.md", "PAPER.md", "ISSUE.md"}

INLINE_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
# `path/to/file.ext` with a recognisable top-level prefix.
BACKTICK_PATH = re.compile(
    r"`((?:src|docs|tests|bench|examples|scripts|\.github)/[A-Za-z0-9_\-./]+"
    r"\.[A-Za-z0-9]+)`"
)
# `a/b.{hpp,cpp}`-style brace shorthand used throughout the docs.
BRACES = re.compile(r"\{([^}]*)\}")
HEADING = re.compile(r"^#{1,6}\s+(.*)$")
FENCE = re.compile(r"^\s*(```|~~~)")


def expand_braces(path):
    m = BRACES.search(path)
    if not m:
        return [path]
    out = []
    for alt in m.group(1).split(","):
        out.extend(expand_braces(path[: m.start()] + alt + path[m.end() :]))
    return out


def resolve(target, base):
    for c in (base / target, ROOT / target):
        if c.exists():
            return c
    return None


def slugify(heading):
    """GitHub's heading -> anchor id transform (close enough for our docs):
    drop inline markup, lowercase, strip punctuation, spaces to hyphens."""
    text = re.sub(r"\[([^\]]*)\]\([^)\s]*\)", r"\1", heading)
    text = text.replace("`", "")
    text = re.sub(r"[*_]{1,2}", "", text)
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_anchors(md, cache):
    """All anchor ids defined by a Markdown file, duplicate-suffixed the way
    GitHub does (second 'Notes' heading becomes notes-1, and so on)."""
    if md not in cache:
        anchors, counts, in_fence = set(), {}, False
        for line in md.read_text(encoding="utf-8").splitlines():
            if FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            m = HEADING.match(line)
            if not m:
                continue
            slug = slugify(m.group(1))
            n = counts.get(slug, 0)
            counts[slug] = n + 1
            anchors.add(slug if n == 0 else f"{slug}-{n}")
        cache[md] = anchors
    return cache[md]


def main():
    broken = []
    anchor_cache = {}
    files = sorted(
        {f for g in DOC_GLOBS for f in ROOT.glob(g) if f.name not in SKIP}
    )
    if not files:
        print("check_docs_links: no Markdown files found", file=sys.stderr)
        return 2
    for md in files:
        text = md.read_text(encoding="utf-8")
        rel = md.relative_to(ROOT)
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), 1):
            if FENCE.match(line):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            targets = []
            frags = []  # (resolved markdown Path, fragment)
            for m in INLINE_LINK.finditer(line):
                t = m.group(1)
                if t.startswith(("http://", "https://", "mailto:")):
                    continue
                if t.startswith("#"):
                    frags.append((md, t[1:]))
                    continue
                path, _, frag = t.partition("#")
                targets.append(path)
                if frag:
                    dest = resolve(path, md.parent)
                    if dest is not None and dest.suffix == ".md":
                        frags.append((dest, frag))
            for m in BACKTICK_PATH.finditer(line):
                targets.extend(expand_braces(m.group(1)))
            for t in targets:
                if t and resolve(t, md.parent) is None:
                    broken.append(f"{rel}:{lineno}: broken reference '{t}'")
            for dest, frag in frags:
                if frag not in heading_anchors(dest, anchor_cache):
                    where = (
                        "" if dest == md
                        else f" in {dest.relative_to(ROOT)}"
                    )
                    broken.append(
                        f"{rel}:{lineno}: broken anchor '#{frag}'{where}"
                    )
    if broken:
        print("check_docs_links: FAIL", file=sys.stderr)
        for b in broken:
            print(f"  {b}", file=sys.stderr)
        return 1
    print(f"check_docs_links: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
