#!/usr/bin/env python3
"""Documentation lint for CI.

Checks, over every tracked *.md file:
  1. relative markdown links ([text](path) and [text](path#anchor)) resolve
     to files/directories that exist in the repository, and `#anchor`
     fragments pointing into markdown files (including pure in-page
     anchors) resolve to a real heading's GitHub slug;
  2. every `./build/<dir>/<name>` command mentioned in a fenced ``sh``
     block refers to a target that some CMakeLists.txt actually defines
     (add_executable/vread_test/plain name mention), so the docs can't
     drift ahead of the build;
  3. every `vread_*` metric name registered in the sources (counter/
     gauge/histogram call sites under src/ and bench/) appears in
     docs/METRICS.md, so new series can't ship undocumented;
  4. every field of every configuration struct (DaemonConfig, QosConfig,
     ClusterConfig, TopologyConfig, RouteConfig, FlowSimConfig, ...) is
     documented in docs/CONFIG.md — the field names are parsed straight
     out of the headers, so a new knob can't ship undocumented either;
  5. every field of those structs is set somewhere outside its own header
     (a designated initializer, a member assignment or a container insert
     in src/, bench/, tools/, tests/, examples/ or benchmark/), so an
     option that only ever keeps its default becomes a constant instead.

Exit code 0 = clean; 1 = problems (all printed).
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
FENCE_RE = re.compile(r"```sh\n(.*?)```", re.S)
BINARY_RE = re.compile(r"\./build[^/\s]*/(?:[\w.-]+/)*([\w.-]+)")


def md_files():
    skip = {"build", "build-asan", ".git"}
    for p in sorted(ROOT.rglob("*.md")):
        if not any(part in skip for part in p.parts):
            yield p


HEADING_RE = re.compile(r"^#{1,6}\s+(.*?)\s*$", re.M)


def github_slug(heading):
    """The anchor GitHub generates for a heading: lowercase, punctuation
    stripped (keeping word chars, hyphens and spaces), spaces -> hyphens."""
    h = heading.replace("`", "").strip().lower()
    h = re.sub(r"[^\w\- ]", "", h)
    return h.replace(" ", "-")


def heading_slugs(md_path, cache={}):
    if md_path not in cache:
        slugs = set()
        for m in HEADING_RE.finditer(md_path.read_text()):
            slugs.add(github_slug(m.group(1)))
        cache[md_path] = slugs
    return cache[md_path]


def check_links(path, text, problems):
    for m in LINK_RE.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        file_part, _, anchor = target.partition("#")
        resolved = (path.parent / file_part).resolve() if file_part else path
        if not resolved.exists():
            problems.append(f"{path.relative_to(ROOT)}: broken link -> {m.group(1)}")
            continue
        if anchor and resolved.suffix == ".md":
            slugs = heading_slugs(resolved)
            # Duplicate headings get a -N suffix on GitHub; accept those too.
            base = re.sub(r"-\d+$", "", anchor)
            if anchor not in slugs and base not in slugs:
                problems.append(
                    f"{path.relative_to(ROOT)}: dead anchor -> {m.group(1)} "
                    f"(no heading slugs to '#{anchor}')"
                )


def cmake_targets():
    """Every name a CMakeLists.txt could turn into a build/<dir>/<name> binary."""
    names = set()
    decl = re.compile(r"(?:add_executable|vread_test|vread_bench|vread_example)\s*\(\s*([\w.-]+)")
    for cml in ROOT.rglob("CMakeLists.txt"):
        if "build" in cml.parts:
            continue
        for m in decl.finditer(cml.read_text()):
            names.add(m.group(1))
    return names


def check_sh_blocks(path, text, targets, problems):
    for block in FENCE_RE.finditer(text):
        for m in BINARY_RE.finditer(block.group(1)):
            name = m.group(1)
            if "." in name:  # an artifact file (foo.trace.json), not a target
                continue
            if name not in targets and name != "*":
                problems.append(
                    f"{path.relative_to(ROOT)}: sh block references "
                    f"'{m.group(0)}' but no CMake target '{name}' exists"
                )


# The schema version strings must agree everywhere they are spelled out,
# or a bumped emitter would silently invalidate the docs / the comparator.
SCHEMA_SITES = {
    "vread-bench": [
        ("bench/common.h", re.compile(r'kBenchJsonSchema\s*=\s*"(vread-bench/[^"]+)"')),
        ("tools/bench_compare.py", re.compile(r'SCHEMA\s*=\s*"(vread-bench/[^"]+)"')),
        ("docs/METRICS.md", re.compile(r'(vread-bench/\d+)')),
    ],
    "vread-metrics": [
        ("src/metrics/export.h",
         re.compile(r'kMetricsJsonSchema\s*=\s*"(vread-metrics/[^"]+)"')),
        ("docs/METRICS.md", re.compile(r'(vread-metrics/\d+)')),
    ],
    "vread-timeline": [
        ("src/obs/timeline.h",
         re.compile(r'kTimelineSchema\s*=\s*"(vread-timeline/[^"]+)"')),
        ("docs/OBSERVABILITY.md", re.compile(r'(vread-timeline/\d+)')),
    ],
}


def check_schema_versions(problems):
    for family, sites in SCHEMA_SITES.items():
        seen = {}
        for rel, pattern in sites:
            path = ROOT / rel
            if not path.exists():
                problems.append(f"{rel}: missing (schema check for {family})")
                continue
            versions = set(pattern.findall(path.read_text()))
            if not versions:
                problems.append(f"{rel}: no {family} schema version found")
                continue
            if len(versions) > 1:
                problems.append(f"{rel}: conflicting {family} versions {sorted(versions)}")
            seen[rel] = versions
        flat = {v for vs in seen.values() for v in vs}
        if len(flat) > 1:
            problems.append(
                f"{family} schema version disagrees across files: "
                + ", ".join(f"{r}={sorted(v)}" for r, v in sorted(seen.items()))
            )


# Instrument registration sites: counter("vread_...") etc. — including
# the obs recorder's pre-resolved series handles (resolve). The
# name literal often sits on the line after the call (clang-format), so
# \s* must span newlines.
METRIC_DECL_RE = re.compile(r'(?:counter|gauge|histogram|resolve)\(\s*"(vread_[a-z0-9_]+)"')


def check_metric_docs(problems):
    doc_path = ROOT / "docs" / "METRICS.md"
    if not doc_path.exists():
        problems.append("docs/METRICS.md: missing (metric-name check)")
        return
    doc = doc_path.read_text()
    names = {}
    for sub in ("src", "bench"):
        for p in sorted((ROOT / sub).rglob("*")):
            if p.suffix not in (".h", ".cc"):
                continue
            for m in METRIC_DECL_RE.finditer(p.read_text()):
                names.setdefault(m.group(1), p)
    for name, p in sorted(names.items()):
        if name not in doc:
            problems.append(
                f"{p.relative_to(ROOT)}: metric '{name}' is registered in the "
                f"sources but not documented in docs/METRICS.md"
            )


# Configuration structs whose every field must appear (backticked) in
# docs/CONFIG.md. The parser below reads the real headers, so adding a
# knob without documenting it fails CI.
CONFIG_STRUCTS = [
    ("src/core/vread_daemon.h", "DaemonConfig"),
    ("src/core/vread_daemon.h", "CoalesceConfig"),
    ("src/core/qos.h", "QosConfig"),
    ("src/core/peer_cache.h", "PeerCacheConfig"),
    ("src/apps/cluster.h", "ClusterConfig"),
    ("src/hw/network.h", "Config"),      # NetworkLink::Config
    ("src/hw/network.h", "RackConfig"),  # Lan::RackConfig
    ("src/hw/disk.h", "Config"),         # Disk::Config
    ("src/hw/disk.h", "Variability"),    # Disk::Variability
    ("src/hdfs/dfs_client.h", "HedgeConfig"),
    ("src/cluster/topology.h", "TopologyConfig"),
    ("src/cluster/route.h", "RouteConfig"),
    ("src/cluster/flowsim.h", "FlowSimConfig"),
    ("src/obs/timeseries.h", "ObsConfig"),
    ("src/obs/slo.h", "SloConfig"),
]


def strip_comments(text):
    text = re.sub(r"//[^\n]*", "", text)
    return re.sub(r"/\*.*?\*/", "", text, flags=re.S)


def struct_body(text, name):
    """The brace-matched body of the FIRST `struct <name> {...}` in text."""
    m = re.search(r"struct\s+" + re.escape(name) + r"\s*\{", text)
    if not m:
        return None
    depth, i = 1, m.end()
    start = i
    while i < len(text) and depth:
        depth += {"{": 1, "}": -1}.get(text[i], 0)
        i += 1
    return text[start:i - 1]


def struct_fields(body):
    """Data-member names of a struct body (functions and nested types
    skipped; nested-struct FIELDS of this struct are included)."""
    # Blank everything inside nested braces (function bodies, nested
    # struct definitions, aggregate initializers) so only this struct's
    # own declarations survive as `;`-terminated statements.
    flat, depth = [], 0
    for ch in body:
        if ch == "{":
            depth += 1
            flat.append("{")
        elif ch == "}":
            depth -= 1
            flat.append("}")
        else:
            flat.append(ch if depth == 0 else " ")
    fields = []
    for stmt in "".join(flat).split(";"):
        decl = re.split(r"[={]", stmt, 1)[0].strip()
        if not decl or "(" in decl:
            continue  # function declaration/definition
        if re.match(r"(struct|class|enum|using|public|private|protected)\b", decl):
            continue
        m = re.search(r"([A-Za-z_]\w*)\s*$", decl)
        if m:
            fields.append(m.group(1))
    return fields


def check_config_docs(problems):
    doc_path = ROOT / "docs" / "CONFIG.md"
    if not doc_path.exists():
        problems.append("docs/CONFIG.md: missing (config-knob check)")
        return
    doc = doc_path.read_text()
    for rel, struct in CONFIG_STRUCTS:
        path = ROOT / rel
        if not path.exists():
            problems.append(f"{rel}: missing (config-knob check for {struct})")
            continue
        body = struct_body(strip_comments(path.read_text()), struct)
        if body is None:
            problems.append(f"{rel}: struct {struct} not found (config-knob check)")
            continue
        for field in struct_fields(body):
            if f"`{field}`" not in doc:
                problems.append(
                    f"{rel}: {struct}::{field} is not documented in docs/CONFIG.md"
                )


# A field "is set" where code names it as a designated initializer
# (`.field = v`, `.field{v}`), assigns it (`x.field = v`, `p->field += v`)
# or inserts into it (`x.field[k] = v`, `x.field.emplace(...)`) — directly
# or through one of its own members (`cfg.topo.racks = 4` sets `topo`).
SETTER_DIRS = ("src", "bench", "tools", "tests", "examples", "benchmark")
SETTER_RE = (
    r"(?:\.|->)\s*{f}(?:\s*\.\s*\w+)*\s*(?:"
    r"(?:[-+*/|&^]|<<|>>)?=(?!=)"
    r"|\{{"
    r"|\[[^\]\n]*\]\s*=(?!=)"
    r"|\.\s*(?:insert|insert_or_assign|emplace|try_emplace|push_back|emplace_back)\s*\()"
)


def check_config_setters(problems):
    sources = []
    for sub in SETTER_DIRS:
        for p in sorted((ROOT / sub).rglob("*")):
            if p.suffix in (".h", ".cc", ".cpp"):
                sources.append((p, strip_comments(p.read_text())))
    for rel, struct in CONFIG_STRUCTS:
        path = ROOT / rel
        if not path.exists():
            continue  # reported by check_config_docs
        body = struct_body(strip_comments(path.read_text()), struct)
        if body is None:
            continue
        for field in struct_fields(body):
            setter = re.compile(SETTER_RE.format(f=re.escape(field)))
            if not any(p != path and setter.search(text) for p, text in sources):
                problems.append(
                    f"{rel}: {struct}::{field} is set by no code outside its header "
                    f"(make it a constant)"
                )


def main():
    problems = []
    targets = cmake_targets()
    if not targets:
        problems.append("no CMake targets found — is this the repo root?")
    check_schema_versions(problems)
    check_metric_docs(problems)
    check_config_docs(problems)
    check_config_setters(problems)
    for path in md_files():
        text = path.read_text()
        check_links(path, text, problems)
        check_sh_blocks(path, text, targets, problems)
    for p in problems:
        print(p)
    print(f"check_docs: {'FAIL' if problems else 'ok'} "
          f"({len(list(md_files()))} md files, {len(targets)} targets)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
