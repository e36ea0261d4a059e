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
     A setter counts only for the struct its receiver's type resolves to;
  6. every executable in bench/CMakeLists.txt except the host-time
     micro_primitives is run by the bench-telemetry job's loop in
     .github/workflows/ci.yml and has a committed
     bench/baseline/BENCH_<name>.json, so no bench's numbers go ungated.

`--self-test` runs checks 5 and 6 on synthetic inputs instead.

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
    ("src/hw/network.h", "NetworkLink::Config"),
    ("src/hw/network.h", "Lan::RackConfig"),
    ("src/hw/disk.h", "Disk::Config"),
    ("src/hw/disk.h", "Disk::Variability"),
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
        body = struct_body(strip_comments(path.read_text()), struct.split("::")[-1])
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
# A setter counts for a struct only when the object it names resolves to
# that struct's type: the receiver's declaration (nearest one before the
# use, else a member declared in the file or its header), a member chain
# through config-struct fields, or the braced initializer's spelled type.
# A setter whose type cannot be resolved (an `auto` receiver, a braced
# function argument) counts for no struct, so a same-named field of
# another struct can never hide a field that nothing sets.
SETTER_DIRS = ("src", "bench", "tools", "tests", "examples", "benchmark")
SETTER_RE = (
    r"(?:\.|->)\s*{f}(?:\s*\.\s*\w+)*\s*(?:"
    r"(?:[-+*/|&^]|<<|>>)?=(?!=)"
    r"|\{{"
    r"|\[[^\]\n]*\]\s*=(?!=)"
    r"|\.\s*(?:insert|insert_or_assign|emplace|try_emplace|push_back|emplace_back)\s*\()"
)
NOT_A_TYPE = {"return", "co_return", "co_await", "co_yield", "throw", "new", "delete",
              "else", "case", "const", "typename", "struct", "class", "using", "auto"}
RECEIVER_RE = re.compile(r"([A-Za-z_]\w*(?:\s*(?:\.|->)\s*[A-Za-z_]\w*)*)\s*$")


def type_matches(spelled, key):
    """`hw::Disk::Config` names the struct listed as `Disk::Config`."""
    return spelled == key or spelled.endswith("::" + key)


def field_types(body):
    """{field: spelled type} for a struct body's own data members."""
    types = {}
    for field in struct_fields(body):
        m = re.search(r"([A-Za-z_][\w:]*)(?:\s*<[^;]*>)?[\s*&]+" + re.escape(field)
                      + r"\s*(?:[;={]|$)", body, re.M)
        if m:
            types[field] = m.group(1)
    return types


def declared_type(name, texts, before):
    """Spelled type of variable `name`: its nearest declaration before
    offset `before` in texts[0], else any declaration in texts."""
    decl = re.compile(r"(?<![\w.>])((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(?:\s*<[^;{}()]*?>)?"
                      r"(?:\s+|\s*[&*]+\s*)" + re.escape(name) + r"\b(?=\s*[;,={)\[])")
    found = [m for m in decl.finditer(texts[0][:before])]
    for text in texts:
        if found:
            break
        found = list(decl.finditer(text))
    for m in reversed(found):
        if m.group(1).split("::")[-1] not in NOT_A_TYPE:
            return m.group(1)
        if m.group(1) == "auto":
            return None
    return None


class SetterResolver:
    """Resolves the struct type a setter site writes into."""

    def __init__(self, structs):
        # structs: [(key, body)] of the config structs
        self.fields = {key: field_types(body) for key, body in structs}

    def struct_of(self, spelled):
        for key in self.fields:
            if spelled is not None and type_matches(spelled, key):
                return key
        return None

    def chain_type(self, chain, texts, pos):
        parts = re.split(r"\s*(?:\.|->)\s*", chain)
        spelled = declared_type(parts[0], texts, pos)
        for member in parts[1:]:
            key = self.struct_of(spelled)
            spelled = self.fields[key].get(member) if key else None
        return spelled

    def brace_type(self, text, brace, texts):
        """Spelled type of the braced list opening at offset `brace`."""
        head = text[:brace].rstrip()
        m = re.search(r"(?:\.|->)\s*(\w+)\s*=?\s*$", head)
        if m and not re.search(r"[\w)\]]\s*(?:\.|->)\s*\w+\s*=?\s*$", head[:m.end()]):
            # nested designated initializer: `.field = {` / `.field{`
            key = self.struct_of(self.enclosing_type(text, m.start(), texts))
            return self.fields[key].get(m.group(1)) if key else None
        m = re.search(r"([A-Za-z_][\w.>-]*)\s*=\s*$", head)
        if m:
            return self.chain_type(m.group(1).replace("->", "."), texts, m.start())
        m = re.search(r"((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)(?:\s*<[^;{}()]*>)?"
                      r"(?:\s+[A-Za-z_]\w*)?\s*$", head)
        if m and m.group(1).split("::")[-1] not in NOT_A_TYPE:
            return m.group(1)
        return None

    def enclosing_type(self, text, pos, texts):
        depth = 0
        for i in range(pos - 1, -1, -1):
            ch = text[i]
            if ch in ")]}":
                depth += 1
            elif ch in "([{":
                if depth == 0:
                    return self.brace_type(text, i, texts) if ch == "{" else None
                depth -= 1
        return None

    def target(self, text, m, texts):
        """Config struct written by the setter match `m`, or None."""
        head = text[:m.start()].rstrip()
        if text[m.start()] == "." and head.endswith(("{", ",")):
            return self.struct_of(self.enclosing_type(text, m.start(), texts))
        r = RECEIVER_RE.search(head)
        if not r:
            return None
        return self.struct_of(self.chain_type(r.group(1), texts, r.start()))


def unset_fields(structs, sources):
    """[(header, key, field)] for every field of `structs` (header, key,
    text) that no code in `sources` ([(path, text)]) outside its header
    sets."""
    bodies = [(key, struct_body(strip_comments(text), key.split("::")[-1]))
              for _, key, text in structs]
    resolver = SetterResolver([(k, b) for k, b in bodies if b is not None])
    texts = {p: t for p, t in sources}
    unset = []
    for (header, key, _), (_, body) in zip(structs, bodies):
        if body is None:
            continue
        for field in struct_fields(body):
            setter = re.compile(SETTER_RE.format(f=re.escape(field)))
            hit = False
            for p, text in sources:
                if p == header:
                    continue
                pair = texts.get(p.with_suffix(".h")) if p.suffix != ".h" else None
                scope = [text] + ([pair] if pair else [])
                if any(resolver.target(text, m, scope) == key
                       for m in setter.finditer(text)):
                    hit = True
                    break
            if not hit:
                unset.append((header, key, field))
    return unset


def check_config_setters(problems):
    sources = []
    for sub in SETTER_DIRS:
        for p in sorted((ROOT / sub).rglob("*")):
            if p.suffix in (".h", ".cc", ".cpp"):
                sources.append((p, strip_comments(p.read_text())))
    structs = [(ROOT / rel, key, (ROOT / rel).read_text())
               for rel, key in CONFIG_STRUCTS if (ROOT / rel).exists()]
    for header, key, field in unset_fields(structs, sources):
        problems.append(
            f"{header.relative_to(ROOT)}: {key}::{field} is set by no code outside its "
            f"header (make it a constant)"
        )


# Benches whose output is host time, not modeled numbers: nothing to gate.
UNGATED_BENCHES = {"micro_primitives"}
BENCH_DECL_RE = re.compile(r"^\s*(?:vread_bench|add_executable)\(\s*([\w.-]+)", re.M)


def telemetry_loop(ci_text):
    """The bench names of the bench-telemetry job's `for b in ...; do` loop."""
    job = re.search(r"^  bench-telemetry:\n(.*?)(?=^  \S|\Z)", ci_text, re.S | re.M)
    loop = job and re.search(r"for b in (.*?); do", job.group(1), re.S)
    return set(loop.group(1).replace("\\", " ").split()) if loop else set()


def ungated_benches(cmake_text, ci_text, baselines):
    loop = telemetry_loop(ci_text)
    problems = []
    for name in BENCH_DECL_RE.findall(cmake_text):
        if name in UNGATED_BENCHES:
            continue
        if name not in loop:
            problems.append(f"bench {name} is not run by ci.yml's bench-telemetry loop")
        if f"BENCH_{name}.json" not in baselines:
            problems.append(f"bench {name} has no bench/baseline/BENCH_{name}.json")
    return problems


def check_bench_gate(problems):
    baselines = {p.name for p in (ROOT / "bench/baseline").glob("BENCH_*.json")}
    problems.extend(ungated_benches((ROOT / "bench/CMakeLists.txt").read_text(),
                                    (ROOT / ".github/workflows/ci.yml").read_text(),
                                    baselines))


def self_test():
    """Checks 5 and 6 on synthetic inputs: each check-5 case names the
    fields it must report as never set, each check-6 case the benches it
    must report."""
    header = pathlib.Path("cfg.h")
    text = """
        struct AConfig { int seed = 1; int rate = 2; };
        struct BConfig { int seed = 3; };
        struct CConfig { AConfig a{}; int depth = 4; };
    """
    structs = [(header, key, text) for key in ("AConfig", "BConfig", "CConfig")]
    cases = [
        # A same-named field of another struct no longer hides A::seed.
        ("BConfig b; b.seed = 5; AConfig a; a.rate = 6; CConfig c; c.a = {}; c.depth = 1;",
         {"AConfig::seed"}),
        # The nearest declaration before the use decides the receiver's type.
        ("void f() { AConfig cfg; cfg.rate = 1; }\n"
         "void g() { BConfig cfg; cfg.seed = 2; }\n"
         "void h(CConfig& c) { c.a.seed = 3; c.depth = 4; }",
         set()),
        # Braced lists count when their type is spelled, nested ones too.
        ("auto c = CConfig{.a = {.seed = 1, .rate = 2}, .depth = 3}; BConfig b{.seed = 4};",
         set()),
        # An untyped braced argument or an auto receiver sets nothing.
        ("run({.seed = 1}); auto& a = pick(); a.rate = 2; BConfig b; b.seed = 3;"
         " CConfig c; c.a = {}; c.depth = 1;",
         {"AConfig::seed", "AConfig::rate"}),
        # Its own header never counts.
        ("", {"AConfig::seed", "AConfig::rate", "BConfig::seed", "CConfig::a",
              "CConfig::depth"}),
    ]
    failures = 0
    for source, want in cases:
        sources = [(pathlib.Path("use.cc"), source), (header, text)]
        got = {f"{key}::{field}" for _, key, field in unset_fields(structs, sources)}
        if got != want:
            failures += 1
            print(f"self-test FAIL: {source!r}: reported {sorted(got)}, want {sorted(want)}")

    cmake = ("function(vread_bench name)\n  add_executable(${name} ${name}.cc)\n"
             "endfunction()\nvread_bench(fig02)\nvread_bench(ablation_x)\n"
             "add_executable(micro_primitives micro_primitives.cc)\n")
    ci = ("jobs:\n  other:\n    steps:\n      - run: for b in ablation_x; do :; done\n"
          "  bench-telemetry:\n    steps:\n      - run: |\n"
          "          for b in fig02 \\\n              {extra}; do\n"
          "            ./build/bench/$b\n          done\n")
    gate_cases = [
        # Gated: in the loop with a baseline; micro_primitives is exempt.
        (ci.format(extra="ablation_x"), {"BENCH_fig02.json", "BENCH_ablation_x.json"},
         set()),
        # Missing from the bench-telemetry loop (another job's loop does not count).
        (ci.format(extra="fig03"), {"BENCH_fig02.json", "BENCH_ablation_x.json"},
         {"ablation_x"}),
        # In the loop but no committed baseline.
        (ci.format(extra="ablation_x"), {"BENCH_fig02.json"}, {"ablation_x"}),
    ]
    for ci_text, baselines, want in gate_cases:
        got = {p.split()[1] for p in ungated_benches(cmake, ci_text, baselines)}
        if got != want:
            failures += 1
            print(f"self-test FAIL: bench gate reported {sorted(got)}, want {sorted(want)}")
    n = len(cases) + len(gate_cases)
    print(f"check_docs self-test: {'FAIL' if failures else 'ok'} ({n} cases)")
    return 1 if failures else 0


def main():
    if sys.argv[1:] == ["--self-test"]:
        return self_test()
    problems = []
    targets = cmake_targets()
    if not targets:
        problems.append("no CMake targets found — is this the repo root?")
    check_schema_versions(problems)
    check_metric_docs(problems)
    check_config_docs(problems)
    check_config_setters(problems)
    check_bench_gate(problems)
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
