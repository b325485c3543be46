#!/usr/bin/env python3
"""Docs consistency gate (run by the CI docs job and locally).

1. Every intra-repo markdown link in README.md, ROADMAP.md, CHANGES.md and
   docs/*.md must resolve to an existing file (anchors are stripped;
   external http(s)/mailto links are ignored).
2. Every snippet embedded in docs/*.md between `<!-- BEGIN <file> -->` /
   `<!-- END <file> -->` markers must be byte-identical to examples/<file>
   (quickstart.cpp, sharded_quickstart.cpp, ...).
3. docs/CONCURRENCY.md stays in sync with the code it documents: every
   API name its "## API surface" section attributes to a header must
   literally appear in that header, and the canonical contract-C4 wording
   ("schedule-independent commit") must appear both in the doc and in the
   headers that claim it.
4. The Graph access API stays in sync: the sorted-view surface
   (NeighborView, EdgeDelta, apply_edge_deltas, ...) must appear both in
   docs/API.md and as code tokens in src/graph/graph.h, FlatCountMap must
   exist and be named by docs/DESIGN.md, and unordered_set must never
   reappear in the Graph header.
4b. The repair path stays hash-free: no unordered_map/unordered_set code
   token in the structural core, the sharded forest, the dist engine, or
   the healer service's serving loop (the PR-8 flat-container acceptance
   criterion — SlotTable, the wave-sized open-addressing dirty set, a flat
   per-id queued mark, and binary-searched DAG knowledge replaced them
   all).
   The sampled guardrails (certificate emit and check, the stabilizer
   audit) go further: no std::set, std::map or unordered container at all,
   since each one reads a whole RT in one linear pass over flat arrays.
5. The healer-service surface stays in sync: the serving-loop names
   (HealerService, ChurnOp, certify_every, ...) must appear both in
   docs/API.md and as code tokens in src/fg/healer_service.h, and
   docs/DESIGN.md must keep its "Healer service" section.
5b. The self-stabilization surface stays in sync: the audit/recovery
   names (Stabilizer, AuditReport, ViolationKind, ...) must appear both
   in docs/API.md and as code tokens in src/fg/stabilizer.h,
   docs/SELF_STABILIZATION.md must exist and name every violation-kind
   string the auditor can report, and docs/DESIGN.md must keep its
   "Self-stabilizing recovery" section.
6. The certificate subsystem keeps its independence guarantee
   (docs/CERTIFICATES.md): src/cert sources never include engine headers
   (fg/, harness/, heal/, net/, adversary/), the fgcheck link line in
   CMakeLists.txt names fg_cert only (never fg_core), the cert API names
   documented in docs/CERTIFICATES.md exist as code tokens in their
   headers, and the "fgcert 1" format version string matches between the
   doc and src/cert/certificate.h.
7. One state format: the fgsnap base image is the only serialization of
   engine state. The retired text checkpoint must not come back: no
   `FGv1` token anywhere under src/, and no save/load/try_load member in
   src/fg/core/structural_core.h or src/fg/forgiving_graph.h. The
   certificate and Trace text formats are not state and stay allowed.
8. One effect mode: a region breaks and merges only by recording its
   shared writes for the region-ordered stitch. The inline path must not
   come back: src/fg/core/structural_core.cpp never tests an `effects`
   buffer for null (`if (effects)`, `if (effects != nullptr)`,
   `effects ?`, `!effects`, `effects == nullptr`; the FG_CHECK that it is
   non-null stays allowed), and no `commit_merge` token appears under
   src/.
9. One allocation mode: every vnode a commit creates lands at a handle of
   the plan's arena reservation, in both engines. On-demand allocation
   must not come back: no `CommitAlloc`, `kOnDemand` or `join_pieces`
   token anywhere under src/, and no `make_leaf` or `make_helper` member
   (a declaration, not the reserved `make_leaf_in`/`make_helper_in`) in
   src/fg/virtual_forest.h.
10. One repair driver: ShardedForest::plan and ShardedForest::execute are
   the only drivers of the core's phase primitives, in both engines, and
   the dist engine reads its message DAG off the plan. The second driver
   must not come back: no `RepairObserver`, `commit_break`,
   `plan_deletion`, `note_commit` or `DagRecorder` token anywhere under
   src/ (comments included).
11. One heal path, one partition: the service heals each wave with one
   delete_batch and every wave splits per dirty region. The admission
   hook, the wave-wide split and ShardedForest's cached last-wave roots must
   not come back: no `RegionSplit`, `AdmissionHook`, `set_admission_hook`,
   `ChurnStream`, `VectorChurnStream`, `last_region_roots` or
   `clear_region_roots` token anywhere under src/ (comments included).

Exits non-zero with a per-problem report on any violation.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def markdown_files():
    for name in ("README.md", "ROADMAP.md", "CHANGES.md"):
        p = REPO / name
        if p.exists():
            yield p
    yield from sorted((REPO / "docs").glob("*.md"))


def check_links():
    problems = []
    for md in markdown_files():
        in_fence = False
        for lineno, line in enumerate(md.read_text().splitlines(), 1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:  # code, not markdown: [&](NodeId x) is not a link
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:")):
                    continue
                path = target.split("#", 1)[0]
                if not path:  # pure in-page anchor
                    continue
                resolved = (md.parent / path).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{md.relative_to(REPO)}:{lineno}: broken link -> {target}")
    return problems


# Snippets that must exist somewhere in docs/ (a deleted marker pair would
# otherwise silently drop the check).
REQUIRED_SNIPPETS = (
    "quickstart.cpp",
    "sharded_quickstart.cpp",
    "healer_service_quickstart.cpp",
)

SNIPPET_RE = re.compile(
    r"<!-- BEGIN (?P<name>[\w.\-]+) -->\n```cpp\n(?P<body>.*?)```\n<!-- END (?P=name) -->",
    re.S,
)


def check_snippet_sync():
    problems = []
    seen = set()
    for md in markdown_files():
        for m in SNIPPET_RE.finditer(md.read_text()):
            name = m.group("name")
            seen.add(name)
            example = REPO / "examples" / name
            if not example.exists():
                problems.append(
                    f"{md.relative_to(REPO)}: snippet marker {name} has no examples/{name}")
                continue
            if m.group("body") != example.read_text():
                problems.append(
                    f"{md.relative_to(REPO)}: embedded {name} snippet differs from "
                    f"examples/{name} — copy the file verbatim between the markers")
    for name in REQUIRED_SNIPPETS:
        if name not in seen:
            problems.append(f"docs: required snippet markers for {name} missing")
    return problems


# The canonical C4 phrase: the concurrency doc pins it, and the headers
# that promise it must keep using the same words (a silent rewording in
# either place is drift).
C4_PHRASE = "schedule-independent commit"
C4_FILES = (
    "docs/CONCURRENCY.md",
    "src/fg/sharded_forest.h",
    "src/fg/core/structural_core.h",
)

# "- `src/...h` — `name`, `name`, ..." bullets of the API surface section.
API_ENTRY_RE = re.compile(r"- `(?P<header>src/[^`]+)` — (?P<names>.*?)(?=\n- |\n\n|\Z)", re.S)
API_NAME_RE = re.compile(r"`([^`]+)`")

COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/", re.S)


def header_code(path):
    """Header text with comments stripped: an API name must survive as a
    code token, not merely appear in prose (otherwise short names like
    `commit` could never fail the check)."""
    return COMMENT_RE.sub("", path.read_text())


def check_concurrency_sync():
    doc = REPO / "docs" / "CONCURRENCY.md"
    if not doc.exists():
        return ["docs/CONCURRENCY.md: missing (the concurrency model doc is required)"]
    problems = []
    text = doc.read_text()

    for rel in C4_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but docs/CONCURRENCY.md documents it")
        elif C4_PHRASE not in path.read_text():
            problems.append(
                f"{rel}: C4 wording drifted — must contain the canonical phrase "
                f"\"{C4_PHRASE}\" (docs/CONCURRENCY.md pins it)")

    marker = "## API surface"
    if marker not in text:
        return problems + [
            "docs/CONCURRENCY.md: missing the '## API surface' section the sync check reads"]
    section = text.split(marker, 1)[1]
    entries = API_ENTRY_RE.findall(section)
    if not entries:
        problems.append("docs/CONCURRENCY.md: API surface section lists no headers")
    for header, names in entries:
        path = REPO / header
        if not path.exists():
            problems.append(f"docs/CONCURRENCY.md: API surface names missing header {header}")
            continue
        code = header_code(path)
        for name in API_NAME_RE.findall(names):
            if not re.search(r"\b" + re.escape(name) + r"\b", code):
                problems.append(
                    f"docs/CONCURRENCY.md: `{name}` is attributed to {header} "
                    "but does not appear in its code — update the doc or the header")
    return problems


# The Graph access API gate: the sorted-view surface documented in
# docs/API.md and docs/DESIGN.md must exist as code tokens in its header,
# and the redesign's acceptance criterion — no unordered_set anywhere in
# the Graph public API — is pinned here so it cannot silently regress.
GRAPH_API_NAMES = (
    "NeighborView",
    "EdgeDelta",
    "apply_edge_deltas",
    "for_each_neighbor",
    "neighbors",
)
GRAPH_HEADER = "src/graph/graph.h"
FLAT_MAP_HEADER = "src/util/flat_count_map.h"

# The hash-free repair path (PR 8): these files must never regrow an
# unordered container — the hot paths run on SlotTable, a sorted victim
# set, the wave-sized open-addressing dirty set, and binary-searched DAG
# knowledge instead; the serving loop marks queued victims in a flat
# per-id array.
FLAT_ONLY_FILES = (
    "src/fg/core/structural_core.h",
    "src/fg/core/structural_core.cpp",
    "src/fg/core/slot_table.h",
    "src/fg/sharded_forest.h",
    "src/fg/sharded_forest.cpp",
    "src/fg/dist/dist_forgiving_graph.h",
    "src/fg/dist/dist_forgiving_graph.cpp",
    "src/fg/healer_service.h",
    "src/fg/healer_service.cpp",
)


# The linear-time guardrails: each sampled certificate emit/check and each
# audit reads a whole reconstruction tree, so these files keep to sorted
# flat vectors — no node-based or hashed container, ordered or not.
GUARDRAIL_FLAT_FILES = (
    "src/harness/certificate.h",
    "src/harness/certificate.cpp",
    "src/cert/certificate.cpp",
    "src/fg/stabilizer.cpp",
)
TREE_OR_HASH_RE = re.compile(
    r"\bstd::(?:multi)?(?:set|map)\b|\bunordered_(?:multi)?(?:map|set)\b")


def check_graph_api_sync():
    problems = []
    header = REPO / GRAPH_HEADER
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{GRAPH_HEADER}: missing, but the docs document its API"]
    code = header_code(header)
    for name in GRAPH_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{GRAPH_HEADER}: documented Graph API name `{name}` does not "
                "appear in its code — update docs/API.md or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: Graph API name `{name}` is undocumented — the "
                "Graph section must cover the full access surface")
    if re.search(r"\bunordered_set\b", code):
        problems.append(
            f"{GRAPH_HEADER}: unordered_set crept back into the Graph API — "
            "neighbors() must stay a sorted flat view (docs/DESIGN.md, "
            "'Graph substrate')")
    for rel in FLAT_ONLY_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but the flat-container ban covers it")
            continue
        if re.search(r"\bunordered_(?:map|set)\b", header_code(path)):
            problems.append(
                f"{rel}: unordered_map/unordered_set crept back into the "
                "repair path — the core, the sharded forest, the dist "
                "engine and the serving loop are flat only (SlotTable, the "
                "open-addressing dirty set; docs/DESIGN.md, "
                "docs/CONCURRENCY.md)")
    for rel in GUARDRAIL_FLAT_FILES:
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but the guardrail container ban covers it")
            continue
        token = TREE_OR_HASH_RE.search(header_code(path))
        if token:
            problems.append(
                f"{rel}: `{token.group(0)}` crept into a guardrail — "
                "certificate emit/check and the audit stay linear over "
                "sorted flat vectors (docs/CERTIFICATES.md, "
                "docs/SELF_STABILIZATION.md)")
    flat_map = REPO / FLAT_MAP_HEADER
    if not flat_map.exists():
        problems.append(
            f"{FLAT_MAP_HEADER}: missing, but docs/DESIGN.md documents the "
            "flat multiplicity map")
    elif not re.search(r"\bFlatCountMap\b", header_code(flat_map)):
        problems.append(f"{FLAT_MAP_HEADER}: FlatCountMap not found in its code")
    if "FlatCountMap" not in design_md:
        problems.append(
            "docs/DESIGN.md: the substrate section must name FlatCountMap "
            "(the image-multiplicity representation)")
    return problems


# The healer-service gate: the serving-loop surface documented in
# docs/API.md and docs/DESIGN.md must exist as code tokens in its header,
# and both docs must actually carry their sections (a deleted heading
# would silently orphan the quickstart and the API table).
HEALER_HEADER = "src/fg/healer_service.h"
HEALER_API_NAMES = (
    "HealerService",
    "HealerConfig",
    "HealerStats",
    "ChurnOp",
    "wave_size",
    "certify_every",
    "push",
    "flush",
    "set_alert",
    "set_certificate_stream",
    "break_workers",
    "stale_replans",
    "rejected_inserts",
    "cert_rejections",
    "latency_percentile",
    "audit_every",
    "audits",
    "audit_violations",
    "recoveries",
)


def check_healer_service_sync():
    problems = []
    header = REPO / HEALER_HEADER
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{HEALER_HEADER}: missing, but the docs document its API"]
    code = header_code(header)
    for name in HEALER_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{HEALER_HEADER}: documented healer-service API name `{name}` "
                "does not appear in its code — update docs/API.md or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: healer-service API name `{name}` is "
                "undocumented — the HealerService section must cover the "
                "full serving-loop surface")
    if "## Healer service" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Healer service' section "
            "(one delete_batch per wave, sampled certificate and audit "
            "guardrails, snapshot upkeep)")
    if "fg/healer_service.h" not in api_md:
        problems.append(
            "docs/API.md: the HealerService section must name its header "
            "(fg/healer_service.h)")
    return problems


# The self-stabilization gate: the audit/recovery surface documented in
# docs/API.md must exist as code tokens in src/fg/stabilizer.h, the
# dedicated doc must exist and cover every violation-kind string the
# auditor can report (its rules table mirrors the ViolationKind enum),
# and docs/DESIGN.md must keep its recovery section.
STABILIZER_HEADER = "src/fg/stabilizer.h"
STABILIZER_API_NAMES = (
    "Stabilizer",
    "AuditReport",
    "AuditViolation",
    "ViolationKind",
    "RecoveryStats",
    "violation_kind_name",
    "audit",
    "stabilize",
    "clean",
    "summary",
)
VIOLATION_KIND_NAMES = (
    "row-link", "row-aggregate", "row-ownership", "row-slot-backing",
    "rep-invariant", "helper-ancestry", "slot-ghost", "slot-edge",
    "missing-anchor", "split-dead-cluster", "image-drift",
    "multiplicity-drift",
)


def check_stabilizer_sync():
    problems = []
    header = REPO / STABILIZER_HEADER
    doc = REPO / "docs" / "SELF_STABILIZATION.md"
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()
    if not header.exists():
        return [f"{STABILIZER_HEADER}: missing, but the docs document its API"]
    if not doc.exists():
        return ["docs/SELF_STABILIZATION.md: missing (the recovery-mode doc "
                "is required)"]
    code = header_code(header)
    for name in STABILIZER_API_NAMES:
        if not re.search(r"\b" + re.escape(name) + r"\b", code):
            problems.append(
                f"{STABILIZER_HEADER}: documented stabilizer API name "
                f"`{name}` does not appear in its code — update docs/API.md "
                "or the header")
        if name not in api_md:
            problems.append(
                f"docs/API.md: stabilizer API name `{name}` is undocumented "
                "— the Stabilizer section must cover the audit/recovery "
                "surface")
    doc_text = doc.read_text()
    stabilizer_cpp = (REPO / "src" / "fg" / "stabilizer.cpp").read_text()
    for kind in VIOLATION_KIND_NAMES:
        if f'"{kind}"' not in stabilizer_cpp:
            problems.append(
                f"src/fg/stabilizer.cpp: violation kind string \"{kind}\" "
                "not found — the doc's rules table and the enum drifted")
        if f"`{kind}`" not in doc_text:
            problems.append(
                f"docs/SELF_STABILIZATION.md: violation kind `{kind}` is "
                "undocumented — the auditor rules table must mirror "
                "ViolationKind")
    if "## Self-stabilizing recovery" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Self-stabilizing recovery' section "
            "(audit rules, quarantine closure, pipeline-reusing recovery)")
    if "audit_every" not in doc_text:
        problems.append(
            "docs/SELF_STABILIZATION.md: must describe the serving-loop "
            "wiring (HealerConfig::audit_every)")
    return problems


# The snapshot-subsystem gate (docs/SNAPSHOTS.md): the doc must exist, its
# "## API surface" names must be code tokens in the headers they are
# attributed to, the key producer/consumer names must be documented in
# docs/API.md, the "fgsnap 1" format version string must match between the
# doc and src/snap/snapshot.h, the fgsnap link line must name fg_snap and
# never an engine library (the independence argument, mirroring fgcheck),
# and docs/DESIGN.md must keep its "Durable snapshots" section.
SNAP_VERSION = "fgsnap 1"
SNAP_API_MD_NAMES = (
    "SnapshotWriter",
    "SnapshotRecorder",
    "restore_snapshot",
    "SnapshotRestore",
    "snapshot_every",
    "snapshot_path",
    "to_base_image",
    "from_base_image",
    "apply_wave_delta",
)


def check_snapshot_sync():
    doc = REPO / "docs" / "SNAPSHOTS.md"
    if not doc.exists():
        return ["docs/SNAPSHOTS.md: missing (the snapshot-format doc is required)"]
    problems = []
    doc_text = doc.read_text()
    api_md = (REPO / "docs" / "API.md").read_text()
    design_md = (REPO / "docs" / "DESIGN.md").read_text()

    marker = "## API surface"
    if marker not in doc_text:
        problems.append(
            "docs/SNAPSHOTS.md: missing the '## API surface' section the sync "
            "check reads")
    else:
        section = doc_text.split(marker, 1)[1]
        entries = API_ENTRY_RE.findall(section)
        if not entries:
            problems.append("docs/SNAPSHOTS.md: API surface section lists no headers")
        for header, names in entries:
            path = REPO / header
            if not path.exists():
                problems.append(
                    f"docs/SNAPSHOTS.md: API surface names missing header {header}")
                continue
            code = header_code(path)
            for name in API_NAME_RE.findall(names):
                if not re.search(r"\b" + re.escape(name) + r"\b", code):
                    problems.append(
                        f"docs/SNAPSHOTS.md: `{name}` is attributed to {header} "
                        "but does not appear in its code — update the doc or "
                        "the header")

    for name in SNAP_API_MD_NAMES:
        if name not in api_md:
            problems.append(
                f"docs/API.md: snapshot API name `{name}` is undocumented — "
                "the durable-snapshot section must cover the producer and "
                "restore surface")

    snap_header = (REPO / "src" / "snap" / "snapshot.h").read_text()
    if f'"{SNAP_VERSION}' not in snap_header:
        problems.append(
            f"src/snap/snapshot.h: format magic \"{SNAP_VERSION}\" not found "
            "— bumping the version means updating this gate and "
            "docs/SNAPSHOTS.md together")
    if f"`{SNAP_VERSION}`" not in doc_text:
        problems.append(
            f"docs/SNAPSHOTS.md: must name the current format version "
            f"(`{SNAP_VERSION}`) — the grammar section is versioned")

    cmake = (REPO / "CMakeLists.txt").read_text()
    link = re.search(r"target_link_libraries\(fgsnap\b([^)]*)\)", cmake)
    if link is None:
        problems.append("CMakeLists.txt: no fgsnap link line found")
    elif (re.search(r"\bfg_core\b", link.group(1)) or
          re.search(r"\bfg_graph\b", link.group(1)) or
          "fg_snap" not in link.group(1)):
        problems.append(
            "CMakeLists.txt: fgsnap must link fg_snap and never an engine "
            "library — a verifier with engine code linked in defeats the "
            "audit (docs/SNAPSHOTS.md)")

    if "## Durable snapshots" not in design_md:
        problems.append(
            "docs/DESIGN.md: missing the 'Durable snapshots' section (base "
            "images, delta log, crash-consistency rules, restore-audit flow)")
    return problems


# The certificate independence gate. The whole value of tools/fgcheck is
# that it cannot share a defect with the engines it audits; that property
# lives in two places the compiler does not enforce: the src/cert include
# list and the fgcheck link line. Both are pinned here, along with the
# doc/code sync for the cert API surface and the format version string.
CERT_VERSION = "fgcert 1"
CERT_FORBIDDEN_INCLUDE_RE = re.compile(
    r'#include\s+"(?:fg|harness|heal|net|adversary)/')
CERT_API_NAMES = {
    "src/cert/certificate.h": (
        "WaveCertificate", "RegionCert", "RtNode", "DegreeClaim",
        "StretchWitness", "EdgeFact", "CostClaim", "CheckResult",
        "StreamResult", "malformed", "check_stream", "structural_text",
        "kDegreeConstant",
    ),
    "src/harness/certificate.h": (
        "CertificateSink", "CertificateWriter", "CertificateCollector",
    ),
}


def check_certificate_independence():
    doc = REPO / "docs" / "CERTIFICATES.md"
    if not doc.exists():
        return ["docs/CERTIFICATES.md: missing (the certificate doc is required)"]
    problems = []
    doc_text = doc.read_text()

    for src in sorted((REPO / "src" / "cert").glob("*.*")):
        for lineno, line in enumerate(src.read_text().splitlines(), 1):
            if CERT_FORBIDDEN_INCLUDE_RE.search(line):
                problems.append(
                    f"{src.relative_to(REPO)}:{lineno}: engine include in the "
                    "certificate checker — src/cert must stay independent of "
                    "the code it audits (docs/CERTIFICATES.md)")

    cmake = (REPO / "CMakeLists.txt").read_text()
    link = re.search(r"target_link_libraries\(fgcheck\b([^)]*)\)", cmake)
    if link is None:
        problems.append("CMakeLists.txt: no fgcheck link line found")
    elif re.search(r"\bfg_core\b", link.group(1)) or "fg_cert" not in link.group(1):
        problems.append(
            "CMakeLists.txt: fgcheck must link fg_cert and never fg_core — "
            "an fgcheck with engine code linked in defeats the audit "
            "(docs/CERTIFICATES.md)")

    for rel, names in CERT_API_NAMES.items():
        path = REPO / rel
        if not path.exists():
            problems.append(f"{rel}: missing, but docs/CERTIFICATES.md documents it")
            continue
        code = header_code(path)
        for name in names:
            if not re.search(r"\b" + re.escape(name) + r"\b", code):
                problems.append(
                    f"{rel}: documented certificate API name `{name}` does "
                    "not appear in its code — update docs/CERTIFICATES.md or "
                    "the header")
            if name not in doc_text:
                problems.append(
                    f"docs/CERTIFICATES.md: certificate API name `{name}` is "
                    "undocumented — the doc must cover the full surface")

    cert_header = (REPO / "src" / "cert" / "certificate.h").read_text()
    if f'"{CERT_VERSION}"' not in cert_header:
        problems.append(
            f"src/cert/certificate.h: format version string \"{CERT_VERSION}\" "
            "not found — bumping the version means updating this gate and "
            "docs/CERTIFICATES.md together")
    if f"`{CERT_VERSION}`" not in doc_text:
        problems.append(
            f"docs/CERTIFICATES.md: must name the current format version "
            f"(`{CERT_VERSION}`) — the grammar section is versioned")
    return problems


# The one-state-format gate (rule 7). A declaration or definition of a
# text serializer is a save/load/try_load name followed by "(" that is not
# a member call on some other object (x.load(...), p->save(...)).
TEXT_STATE_TOKEN = "FGv1"
STATE_HEADERS = ("src/fg/core/structural_core.h", "src/fg/forgiving_graph.h")
TEXT_STATE_MEMBER_RE = re.compile(r"(?<![\w.>])(save|load|try_load)\s*\(")


def check_single_state_format():
    problems = []
    for src in sorted((REPO / "src").rglob("*")):
        if src.is_file() and TEXT_STATE_TOKEN in src.read_text():
            problems.append(
                f"{src.relative_to(REPO)}: contains the retired "
                f"{TEXT_STATE_TOKEN} text-checkpoint token — the fgsnap base "
                "image is the only state format (docs/SNAPSHOTS.md)")
    for rel in STATE_HEADERS:
        for m in TEXT_STATE_MEMBER_RE.finditer(header_code(REPO / rel)):
            problems.append(
                f"{rel}: declares `{m.group(1)}` — engine state serializes "
                "only through to_base_image / from_base_image "
                "(docs/SNAPSHOTS.md)")
    return problems


# The one-effect-mode gate (rule 8). break_region and merge_region take a
# required effects buffer; a null test on it is the switch the deleted
# inline path hung off, and commit_merge was that path's merge entry point.
EFFECT_MODE_FILE = "src/fg/core/structural_core.cpp"
NULL_EFFECTS_RE = re.compile(
    r"\bif\s*\(\s*effects\s*(?:!=\s*nullptr\s*)?(?:\)|&&|\|\|)"
    r"|\beffects\s*(?:!=\s*nullptr\s*)?\?"
    r"|!\s*effects\b"
    r"|\beffects\s*==\s*nullptr\b|\bnullptr\s*==\s*effects\b")
INLINE_MERGE_RE = re.compile(r"\bcommit_merge\b")


def check_single_effect_mode():
    problems = []
    code = header_code(REPO / EFFECT_MODE_FILE)
    for m in NULL_EFFECTS_RE.finditer(code):
        line = code.count("\n", 0, m.start()) + 1
        problems.append(
            f"{EFFECT_MODE_FILE}:{line}: `{m.group(0)}` tests an effects buffer "
            "for null — break_region and merge_region always record, and the "
            "stitches apply (docs/CONCURRENCY.md)")
    for src in sorted((REPO / "src").rglob("*")):
        if src.is_file() and INLINE_MERGE_RE.search(src.read_text()):
            problems.append(
                f"{src.relative_to(REPO)}: names `commit_merge` — a region "
                "merges only through merge_region + apply_merge_effects "
                "(docs/CONCURRENCY.md)")
    return problems


# The one-allocation-mode gate (rule 9). CommitAlloc chose between the
# reserved and the on-demand path, kOnDemand was the on-demand choice, and
# join_pieces was its merge; make_leaf / make_helper appended to the arena.
ON_DEMAND_RE = re.compile(r"\b(CommitAlloc|kOnDemand|join_pieces)\b")
FOREST_HEADER = "src/fg/virtual_forest.h"
ON_DEMAND_MEMBER_RE = re.compile(r"(?<![\w.>])(make_leaf|make_helper)\s*\(")


def check_single_allocation_mode():
    problems = []
    for src in sorted((REPO / "src").rglob("*")):
        if not src.is_file():
            continue
        for token in sorted(set(ON_DEMAND_RE.findall(src.read_text()))):
            problems.append(
                f"{src.relative_to(REPO)}: names `{token}` — every commit "
                "allocates from the plan's arena reservation and merges "
                "through merge_region (docs/CONCURRENCY.md)")
    for m in ON_DEMAND_MEMBER_RE.finditer(header_code(REPO / FOREST_HEADER)):
        problems.append(
            f"{FOREST_HEADER}: declares `{m.group(1)}` — vnodes are constructed "
            "only into reserved handles (reserve_range + make_leaf_in / "
            "make_helper_in)")
    return problems


# The one-repair-driver gate (rule 10). commit_break was the sequential
# break that took a RepairObserver, DagRecorder was the dist engine's
# observer, plan_deletion the sequential planner, and note_commit the
# bookkeeping half of the merge-only ShardedForest::commit.
SECOND_DRIVER_RE = re.compile(
    r"\b(RepairObserver|commit_break|plan_deletion|note_commit|DagRecorder)\b")


def check_single_repair_driver():
    problems = []
    for src in sorted((REPO / "src").rglob("*")):
        if not src.is_file():
            continue
        for token in sorted(set(SECOND_DRIVER_RE.findall(src.read_text()))):
            problems.append(
                f"{src.relative_to(REPO)}: names `{token}` — both engines plan "
                "and commit through ShardedForest::plan / execute, and the dist "
                "engine reads its message DAG off the plan (docs/CONCURRENCY.md)")
    return problems


# The one-heal-path, one-partition gate (rule 11). AdmissionHook was the
# test seam the epoch gate re-planned after, (Vector)ChurnStream the pull
# source of the deleted HealerService::run, RegionSplit the wave-wide merge
# switch, and last_region_roots / clear_region_roots ShardedForest's cached
# copy of the roots its execute returns.
SECOND_HEAL_PATH_RE = re.compile(
    r"\b(RegionSplit|AdmissionHook|set_admission_hook|ChurnStream|VectorChurnStream|"
    r"last_region_roots|clear_region_roots)\b")


def check_single_heal_path():
    problems = []
    for src in sorted((REPO / "src").rglob("*")):
        if not src.is_file():
            continue
        for token in sorted(set(SECOND_HEAL_PATH_RE.findall(src.read_text()))):
            problems.append(
                f"{src.relative_to(REPO)}: names `{token}` — the service heals "
                "each wave with one delete_batch, every wave splits per dirty "
                "region, and ShardedForest::execute returns the roots "
                "(docs/DESIGN.md, \"Healer service\")")
    return problems


def main():
    problems = (check_links() + check_snippet_sync() + check_concurrency_sync() +
                check_graph_api_sync() + check_healer_service_sync() +
                check_stabilizer_sync() + check_snapshot_sync() +
                check_certificate_independence() + check_single_state_format() +
                check_single_effect_mode() + check_single_allocation_mode() +
                check_single_repair_driver())
    problems += check_single_heal_path()
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        sys.exit(1)
    print(f"docs OK: {sum(1 for _ in markdown_files())} markdown files, "
          "links resolve, example snippets in sync, CONCURRENCY.md API names "
          "and C4 wording match the headers, Graph view API in sync (no "
          "unordered_set in the surface, guardrails free of tree/hash "
          "containers), healer-service API in sync, "
          "stabilizer API and violation kinds in sync, snapshot format/API "
          "in sync (fgsnap link line engine-free), certificate checker "
          "independent (includes + fgcheck link line) and its API/version "
          "in sync, one state format (no text checkpoint in src/), one "
          "effect mode (no null-effects branch in the core, no commit_merge), "
          "one allocation mode (no on-demand path in src/), one repair "
          "driver (no second planner, committer or break callback in src/)")
    print("docs OK: one heal path and one partition (no admission hook, "
          "wave-wide split or cached last-wave roots in src/)")


if __name__ == "__main__":
    main()
