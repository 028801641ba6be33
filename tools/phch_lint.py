#!/usr/bin/env python3
"""phch_lint: project-specific static checks for the phase-concurrent tables.

The lint closes the gaps that -Wthread-safety and clang-tidy do not cover,
because they are *project policy*, not C++ rules:

  phase-annotation-missing  every public operation of a phase-concurrent
                            table must carry PHCH_REQUIRES_PHASE(...) (or an
                            explicit PHCH_NO_TSA opt-out), so new tables
                            cannot silently skip the static phase contract.
  phase-scope-missing       every public table operation must open a phase
                            or batch scope (Phase::scope guard, a
                            batch_*_scope window, a reclaim::op_guard pin,
                            or a delegation to an operation that does).
  atomic-implicit-order     no atomic access may rely on the implicit
                            seq_cst default: every load/store/RMW spells
                            its std::memory_order explicitly, and every
                            inline-asm atomic declares its order with a
                            `phch_lint: order(...)` directive.
  atomic-contract-missing   every atomic access site must have a row in
                            tools/atomics_contract.tsv (file, symbol,
                            allowed orders, why). A new seq_cst — or any
                            new atomic — shows up as a contract diff that
                            review has to see.
  atomic-contract-order     an access uses a memory_order outside the
                            contract row's allowed set (e.g. somebody
                            silently relaxed an acquire).
  contract-stale            a contract row no longer matches any access in
                            the scanned tree (the code moved or died; the
                            contract must follow).
  simd-include              vendor intrinsic headers (<immintrin.h>,
                            <arm_neon.h>, ...) may appear only in their
                            dedicated home, utils/arch.h. Everyone else
                            goes through its portable wrappers.
  telemetry-off-noop        the PHCH_TELEMETRY_ENABLED=0 branch of
                            obs/telemetry.h must contain only empty/trivial
                            inline bodies — the compiled-out build must not
                            grow real code.
  pragma-once-missing       every scanned header starts with #pragma once.

Backends: the default backend is a pure-Python lexer (no dependencies, runs
anywhere). When the libclang Python bindings are importable,
`--backend clang` sharpens the atomic census by asking the AST for
std::atomic member declarations; everything else is identical. The CI job
runs whichever backend the runner supports — findings are the same format.

Directives (in source comments):
  // phch_lint: allow(check-name)   suppress that check on this line (or,
                                    on a line of its own, the next line).
                                    Suppressions are counted and printed;
                                    --max-suppressions N (default: no
                                    limit) fails the run when exceeded —
                                    CI pins it to 0 for src/phch.
  // phch_lint: table-header        treat this file as a table header for
                                    the phase checks even without
                                    PHCH_PHASE_CAPABILITIES() (used by the
                                    lint fixtures).
  // phch_lint: not-a-table         opposite: skip the phase checks for
                                    this file (auto_phased_table mixes
                                    phases by design).
  // phch_lint: order(o[,o...])     the memory order(s) an inline-asm
                                    atomic implements (asm has no
                                    memory_order argument), on the asm's
                                    line or the comment lines above it.

Atomic sites the census covers: std::atomic member calls and operator
forms, the __atomic_* builtins, the __sync_* builtins (fixed orders: full
barrier, except __sync_lock_test_and_set = acquire and __sync_lock_release
= release), atomic_thread_fence, and inline asm whose template contains an
atomic or fencing instruction (symbol `asm:` + its mnemonics, e.g.
`asm:lock+cmpxchg16b`).

Modes:
  phch_lint.py [paths...]              lint (default paths: src/phch)
  phch_lint.py --emit-contract [...]   print a TSV census of every atomic
                                       access, merging `why` text from an
                                       existing contract — the way
                                       tools/atomics_contract.tsv is
                                       (re)drafted after intentional edits.
  phch_lint.py --json FILE             also write findings as JSON (the CI
                                       artifact).

Exit status: 0 = clean, 1 = findings (or suppression budget exceeded),
2 = usage / IO error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# --------------------------------------------------------------------------
# Finding model
# --------------------------------------------------------------------------

ALL_CHECKS = (
    "phase-annotation-missing",
    "phase-scope-missing",
    "atomic-implicit-order",
    "atomic-contract-missing",
    "atomic-contract-order",
    "contract-stale",
    "simd-include",
    "telemetry-off-noop",
    "pragma-once-missing",
)


@dataclass
class Finding:
    check: str
    file: str
    line: int
    message: str
    symbol: str = ""

    def to_json(self):
        d = {"check": self.check, "file": self.file, "line": self.line,
             "message": self.message}
        if self.symbol:
            d["symbol"] = self.symbol
        return d


@dataclass
class SourceFile:
    path: str        # repo-relative, forward slashes
    raw: str         # original text
    code: str        # comments and string/char literals blanked (same length)
    lines: list = field(default_factory=list)       # raw split
    code_lines: list = field(default_factory=list)  # code split


# --------------------------------------------------------------------------
# Lexing helpers
# --------------------------------------------------------------------------

def blank_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literal *contents* with spaces,
    preserving length and newlines so byte offsets and line numbers hold."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c == '"' or c == "'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 1
        else:
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def match_balanced(text: str, open_idx: int, open_ch: str, close_ch: str) -> int:
    """Index just past the matching close bracket, or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def split_top_level_commas(s: str) -> list:
    parts, depth, cur = [], 0, []
    for c in s:
        if c in "(<[{":
            depth += 1
        elif c in ")>]}":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(c)
    if cur:
        parts.append("".join(cur))
    return parts


# --------------------------------------------------------------------------
# Suppression directives
# --------------------------------------------------------------------------

ALLOW_RE = re.compile(r"//\s*phch_lint:\s*allow\(([a-z\-]+)\)")


class Suppressions:
    def __init__(self):
        self.by_file = {}   # path -> {(line, check)}
        self.used = []      # (path, line, check)

    def scan(self, sf: SourceFile):
        allowed = set()
        for idx, line in enumerate(sf.lines, start=1):
            for m in ALLOW_RE.finditer(line):
                check = m.group(1)
                # A directive on its own line covers the next line; inline
                # covers its own.
                target = idx + 1 if line.strip().startswith("//") else idx
                allowed.add((target, check))
        self.by_file[sf.path] = allowed

    def filter(self, findings: list) -> list:
        kept = []
        for f in findings:
            if (f.line, f.check) in self.by_file.get(f.file, set()):
                self.used.append((f.file, f.line, f.check))
            else:
                kept.append(f)
        return kept


# --------------------------------------------------------------------------
# Atomic census (which names are std::atomic?)
# --------------------------------------------------------------------------

# std::atomic<...> name  |  std::atomic_bool name  |  containers of atomics
ATOMIC_DECL_RE = re.compile(
    r"\b(?:std\s*::\s*)?atomic(?:_(?:bool|int|uint|long|llong|char|schar|"
    r"uchar|short|ushort|ulong|ullong|size_t|ptrdiff_t|intptr_t|uintptr_t|"
    r"int8_t|uint8_t|int16_t|uint16_t|int32_t|uint32_t|int64_t|uint64_t))?"
    r"\s*(<)?")

IDENT_RE = re.compile(r"[A-Za-z_]\w*")

# A crude non-atomic declaration matcher, used only to mark names as
# *ambiguous* (so operator-form checks skip them — safe direction).
PLAIN_DECL_RE = re.compile(
    r"^\s*(?:static\s+|constexpr\s+|inline\s+|mutable\s+)*"
    r"(?:std\s*::\s*)?(?:uint\d+_t|int\d+_t|size_t|uint64_t|int|bool|char|"
    r"long|short|float|double|unsigned|ptrdiff_t)\b[^=;(){}]*?"
    r"\b([A-Za-z_]\w*)\s*(?:=[^=]|;|\{)")


def census_atomics(files: list) -> tuple:
    """Return (atomic_names, ambiguous_names) across the whole scan set.

    The census is global on purpose: scheduler.cpp manipulates atomics
    declared in scheduler.h, so per-file censuses would miss cross-file
    member accesses."""
    atomic_names, plain_names = set(), set()
    for sf in files:
        for m in ATOMIC_DECL_RE.finditer(sf.code):
            end = m.end()
            if m.group(1):  # templated: skip the <...> argument list
                close = match_balanced(sf.code, m.start(1), "<", ">")
                if close < 0:
                    continue
                end = close
            tail = sf.code[end:end + 160]
            im = IDENT_RE.match(tail.lstrip())
            if im:
                atomic_names.add(im.group(0))
        # Containers of atomics: vector<atomic<...>> v; / array<atomic,N> a;
        for m in re.finditer(r"\b(?:std\s*::\s*)?(?:vector|array)\s*<", sf.code):
            close = match_balanced(sf.code, m.end() - 1, "<", ">")
            if close < 0:
                continue
            if "atomic" not in sf.code[m.end():close]:
                continue
            im = IDENT_RE.match(sf.code[close:].lstrip())
            if im:
                atomic_names.add(im.group(0))
        for line in sf.code_lines:
            pm = PLAIN_DECL_RE.match(line)
            if pm:
                plain_names.add(pm.group(1))
    return atomic_names, atomic_names & plain_names


def census_atomics_clang(paths: list, include_dir: str):
    """libclang-backed census: exact std::atomic member/variable names.
    Returns a name set, or None when the bindings or library are absent."""
    try:
        from clang import cindex  # type: ignore
        index = cindex.Index.create()
    except Exception:
        return None
    names = set()
    for p in paths:
        try:
            tu = index.parse(p, args=["-std=c++20", "-x", "c++",
                                      f"-I{include_dir}"])
        except Exception:
            return None
        for cur in tu.cursor.walk_preorder():
            if cur.kind in (cindex.CursorKind.FIELD_DECL,
                            cindex.CursorKind.VAR_DECL):
                t = cur.type.get_canonical().spelling
                if "atomic<" in t or t.startswith("std::atomic"):
                    names.add(cur.spelling)
    return names


# --------------------------------------------------------------------------
# Atomic access extraction
# --------------------------------------------------------------------------

# Methods that only std::atomic (or atomic_flag) has. `clear` and
# `notify_one/all` are deliberately absent: containers and condition
# variables collide with them.
ATOMIC_METHODS = (
    "load", "store", "exchange", "compare_exchange_weak",
    "compare_exchange_strong", "fetch_add", "fetch_sub", "fetch_and",
    "fetch_or", "fetch_xor", "test_and_set", "wait",
)

METHOD_CALL_RE = re.compile(
    r"(?:\.|->)\s*(" + "|".join(ATOMIC_METHODS) + r")\s*\(")

ORDER_RE = re.compile(r"\bmemory_order(?:::|_)(\w+)")
BUILTIN_RE = re.compile(r"\b(__atomic_\w+)\s*\(")
BUILTIN_ORDER_RE = re.compile(r"\b__ATOMIC_(\w+)\b")
SYNC_RE = re.compile(r"\b(__sync_\w+)\s*\(")
# The __sync builtins take no order argument; their ordering is fixed.
SYNC_ORDERS = {"__sync_lock_test_and_set": "acquire",
               "__sync_lock_release": "release"}
ASM_RE = re.compile(r"\b(?:asm|__asm__|__asm)\b\s*"
                    r"(?:(?:volatile|__volatile__|inline|goto)\s*)*\(")
STRING_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')
# Instructions that make an asm statement an atomic access or a fence:
# x86 locked/implicitly-locked RMWs, fences, and the 16-byte aligned moves
# that AVX processors perform atomically; AArch64 exclusives, acquire/
# release accesses, LSE atomics and barriers.
ASM_ATOMIC_MNEMONICS = frozenset((
    "lock", "xchg", "cmpxchg", "cmpxchg8b", "cmpxchg16b", "xadd",
    "mfence", "lfence", "sfence",
    "movdqa", "vmovdqa", "movaps", "vmovaps", "movapd", "vmovapd",
    "ldxr", "stxr", "ldaxr", "stlxr", "ldxp", "stxp", "ldaxp", "stlxp",
    "ldar", "stlr", "cas", "casal", "casp", "caspal", "swp", "swpal",
    "ldadd", "ldaddal", "dmb", "dsb",
))
ASM_MNEMONIC_RE = re.compile(r"(?:^|[;\n]|\\n|\\t)\s*([a-z][a-z0-9]*)",
                             re.IGNORECASE)
ASM_ORDER_RE = re.compile(r"//\s*phch_lint:\s*order\(([a-z_,\s]+)\)")
FENCE_RE = re.compile(r"\batomic_thread_fence\s*\(")
OP_RW_RE = re.compile(r"(\+\+|--|\+=|-=|\|=|&=|\^=)")


@dataclass
class AtomicAccess:
    file: str
    line: int
    symbol: str     # receiver member name, builtin name, "asm:<ops>", "fence"
    orders: list    # memory_order names at the site ([] = implicit)
    kind: str       # "method" | "operator" | "builtin" | "sync-builtin" |
                    # "asm" | "fence"


def receiver_of(code: str, call_idx: int) -> str:
    """Walk left from `.method(` over a member chain and return the terminal
    identifier: `R.slots[i].pending.load` -> pending, `waiters_[r].fetch_add`
    -> waiters_, `cur()->x.load` -> x."""
    i = call_idx - 1
    while i >= 0 and code[i].isspace():
        i -= 1
    if i >= 0 and code[i] == "]":  # strip one or more index expressions
        while i >= 0 and code[i] == "]":
            depth = 0
            while i >= 0:
                if code[i] == "]":
                    depth += 1
                elif code[i] == "[":
                    depth -= 1
                    if depth == 0:
                        i -= 1
                        break
                i -= 1
            while i >= 0 and code[i].isspace():
                i -= 1
    end = i + 1
    while i >= 0 and (code[i].isalnum() or code[i] == "_"):
        i -= 1
    return code[i + 1:end]


def extract_accesses(sf: SourceFile, atomic_names: set,
                     ambiguous: set) -> list:
    accesses = []
    code = sf.code
    for m in METHOD_CALL_RE.finditer(code):
        recv = receiver_of(code, m.start())
        if recv not in atomic_names:
            continue
        close = match_balanced(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        args = code[m.end():close - 1]
        orders = [o for o in ORDER_RE.findall(args)]
        accesses.append(AtomicAccess(sf.path, line_of(code, m.start()),
                                     recv, orders, "method"))
    for m in BUILTIN_RE.finditer(code):
        close = match_balanced(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        args = code[m.end():close - 1]
        orders = [o.lower() for o in BUILTIN_ORDER_RE.findall(args)]
        accesses.append(AtomicAccess(sf.path, line_of(code, m.start()),
                                     m.group(1), orders, "builtin"))
    for m in SYNC_RE.finditer(code):
        name = m.group(1)
        accesses.append(AtomicAccess(sf.path, line_of(code, m.start()), name,
                                     [SYNC_ORDERS.get(name, "seq_cst")],
                                     "sync-builtin"))
    for m in ASM_RE.finditer(code):
        close = match_balanced(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        mnemonics = asm_atomic_mnemonics(sf.raw[m.end():close - 1])
        if not mnemonics:
            continue
        line = line_of(code, m.start())
        accesses.append(AtomicAccess(sf.path, line,
                                     "asm:" + "+".join(mnemonics),
                                     asm_declared_orders(sf, line), "asm"))
    for m in FENCE_RE.finditer(code):
        close = match_balanced(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        args = code[m.end():close - 1]
        orders = [o for o in ORDER_RE.findall(args)]
        accesses.append(AtomicAccess(sf.path, line_of(code, m.start()),
                                     "fence", orders, "fence"))
    # Operator forms (x++, x += k, x = v on an atomic) are implicit seq_cst.
    # Skipped for names that also exist as plain members somewhere — the
    # census cannot type the receiver, and a false "implicit order" on a
    # plain int would teach people to ignore the lint.
    for idx, cl in enumerate(sf.code_lines, start=1):
        for m in OP_RW_RE.finditer(cl):
            left = cl[:m.start()].rstrip()
            lm = re.search(r"([A-Za-z_]\w*)$", left)
            name = lm.group(1) if lm else ""
            if not name:  # prefix ++x / --x
                rm = re.match(r"\s*([A-Za-z_]\w*)", cl[m.end():])
                name = rm.group(1) if rm else ""
            if name in atomic_names and name not in ambiguous:
                accesses.append(AtomicAccess(sf.path, idx, name, [],
                                             "operator"))
    return accesses


def asm_atomic_mnemonics(asm_args: str) -> list:
    """Atomic/fencing mnemonics of an asm statement's template (the string
    literals before the first operand colon), deduplicated in order."""
    template = "".join(STRING_RE.findall(asm_args.split(":", 1)[0]))
    found = []
    for m in ASM_MNEMONIC_RE.finditer(template):
        ops = [m.group(1).lower()]
        if ops[0] == "lock":  # prefix: the locked instruction follows it
            nxt = re.match(r"\s+([a-z][a-z0-9]*)", template[m.end():], re.I)
            if nxt:
                ops.append(nxt.group(1).lower())
        for op in ops:
            if op in ASM_ATOMIC_MNEMONICS and op not in found:
                found.append(op)
    return found


def asm_declared_orders(sf: SourceFile, line: int) -> list:
    """Orders from a `phch_lint: order(...)` directive on the asm's line or
    in the run of comment lines directly above it."""
    candidates = [sf.lines[line - 1]]
    i = line - 2
    while i >= 0 and sf.lines[i].strip().startswith("//"):
        candidates.append(sf.lines[i])
        i -= 1
    for text in candidates:
        m = ASM_ORDER_RE.search(text)
        if m:
            return [o.strip() for o in m.group(1).split(",") if o.strip()]
    return []


# --------------------------------------------------------------------------
# The memory-order contract
# --------------------------------------------------------------------------

@dataclass
class ContractRow:
    file: str
    symbol: str
    orders: set
    why: str
    line: int


def load_contract(path: str) -> list:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise SystemExit(
                    f"{path}:{ln}: contract rows are "
                    f"file<TAB>symbol<TAB>orders<TAB>why (got "
                    f"{len(parts)} fields)")
            f, sym, orders, why = parts
            rows.append(ContractRow(f.strip(), sym.strip(),
                                    {o.strip() for o in orders.split(",")
                                     if o.strip()},
                                    why.strip(), ln))
    return rows


def check_contract(accesses: list, rows: list, contract_path: str) -> list:
    findings = []
    index = {}
    for r in rows:
        index.setdefault((r.file, r.symbol), r)
    matched = set()
    for a in accesses:
        row = index.get((a.file, a.symbol))
        if row is None:
            findings.append(Finding(
                "atomic-contract-missing", a.file, a.line,
                f"atomic access `{a.symbol}` ({a.kind}) has no row in "
                f"{contract_path}; add `file<TAB>{a.symbol}<TAB>orders<TAB>"
                f"why` and justify the ordering", a.symbol))
            continue
        matched.add((row.file, row.symbol))
        if not a.orders:
            # implicit order: reported by atomic-implicit-order; the
            # contract check treats it as seq_cst for the allowed-set test.
            site_orders = ["seq_cst"]
        else:
            site_orders = a.orders
        for o in site_orders:
            if o not in row.orders:
                findings.append(Finding(
                    "atomic-contract-order", a.file, a.line,
                    f"`{a.symbol}` uses memory_order_{o} but the contract "
                    f"({contract_path}:{row.line}) allows only "
                    f"{{{', '.join(sorted(row.orders))}}} — update the "
                    f"code or the contract row (with a why)", a.symbol))
    for r in rows:
        if (r.file, r.symbol) not in matched:
            findings.append(Finding(
                "contract-stale", contract_path, r.line,
                f"contract row ({r.file}, {r.symbol}) matches no atomic "
                f"access in the scanned tree; delete or fix it", r.symbol))
    return findings


def emit_contract(accesses: list, existing_rows: list) -> str:
    """Draft a contract TSV from the observed accesses, preserving the `why`
    column of rows that still match."""
    why_of = {(r.file, r.symbol): r.why for r in existing_rows}
    agg = {}
    for a in accesses:
        key = (a.file, a.symbol)
        orders = agg.setdefault(key, set())
        orders.update(a.orders if a.orders else ["seq_cst"])
    out = ["# tools/atomics_contract.tsv — the memory-order contract.",
           "# One row per (file, symbol): every atomic access to `symbol`",
           "# in `file` must use one of the allowed orders. Regenerate the",
           "# census with `tools/phch_lint.py --emit-contract`, then keep",
           "# or write the `why` column by hand — the lint fails on any",
           "# access without a row, so ordering changes are review-visible.",
           "# file\tsymbol\torders\twhy"]
    for (f, sym) in sorted(agg):
        orders = ",".join(sorted(agg[(f, sym)]))
        why = why_of.get((f, sym), "TODO: justify")
        out.append(f"{f}\t{sym}\t{orders}\t{why}")
    return "\n".join(out) + "\n"


# --------------------------------------------------------------------------
# Phase-contract checks (table headers)
# --------------------------------------------------------------------------

# Public operations every phase-concurrent table must annotate and scope.
# compact()/footprint() are maintenance surfaces excluded by policy (their
# trailing requires-clauses predate the annotation grammar).
REQUIRED_OPS = (
    "insert", "insert_from", "insert_bounded", "erase", "erase_from",
    "find", "contains", "elements", "for_each",
    "insert_batch", "find_batch", "erase_batch",
)

SCOPE_EVIDENCE_RE = re.compile(
    r"(Phase\s*::\s*scope|::\s*scope\s+\w+\s*\(|\bop_guard\b|"
    r"\bbatch_(?:insert|erase|query)_scope\s*\(|"
    r"\b(?:" + "|".join(REQUIRED_OPS) + r")\s*\(|"      # delegation to an op
    r"\b\w+_(?:impl|tagged)\s*\(|"                      # ... or its impl
    r"\bphch\s*::\s*(?:insert|find|erase)_batch\s*\()")


def is_table_header(sf: SourceFile) -> bool:
    if re.search(r"//\s*phch_lint:\s*not-a-table", sf.raw):
        return False
    if re.search(r"//\s*phch_lint:\s*table-header", sf.raw):
        return True
    return "PHCH_PHASE_CAPABILITIES()" in sf.raw


def find_method_definitions(sf: SourceFile, names: tuple):
    """Yield (name, decl_text, body_text, line) for method *definitions* of
    the given names (declarations without bodies are skipped)."""
    code = sf.code
    name_re = re.compile(r"\b(" + "|".join(names) + r")\s*\(")
    for m in name_re.finditer(code):
        # Reject call sites: a definition's name is preceded by a type (or
        # qualifier), not by `.`/`->`/`(`/`,`/binary ops/`return`.
        j = m.start() - 1
        while j >= 0 and code[j].isspace():
            j -= 1
        if j >= 0 and (code[j] in ".>(,=+-*/%!<|&?:" or code[j] == ";"):
            prev_word = re.search(r"(\w+)\s*$", code[:m.start()])
            if not (code[j] == ":" and j >= 1 and code[j - 1] != ":"):
                if not (prev_word and prev_word.group(1) in
                        ("public", "private", "protected")):
                    continue
        prev_word = re.search(r"(\w+)\s*$", code[:m.start()])
        if prev_word and prev_word.group(1) in ("return", "new", "delete",
                                                "case", "goto", "co_return"):
            continue
        close = match_balanced(code, m.end() - 1, "(", ")")
        if close < 0:
            continue
        # Scan the declaration tail (qualifiers, annotations, trailing
        # return) up to `{` (definition), `;` (declaration) or `=` (default).
        k = close
        while k < len(code):
            c = code[k]
            if c == "{":
                break
            if c in ";=":
                k = -1
                break
            if c == "(":  # annotation argument list, e.g. PHCH_EXCLUDES(..)
                k = match_balanced(code, k, "(", ")")
                if k < 0:
                    break
                continue
            k += 1
        if k is None or k < 0 or k >= len(code):
            continue
        body_end = match_balanced(code, k, "{", "}")
        if body_end < 0:
            continue
        decl = code[m.start():k]
        body = code[k:body_end]
        yield (m.group(1), decl, body, line_of(code, m.start()))


def check_phase_contract(sf: SourceFile) -> list:
    findings = []
    if not is_table_header(sf):
        return findings
    for name, decl, body, line in find_method_definitions(sf, REQUIRED_OPS):
        if "PHCH_REQUIRES_PHASE" not in decl and "PHCH_NO_TSA" not in decl:
            findings.append(Finding(
                "phase-annotation-missing", sf.path, line,
                f"public table operation `{name}` lacks "
                f"PHCH_REQUIRES_PHASE(insert|erase|query) (or an explicit "
                f"PHCH_NO_TSA opt-out)", name))
        if not SCOPE_EVIDENCE_RE.search(body) and f"{name}(" not in \
                body.replace(" ", ""):
            findings.append(Finding(
                "phase-scope-missing", sf.path, line,
                f"public table operation `{name}` opens no phase/batch "
                f"scope (expected a Phase::scope guard, a batch_*_scope "
                f"window, a reclaim::op_guard, or delegation to an "
                f"operation that has one)", name))
    return findings


# --------------------------------------------------------------------------
# SIMD include allowlist
# --------------------------------------------------------------------------

SIMD_HOMES = ("src/phch/utils/arch.h",)
SIMD_INCLUDE_RE = re.compile(
    r'#\s*include\s*[<"]((?:x86|imm|emm|xmm|pmm|smm|tmm|nmm|wmm|amm)intrin'
    r'\.h|avx\w*\.h|arm_neon\.h|arm_sve\.h|altivec\.h)[>"]')


def check_simd_includes(sf: SourceFile) -> list:
    if sf.path in SIMD_HOMES:
        return []
    findings = []
    for idx, line in enumerate(sf.code_lines, start=1):
        m = SIMD_INCLUDE_RE.search(line)
        if m:
            findings.append(Finding(
                "simd-include", sf.path, idx,
                f"vendor intrinsic header <{m.group(1)}> outside its "
                f"dedicated home ({', '.join(SIMD_HOMES)}); use the "
                f"portable wrappers instead", m.group(1)))
    return findings


# --------------------------------------------------------------------------
# Telemetry compiled-out branch
# --------------------------------------------------------------------------

TELEMETRY_HEADER = "src/phch/obs/telemetry.h"


def telemetry_off_region(sf: SourceFile):
    """Return (start_line, end_line, text) of the #else branch of the
    top-level `#if PHCH_TELEMETRY_ENABLED` block, or None."""
    lines = sf.code_lines
    depth, open_depth = 0, None
    else_start = None
    for idx, line in enumerate(lines, start=1):
        s = line.strip()
        if s.startswith("#if"):
            depth += 1
            if open_depth is None and "PHCH_TELEMETRY_ENABLED" in line:
                open_depth = depth
        elif s.startswith("#else") and depth == open_depth:
            else_start = idx
        elif s.startswith("#endif"):
            if depth == open_depth and else_start is not None:
                return (else_start + 1, idx - 1,
                        "\n".join(lines[else_start:idx - 1]))
            if depth == open_depth:
                open_depth = None
            depth -= 1
    return None


TRIVIAL_BODY_RE = re.compile(
    r"^(?:\s|\(void\)\s*[\w.]+\s*;|return\s+[^();]*;|return\s*;)*$")


def check_telemetry_noop(sf: SourceFile) -> list:
    if sf.path != TELEMETRY_HEADER:
        return []
    region = telemetry_off_region(sf)
    if region is None:
        return [Finding("telemetry-off-noop", sf.path, 1,
                        "could not locate the #else branch of "
                        "`#if PHCH_TELEMETRY_ENABLED` — the compiled-out "
                        "surface must exist and stay trivial")]
    start_line, _, text = region
    findings = []
    fn_re = re.compile(r"\b(\w+)\s*\([^;{)]*\)[^;{]*\{")
    pos = 0
    while True:
        m = fn_re.search(text, pos)
        if not m:
            break
        open_idx = m.end() - 1
        close = match_balanced(text, open_idx, "{", "}")
        if close < 0:
            break
        body = text[open_idx + 1:close - 1]
        if not TRIVIAL_BODY_RE.match(body):
            findings.append(Finding(
                "telemetry-off-noop", sf.path,
                start_line + text.count("\n", 0, m.start()),
                f"`{m.group(1)}` in the PHCH_TELEMETRY_ENABLED=0 branch has "
                f"a non-trivial body — the compiled-out build must stay "
                f"empty-inline", m.group(1)))
        pos = close
    return findings


# --------------------------------------------------------------------------
# pragma once
# --------------------------------------------------------------------------

def check_pragma_once(sf: SourceFile) -> list:
    if not sf.path.endswith(".h"):
        return []
    if re.search(r"^\s*#\s*pragma\s+once\s*$", sf.raw, re.MULTILINE):
        return []
    return [Finding("pragma-once-missing", sf.path, 1,
                    "header lacks `#pragma once`")]


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def gather_files(paths: list, root: str) -> list:
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isdir(ap):
            for dirpath, _dirnames, filenames in sorted(os.walk(ap)):
                for fn in sorted(filenames):
                    if fn.endswith((".h", ".hpp", ".cpp", ".cc")):
                        out.append(os.path.join(dirpath, fn))
        elif os.path.isfile(ap):
            out.append(ap)
        else:
            raise SystemExit(f"phch_lint: no such path: {p}")
    seen, uniq = set(), []
    for f in out:
        rp = os.path.relpath(f, root).replace(os.sep, "/")
        if rp not in seen:
            seen.add(rp)
            uniq.append((f, rp))
    return uniq


def load_sources(pairs: list) -> list:
    files = []
    for abspath, rel in pairs:
        with open(abspath, encoding="utf-8", errors="replace") as fh:
            raw = fh.read()
        code = blank_comments_and_strings(raw)
        files.append(SourceFile(rel, raw, code, raw.split("\n"),
                                code.split("\n")))
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="phch_lint.py",
                                 description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: src/phch)")
    ap.add_argument("--root", default=None,
                    help="repo root (default: parent of this script)")
    ap.add_argument("--contract", default="tools/atomics_contract.tsv",
                    help="memory-order contract TSV (relative to root)")
    ap.add_argument("--json", default=None, metavar="FILE",
                    help="also write findings as JSON")
    ap.add_argument("--emit-contract", action="store_true",
                    help="print a contract census TSV and exit")
    ap.add_argument("--backend", choices=("python", "clang"),
                    default="python",
                    help="atomic-census backend (clang falls back to "
                         "python when libclang is unavailable)")
    ap.add_argument("--max-suppressions", type=int, default=None,
                    metavar="N", help="fail when more than N "
                    "`phch_lint: allow(...)` directives fire (CI: 0)")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args(argv)

    if args.list_checks:
        print("\n".join(ALL_CHECKS))
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    paths = args.paths or ["src/phch"]
    pairs = gather_files(paths, root)
    files = load_sources(pairs)

    atomic_names, ambiguous = census_atomics(files)
    if args.backend == "clang":
        clang_names = census_atomics_clang([a for a, _ in pairs],
                                           os.path.join(root, "src"))
        if clang_names is not None:
            atomic_names |= clang_names
        else:
            print("phch_lint: libclang unavailable; using python census",
                  file=sys.stderr)

    accesses = []
    for sf in files:
        accesses.extend(extract_accesses(sf, atomic_names, ambiguous))

    if args.emit_contract:
        contract_path = os.path.join(root, args.contract)
        existing = load_contract(contract_path) if \
            os.path.exists(contract_path) else []
        sys.stdout.write(emit_contract(accesses, existing))
        return 0

    findings = []
    for a in accesses:
        if not a.orders:
            if a.kind == "asm":
                what = ("inline asm carries no memory_order; declare the "
                        "order it implements with `// phch_lint: order(...)`")
            elif a.kind == "operator":
                what = ("operator access (++/--/+=/=) compiles to seq_cst; "
                        "spell the std::memory_order explicitly")
            else:
                what = ("call relies on the implicit seq_cst default; spell "
                        "the std::memory_order explicitly")
            findings.append(Finding(
                "atomic-implicit-order", a.file, a.line,
                f"atomic `{a.symbol}`: {what}", a.symbol))

    contract_path = os.path.join(root, args.contract)
    if os.path.exists(contract_path):
        rows = load_contract(contract_path)
        findings.extend(check_contract(accesses, rows, args.contract))
    else:
        print(f"phch_lint: warning: no contract file at {args.contract}; "
              f"skipping contract checks", file=sys.stderr)

    for sf in files:
        findings.extend(check_phase_contract(sf))
        findings.extend(check_simd_includes(sf))
        findings.extend(check_telemetry_noop(sf))
        findings.extend(check_pragma_once(sf))

    sup = Suppressions()
    for sf in files:
        sup.scan(sf)
    findings = sup.filter(findings)
    findings.sort(key=lambda f: (f.file, f.line, f.check))

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.check}] {f.message}")
    n_sup = len(sup.used)
    if n_sup:
        print(f"phch_lint: {n_sup} suppression(s) in effect:")
        for path, line, check in sup.used:
            print(f"  {path}:{line}: allow({check})")

    if args.json:
        payload = {
            "tool": "phch_lint",
            "root": root,
            "files_scanned": len(files),
            "atomic_accesses": len(accesses),
            "findings": [f.to_json() for f in findings],
            "suppressions": [{"file": p, "line": l, "check": c}
                             for p, l, c in sup.used],
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    over_budget = (args.max_suppressions is not None and
                   n_sup > args.max_suppressions)
    if over_budget:
        print(f"phch_lint: suppression budget exceeded "
              f"({n_sup} > {args.max_suppressions})")
    if not findings and not over_budget:
        print(f"phch_lint: clean ({len(files)} files, "
              f"{len(accesses)} atomic accesses)")
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
