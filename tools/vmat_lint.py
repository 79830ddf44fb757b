#!/usr/bin/env python3
"""vmat-lint: protocol-invariant linter for the VMAT codebase.

VMAT's security argument only holds if every implementation path preserves
a handful of mechanical invariants. This linter enforces the ones that are
checkable from source text, as named, individually suppressible rules:

  determinism-rng        All randomness flows through vmat::Rng seeded via
                         trial_seed(). Raw std::mt19937 / rand() / &c.
                         outside src/util/random.* silently breaks the
                         bit-identical-across-thread-counts contract.
  mac-verify-discarded   A MAC verification whose result is discarded is a
                         message accepted without a verified MAC. The
                         [[nodiscard]] attributes catch this at compile
                         time; this rule catches it in un-compiled paths
                         and fixture code.
  missing-nodiscard      Value-returning crypto/keys APIs must be
                         [[nodiscard]] so the compiler enforces the rule
                         above everywhere.
  key-memcpy             Raw memcpy on key material outside src/crypto/
                         and src/util/bytes.* bypasses the canonical
                         encoders and the constant-pattern helpers.
  threadpool-ref-capture Task lambdas handed to ThreadPool::for_each /
                         parallel_for_trials must name every capture
                         explicitly ([&] / [=] defaults are banned), so
                         shared mutable state is visible in review and the
                         per-trial-slot discipline is auditable.
  stdout-in-src          No direct std::cout / printf in src/ — output
                         goes through core/report or util/stats, which the
                         trial engine serialises. src/serve/ is sanctioned
                         (vmatd's operator status lines, printed only when
                         stdout is not the protocol channel).
  predicate-purity       Campaign trigger predicates are pure data: every
                         evaluate() definition in campaign code must be
                         const-qualified, must not consume randomness, and
                         must not mutate state. An impure predicate makes
                         fuzzer probes order-dependent, breaking corpus
                         replay and the De Morgan rewrite laws the search
                         relies on.
  hot-path-alloc         No Bytes / std::vector construction inside
                         per-frame loops in src/sim/ and src/core/ — the
                         arena fabric exists so the per-frame hot path
                         allocates nothing; stage into reusable scratch
                         (RxScratch, ShardBuf) or copy outside the loop.
  eager-ring-materialization
                         The large-n memory diet keeps one 8-byte ring
                         seed per node and re-derives key rings on demand
                         through Predistribution's small LRU. A container
                         of materialized KeyRing objects, or a ring()
                         sweep over every node, is the pre-diet shape: at
                         10^5..10^6 sensors it either resurrects the n·r
                         resident index sets or thrashes the LRU. Use
                         ring_seed()/ring_contains() (or the derive-based
                         paths) in whole-network loops.
  env-knob               No std::getenv in src/ outside
                         src/util/parallel.cpp (VMAT_THREADS,
                         VMAT_EXEC_THREADS). An environment variable that
                         selects a library code path is a knob no spec,
                         test or digest can see; take a parameter or a
                         config field instead.
  snapshot-unsafe-state  Classes captured by the copy-on-write snapshot
                         subsystem (any class with a snapshot_save()
                         member) must hold flat, order-independent state:
                         no std::unordered_map / std::unordered_set
                         members (iteration order leaks into the buffer
                         unless explicitly flattened) and no raw pointer
                         members with a mutable pointee (a snapshot cannot
                         own or relocate what they reference). Sanctioned
                         exceptions carry an allow() with the flatten /
                         rebuild story.

Suppression syntax (checked per rule name, or `*` for all):

  some_call();  // vmat-lint: allow(rule-name)       -- this line
  // vmat-lint: allow(rule-name)                     -- or the line above
  // vmat-lint: allow-file(rule-name)                -- whole file

Exit status: 0 clean, 1 violations found, 2 usage/internal error.
Output format: path:line: [rule-name] message
"""

from __future__ import annotations

import argparse
import bisect
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".cc", ".cxx", ".h", ".hpp", ".inl"}

ALLOW_RE = re.compile(r"vmat-lint:\s*allow\(([^)]*)\)")
ALLOW_FILE_RE = re.compile(r"vmat-lint:\s*allow-file\(([^)]*)\)")


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class SourceFile:
    """A parsed source file: raw lines, comment-and-string-stripped lines
    (for rule matching), and per-line / per-file suppression sets."""

    def __init__(self, path: Path, rel: str):
        self.path = path
        self.rel = rel  # repo-relative, forward slashes
        text = path.read_text(encoding="utf-8", errors="replace")
        self.raw_lines = text.split("\n")
        code, comments = _strip(text)
        self.code_lines = code.split("\n")
        self.comment_lines = comments.split("\n")
        self.file_allows: set[str] = set()
        self.line_allows: dict[int, set[str]] = {}
        for i, comment in enumerate(self.comment_lines, start=1):
            for m in ALLOW_FILE_RE.finditer(comment):
                self.file_allows.update(_rule_list(m.group(1)))
            for m in ALLOW_RE.finditer(comment):
                self.line_allows.setdefault(i, set()).update(
                    _rule_list(m.group(1)))

    def allowed(self, rule: str, line: int) -> bool:
        if self.file_allows & {rule, "*"}:
            return True
        for candidate in (line, line - 1):
            if self.line_allows.get(candidate, set()) & {rule, "*"}:
                return True
        return False

    def in_dir(self, *segments: str) -> bool:
        """True if any of `segments` appears as a path component of rel."""
        parts = self.rel.split("/")
        return any(s in parts for s in segments)

    def basename(self) -> str:
        return self.rel.rsplit("/", 1)[-1]


def _rule_list(spec: str) -> list[str]:
    return [r.strip() for r in spec.split(",") if r.strip()]


def _strip(text: str):
    """Split `text` into (code, comments): two equal-shape strings where
    comment bodies / string-literal bodies are blanked in `code`, and
    everything except comment text is blanked in `comments`. Newlines are
    preserved in both so line numbers survive."""
    code = []
    comments = []
    i, n = 0, len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR, RAW = range(6)
    state = NORMAL
    raw_terminator = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                code.append("  ")
                comments.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                code.append("  ")
                comments.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    state = RAW
                    raw_terminator = ")" + m.group(1) + '"'
                    code.append(" " * len(m.group(0)))
                    comments.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = STRING
                code.append(c)
                comments.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                code.append(c)
                comments.append(" ")
                i += 1
                continue
            code.append(c)
            comments.append(c if c == "\n" else " ")
            i += 1
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                code.append("\n")
                comments.append("\n")
            else:
                code.append(" ")
                comments.append(c)
            i += 1
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                code.append("  ")
                comments.append("  ")
                i += 2
            else:
                code.append("\n" if c == "\n" else " ")
                comments.append(c)
                i += 1
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\" and nxt:
                code.append("  ")
                comments.append("  ")
                i += 2
            elif c == quote:
                state = NORMAL
                code.append(c)
                comments.append(" ")
                i += 1
            elif c == "\n":  # unterminated; bail to NORMAL
                state = NORMAL
                code.append("\n")
                comments.append("\n")
                i += 1
            else:
                code.append(" ")
                comments.append(" ")
                i += 1
        elif state == RAW:
            if text.startswith(raw_terminator, i):
                state = NORMAL
                code.append(" " * len(raw_terminator))
                comments.append(" " * len(raw_terminator))
                i += len(raw_terminator)
            else:
                code.append("\n" if c == "\n" else " ")
                comments.append("\n" if c == "\n" else " ")
                i += 1
    return "".join(code), "".join(comments)


def _balanced_span(text: str, open_pos: int) -> int:
    """Index just past the parenthesis group opening at text[open_pos]
    (which must be '('), or -1 if unbalanced."""
    depth = 0
    for j in range(open_pos, len(text)):
        if text[j] == "(":
            depth += 1
        elif text[j] == ")":
            depth -= 1
            if depth == 0:
                return j + 1
    return -1


# --------------------------------------------------------------------------
# Rules. Each rule is a function (SourceFile, report) -> None where report
# is called as report(line_number, message).
# --------------------------------------------------------------------------

RNG_RE = re.compile(
    r"\bstd::(mt19937(?:_64)?|minstd_rand0?|default_random_engine|"
    r"random_device|ranlux\w+|knuth_b)\b"
    r"|(?<!\w)(mt19937(?:_64)?|random_device)\b"
    r"|(?<!\w)(s?rand|drand48|lrand48|mrand48)\s*\(")


def rule_determinism_rng(src: SourceFile, report) -> None:
    if src.basename().startswith("random.") and src.in_dir("util"):
        return  # src/util/random.* is the one sanctioned implementation
    for i, line in enumerate(src.code_lines, start=1):
        if RNG_RE.search(line):
            report(i, "raw RNG engine/source outside src/util/random.*; "
                      "draw from vmat::Rng seeded via trial_seed() instead")


VERIFY_CALL_RE = re.compile(
    r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*"
    r"(verify|verify_mac|verify_chain|compute|compute_mac|hmac_sha256|mac)"
    r"\s*\(")
STMT_END_RE = re.compile(r"[;{}]\s*$|^\s*$")
CONTROL_TAIL_RE = re.compile(r"^\s*(if|while|for|else|switch|case|do)\b")


def rule_mac_verify_discarded(src: SourceFile, report) -> None:
    lines = src.code_lines
    for i, line in enumerate(lines, start=1):
        m = VERIFY_CALL_RE.match(line)
        if not m:
            continue
        # MacBatch::compute() is a void mutator: its tags are consumed via
        # macs() after the call, so a bare `batch.compute();` statement is
        # the sanctioned usage, not a discarded check.
        if re.search(r"(?i)batch", line[:m.start(1)]):
            continue
        # Must be the start of a statement: previous non-blank code line
        # ends a statement/block, or opens a control body.
        prev = ""
        for j in range(i - 2, -1, -1):
            if lines[j].strip():
                prev = lines[j]
                break
        if prev and not (STMT_END_RE.search(prev)
                         or (prev.rstrip().endswith(")")
                             and CONTROL_TAIL_RE.match(prev))):
            continue
        # The whole statement must be just the call: find the call's
        # closing paren (possibly lines below) and require `;` after it.
        flat = "\n".join(lines[i - 1:min(i + 9, len(lines))])
        open_pos = flat.index("(", flat.index(m.group(1)))
        end = _balanced_span(flat, open_pos)
        if end < 0:
            continue
        tail = flat[end:].lstrip()
        if tail.startswith(";"):
            report(i, f"result of {m.group(1)}() is discarded — every "
                      "accepted message must have a *checked* MAC")


DECL_RE = re.compile(
    r"^((?:\[\[[\w:,\s]+\]\]\s*)*)"
    r"((?:(?:static|constexpr|explicit|inline|friend|virtual)\s+)*)"
    r"((?:const\s+)?[A-Za-z_][\w]*(?:::[\w]+)*(?:<[^;(){}]*>)?"
    r"(?:\s*[&*])*)\s+"
    r"([A-Za-z_]\w*)\s*\(")
DECL_SKIP_NAMES = {"if", "while", "for", "switch", "return", "sizeof",
                   "static_assert", "decltype", "alignas", "alignof",
                   "defined", "catch", "operator"}


def rule_missing_nodiscard(src: SourceFile, report) -> None:
    if not src.in_dir("crypto", "keys"):
        return
    if not src.basename().endswith((".h", ".hpp")):
        return
    lines = src.code_lines
    for i, line in enumerate(lines, start=1):
        m = DECL_RE.match(line.lstrip())
        if not m:
            continue
        attrs, mods, ret, name = (m.group(1) or ""), (m.group(2) or ""), \
            m.group(3).strip(), m.group(4)
        if name in DECL_SKIP_NAMES or "operator" in line:
            continue
        if "friend" in mods:
            continue
        if ret in ("void", "const void") or ret.rstrip("&* ") == "void":
            continue
        # Look back one line for an attribute that wrapped.
        back = lines[i - 2].strip() if i >= 2 else ""
        if "[[nodiscard]]" in attrs or "[[nodiscard]]" in line \
                or back.endswith("[[nodiscard]]"):
            continue
        indent = len(line) - len(line.lstrip())
        is_member = indent > 0
        # For members, only const-qualified (observer) functions are
        # required; mutators returning values (e.g. registration handles)
        # may legitimately be called for effect. Free functions and static
        # members in crypto/keys are pure by construction here.
        if is_member and "static" not in mods:
            flat = "\n".join(lines[i - 1:min(i + 9, len(lines))])
            open_pos = flat.index("(", flat.index(name))
            end = _balanced_span(flat, open_pos)
            if end < 0:
                continue
            tail = flat[end:]
            tail = tail.split(";", 1)[0].split("{", 1)[0]
            if not re.search(r"\bconst\b", tail):
                continue
        report(i, f"value-returning crypto/keys API `{name}` must be "
                  "[[nodiscard]] so discarded MAC checks fail the build")


MEMCPY_RE = re.compile(r"(?<!\w)(?:std::)?memcpy\s*\(")
KEY_ARG_RE = re.compile(r"(?i)\b\w*(key|secret|seed|ring|pad)\w*\b")


def rule_key_memcpy(src: SourceFile, report) -> None:
    if src.in_dir("crypto"):
        return
    if src.basename().startswith("bytes.") and src.in_dir("util"):
        return
    lines = src.code_lines
    for i, line in enumerate(lines, start=1):
        m = MEMCPY_RE.search(line)
        if not m:
            continue
        flat = "\n".join(lines[i - 1:min(i + 4, len(lines))])
        open_pos = flat.index("(", flat.index("memcpy"))
        end = _balanced_span(flat, open_pos)
        args = flat[open_pos:end if end > 0 else len(flat)]
        if KEY_ARG_RE.search(args):
            report(i, "raw memcpy on key material outside src/crypto/ and "
                      "src/util/bytes.*; use the canonical ByteWriter/"
                      "SymmetricKey copy paths")


POOL_CALL_RE = re.compile(
    r"(?:(?:\.|->)for_each|(?<!\w)parallel_for_trials)\s*\(")
DEFAULT_CAPTURE_RE = re.compile(r"^\s*([&=])\s*(?:,|\])")


def rule_threadpool_ref_capture(src: SourceFile, report) -> None:
    if src.basename().startswith("parallel.") and src.in_dir("util"):
        return  # the engine itself wraps the user lambda
    lines = src.code_lines
    for i, line in enumerate(lines, start=1):
        m = POOL_CALL_RE.search(line)
        if not m:
            continue
        flat = "\n".join(lines[i - 1:min(i + 9, len(lines))])
        pos = flat.find("[", m.end())
        if pos < 0:
            continue
        capture = flat[pos + 1:]
        if DEFAULT_CAPTURE_RE.match(capture):
            report(i, "default capture ([&] / [=]) in a ThreadPool task "
                      "lambda; name every captured object so shared "
                      "mutable state is auditable")


STDOUT_RE = re.compile(r"\bstd::cout\b|(?<!\w)printf\s*\(")


def rule_stdout_in_src(src: SourceFile, report) -> None:
    if not src.in_dir("src"):
        return
    base = src.basename()
    if src.in_dir("util") and base.startswith("stats."):
        return  # the sanctioned table/stats printer
    if src.in_dir("core") and base.startswith("report."):
        return  # the sanctioned report sink
    if src.in_dir("trace"):
        return  # the flight recorder's export sink (trace-file pointer line)
    if src.in_dir("serve"):
        # vmatd's operator status lines; Daemon::run() only prints when
        # stdout is NOT the protocol channel, so frames stay clean.
        return
    for i, line in enumerate(src.code_lines, start=1):
        if STDOUT_RE.search(line):
            report(i, "direct stdout in src/; route output through "
                      "core/report or util/stats so the trial engine can "
                      "serialise it")


GETENV_RE = re.compile(r"(?<![\w.>])(?:std::|::)?(?:secure_)?getenv\s*\(")


def rule_env_knob(src: SourceFile, report) -> None:
    if not src.in_dir("src"):
        return
    if src.in_dir("util") and src.basename() == "parallel.cpp":
        return  # the thread-count knobs, which never change a result
    for i, line in enumerate(src.code_lines, start=1):
        if GETENV_RE.search(line):
            report(i, "environment variable read in src/; a library code "
                      "path must not depend on the environment — take a "
                      "parameter or a config field instead")


# A *definition* of an evaluate() member/function: a return type before the
# name keeps calls (`when_.evaluate(...)`) from matching; `evaluate_node`
# and friends are excluded by requiring '(' right after the name.
PREDICATE_EVAL_DEF_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*)?"
    r"(?:(?:static|constexpr|inline|virtual)\s+)*"
    r"(?:bool|auto)\s+(?:[A-Za-z_]\w*::)*evaluate\s*\(")
PREDICATE_RNG_RE = re.compile(
    r"\bRng\b|\brng\b|\brandom_device\b|(?<!\w)s?rand\s*\(|"
    r"\.(?:below|between|bernoulli|unit|fork)\s*\(")
PREDICATE_MUTATE_RE = re.compile(
    r"(?:\+\+|--)\s*\w+_\b|\b\w+_\s*(?:\+\+|--)|"
    r"\b\w+_\s*(?:[+\-*/|&^]|<<|>>)?=(?!=)|"
    r"\b\w+_\s*\.\s*(?:push_back|pop_back|insert|erase|clear|"
    r"emplace\w*|resize)\s*\(")


def rule_predicate_purity(src: SourceFile, report) -> None:
    if not src.in_dir("campaign"):
        return
    lines = src.code_lines
    text = "\n".join(lines)
    line_starts = [0]
    for ln in lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)
    for i, line in enumerate(lines, start=1):
        m = PREDICATE_EVAL_DEF_RE.match(line)
        if not m:
            continue
        abs_pos = line_starts[i - 1] + line.index("evaluate")
        open_pos = text.index("(", abs_pos)
        params_end = _balanced_span(text, open_pos)
        if params_end < 0:
            continue
        brace = text.find("{", params_end)
        semi = text.find(";", params_end)
        if brace < 0 or 0 <= semi < brace:
            continue  # declaration, not a definition
        if not re.search(r"\bconst\b", text[params_end:brace]):
            report(i, "predicate evaluate() must be const-qualified: "
                      "trigger evaluation is a pure function of the "
                      "TriggerState")
        depth = 0
        end = -1
        for k in range(brace, len(text)):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    end = k
                    break
        if end < 0:
            continue
        first = bisect.bisect_right(line_starts, brace)
        last = bisect.bisect_right(line_starts, end)
        for body_no in range(first, last + 1):
            if body_no == i:
                continue  # the signature line itself
            body_line = lines[body_no - 1]
            if PREDICATE_RNG_RE.search(body_line):
                report(body_no,
                       "RNG use inside a predicate evaluate(); trigger "
                       "evaluation must not consume randomness — an impure "
                       "predicate breaks corpus replay")
            elif PREDICATE_MUTATE_RE.search(body_line):
                report(body_no,
                       "state mutation inside a predicate evaluate(); "
                       "trigger evaluation must be effect-free — fuzzer "
                       "probes must not be order-dependent")


FOR_RE = re.compile(r"\bfor\s*\(")
# A range-for whose range expression names delivered-frame containers: the
# per-frame hot path. Single colon only — `::` is scope resolution.
FRAME_RANGE_RE = re.compile(
    r"(?<!:):(?!:)[^;]*\b(frames?|inbox(?:es)?|receive_valid|take_inbox|"
    r"delivered_?|arrivals)\b")
HOT_ALLOC_RE = re.compile(
    r"\bBytes\s*[({]"            # temporary / direct-init
    r"|\bBytes\s+\w+\s*[;=({]"   # fresh declaration
    r"|\bstd::vector\s*<")


def rule_hot_path_alloc(src: SourceFile, report) -> None:
    if not src.in_dir("src") or not src.in_dir("sim", "core"):
        return
    text = "\n".join(src.code_lines)
    line_starts = [0]
    for ln in src.code_lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)
    for m in FOR_RE.finditer(text):
        open_pos = text.index("(", m.start())
        hdr_end = _balanced_span(text, open_pos)
        if hdr_end < 0:
            continue
        if not FRAME_RANGE_RE.search(text[open_pos:hdr_end]):
            continue
        # Body: the brace block (or single statement) after the header.
        j = hdr_end
        while j < len(text) and text[j] in " \t\n":
            j += 1
        if j >= len(text):
            continue
        if text[j] == "{":
            depth = 0
            end = -1
            for k in range(j, len(text)):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        end = k + 1
                        break
            if end < 0:
                continue
        else:
            end = text.find(";", j)
            end = len(text) if end < 0 else end + 1
        for am in HOT_ALLOC_RE.finditer(text, j, end):
            # Reference/pointer bindings to an existing vector don't
            # allocate; skip `std::vector<...>&` / `*` forms.
            if am.group(0).startswith("std::vector"):
                close = text.find(">", am.end(), end)
                probe = text[close + 1:close + 4] if close >= 0 else ""
                if "&" in probe or "*" in probe:
                    continue
            report(bisect.bisect_right(line_starts, am.start()),
                   "Bytes/std::vector construction inside a per-frame "
                   "loop; the hot path must not allocate — stage into "
                   "reusable scratch (RxScratch/ShardBuf) or hoist the "
                   "copy out of the loop")


CLASS_OPEN_RE = re.compile(r"\b(?:class|struct)\s+[A-Za-z_]\w*[^;{(]*\{")
SNAPSHOT_SAVE_RE = re.compile(r"\bsnapshot_save\s*\(")
# A member declaration of an unordered container, anchored at the start of
# the line so parameter lists inside method signatures don't match.
UNSAFE_CONTAINER_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:static\s+)?std::unordered_(map|set)\s*<")
# A raw pointer member (whole-line declaration, optional brace init). The
# captured type group is checked for `const`: a const pointee is a
# reference to immutable deployment identity, which snapshots fingerprint
# rather than capture.
PTR_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?"
    r"((?:[A-Za-z_][\w:]*\s+)*[A-Za-z_][\w:]*(?:<[^;()]*>)?)"
    r"\s*\*+\s*\w+\s*(?:\{[^;()]*\})?\s*;")


def rule_snapshot_unsafe_state(src: SourceFile, report) -> None:
    text = "\n".join(src.code_lines)
    line_starts = [0]
    for ln in src.code_lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)
    for m in CLASS_OPEN_RE.finditer(text):
        open_brace = text.index("{", m.start())
        depth = 0
        end = -1
        for k in range(open_brace, len(text)):
            if text[k] == "{":
                depth += 1
            elif text[k] == "}":
                depth -= 1
                if depth == 0:
                    end = k
                    break
        if end < 0:
            continue
        body = text[open_brace + 1:end]
        if not SNAPSHOT_SAVE_RE.search(body):
            continue
        # Walk the body tracking brace depth relative to the class scope,
        # so locals in inline member functions and nested helper structs
        # (whose members are captured via their own encode) are skipped.
        depth = 0
        offset = open_brace + 1
        for raw in body.split("\n"):
            if depth == 0 and "(" not in raw:
                line_no = bisect.bisect_right(line_starts, offset)
                if UNSAFE_CONTAINER_MEMBER_RE.match(raw):
                    report(line_no,
                           "unordered container member in a snapshot-"
                           "captured class; hash iteration order is not "
                           "part of the state — flatten to a sorted/"
                           "insertion-ordered form in snapshot_save() and "
                           "carry an allow() documenting it, or use a flat "
                           "container")
                else:
                    pm = PTR_MEMBER_RE.match(raw)
                    if pm and "const" not in pm.group(1).split():
                        report(line_no,
                               "raw pointer member with a mutable pointee "
                               "in a snapshot-captured class; a snapshot "
                               "buffer cannot own or relocate the pointee "
                               "— capture the pointed-to state by value or "
                               "point at const deployment identity")
            depth += raw.count("{") - raw.count("}")
            offset += len(raw) + 1


RING_CONTAINER_RE = re.compile(
    r"\bstd::(?:vector|array|deque)\s*<\s*(?:vmat::)?KeyRing\b"
    r"|\bnew\s+(?:vmat::)?KeyRing\s*\[")
# `.ring(` / `->ring(` exactly — `ring_contains(` and `ring_seed(` are the
# sanctioned lazy alternatives and must not match.
RING_CALL_RE = re.compile(r"(?:\.|->)ring\s*\(")
NODE_SWEEP_RE = re.compile(r"\bnode_count\b|\bnode_ids\b|\ball_nodes\b")


def rule_eager_ring_materialization(src: SourceFile, report) -> None:
    if not src.in_dir("src"):
        return
    if src.in_dir("keys") and src.basename().startswith(
            ("predistribution.", "key_ring.")):
        return  # the lazy provisioning seam itself
    lines = src.code_lines
    text = "\n".join(lines)
    line_starts = [0]
    for ln in lines:
        line_starts.append(line_starts[-1] + len(ln) + 1)
    for i, line in enumerate(lines, start=1):
        if RING_CONTAINER_RE.search(line):
            report(i, "container of materialized KeyRing objects — the "
                      "pre-diet provisioning shape; keep the 8-byte ring "
                      "seeds and re-derive through Predistribution's LRU")
    for m in FOR_RE.finditer(text):
        open_pos = text.index("(", m.start())
        hdr_end = _balanced_span(text, open_pos)
        if hdr_end < 0:
            continue
        if not NODE_SWEEP_RE.search(text[open_pos:hdr_end]):
            continue
        # Body: the brace block (or single statement) after the header.
        j = hdr_end
        while j < len(text) and text[j] in " \t\n":
            j += 1
        if j >= len(text):
            continue
        if text[j] == "{":
            depth = 0
            end = -1
            for k in range(j, len(text)):
                if text[k] == "{":
                    depth += 1
                elif text[k] == "}":
                    depth -= 1
                    if depth == 0:
                        end = k + 1
                        break
            if end < 0:
                continue
        else:
            end = text.find(";", j)
            end = len(text) if end < 0 else end + 1
        for rm in RING_CALL_RE.finditer(text, j, end):
            report(bisect.bisect_right(line_starts, rm.start()),
                   "ring() materialized for every node in a whole-network "
                   "sweep; this thrashes the LRU and re-derives n rings — "
                   "use ring_seed()/ring_contains() or the derive-based "
                   "paths instead")


RULES = {
    "determinism-rng": rule_determinism_rng,
    "eager-ring-materialization": rule_eager_ring_materialization,
    "env-knob": rule_env_knob,
    "mac-verify-discarded": rule_mac_verify_discarded,
    "missing-nodiscard": rule_missing_nodiscard,
    "key-memcpy": rule_key_memcpy,
    "threadpool-ref-capture": rule_threadpool_ref_capture,
    "stdout-in-src": rule_stdout_in_src,
    "predicate-purity": rule_predicate_purity,
    "hot-path-alloc": rule_hot_path_alloc,
    "snapshot-unsafe-state": rule_snapshot_unsafe_state,
}


def lint_file(src: SourceFile, only: set[str] | None) -> list[Violation]:
    out: list[Violation] = []
    # Sorted so reporting order is (file, line, rule)-deterministic by
    # construction, independent of dict insertion order; main()'s final
    # sort then has nothing left to disambiguate.
    for rule_name, fn in sorted(RULES.items()):
        if only and rule_name not in only:
            continue

        def report(line: int, message: str, _rule=rule_name) -> None:
            if not src.allowed(_rule, line):
                out.append(Violation(src.rel, line, _rule, message))

        fn(src, report)
    return out


def collect(root: Path, paths: list[str]) -> list[SourceFile]:
    files: list[SourceFile] = []
    seen: set[Path] = set()
    for spec in paths:
        p = (root / spec) if not Path(spec).is_absolute() else Path(spec)
        if p.is_file():
            candidates = [p]
        elif p.is_dir():
            candidates = sorted(q for q in p.rglob("*")
                                if q.suffix in CXX_SUFFIXES and q.is_file())
        else:
            print(f"vmat-lint: no such path: {spec}", file=sys.stderr)
            sys.exit(2)
        for q in candidates:
            q = q.resolve()
            if q in seen:
                continue
            seen.add(q)
            try:
                rel = q.relative_to(root.resolve()).as_posix()
            except ValueError:
                rel = q.as_posix()
            files.append(SourceFile(q, rel))
    return files


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(
        prog="vmat-lint",
        description="Protocol-invariant linter for the VMAT codebase.")
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories relative to --root "
                         "(default: src bench tests)")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--rule", action="append", default=[],
                    help="run only this rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule names and exit")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    only = set(args.rule)
    unknown = only - set(RULES)
    if unknown:
        print(f"vmat-lint: unknown rule(s): {', '.join(sorted(unknown))}",
              file=sys.stderr)
        return 2

    root = Path(args.root)
    if not root.is_dir():
        print(f"vmat-lint: --root is not a directory: {root}",
              file=sys.stderr)
        return 2
    paths = args.paths or ["src", "bench", "tests"]

    violations: list[Violation] = []
    for src in collect(root, paths):
        violations.extend(lint_file(src, only or None))

    violations.sort(key=lambda v: (v.path, v.line, v.rule))
    for v in violations:
        print(v)
    if violations:
        print(f"vmat-lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
