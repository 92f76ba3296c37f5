#!/usr/bin/env python3
"""Source-discipline checker: forbidden calls on the paths that must not make them.

Some invariants of this tree fail no functional test when they break; they
only make things slower or weaken what crashsim verifies. Each one is a row
of RULES below:

  path     a file, or a directory (every *.h / *.cc under it)
  scope    a function (its definition, "Class::Name("), FILE or DIR
  allow    where a match is allowed inside the scope: functions of the file
           (FILE scope) or path prefixes (DIR scope)
  forbid   regular expressions that must not match
  message  why, for the CI annotation

Comments are stripped before matching: prose naming a primitive is not a
call. A function named in a row (scope or allow) that cannot be found fails
the check, so a rename cannot silently turn a rule off.

Usage: tools/check_discipline.py [REPO_ROOT]    (default: the checkout)
Exit status: 0 iff every rule holds.
"""

import re
import sys
from pathlib import Path

FILE = "FILE"
DIR = "DIR"

PERSIST = r"pmem::(FlushFence|Flush|Fence|PersistStore64)\("
PUBLISH = PERSIST + r"|FlushPending\(\)"
LOCKS = r"std::lock_guard|std::unique_lock|std::scoped_lock|std::mutex|\.lock\(\)|->lock\(\)"
UNDO = r"AddUndo|WillWrite\(|\.Publish\(\)|->Publish\(\)|PublishStaged"
ARENA_FAST_PATH = (
    "on the arena fast path: it must stay lock-free, persist-free and undo-log-free "
    "(docs/alloc.md)"
)
EPOCH_COMMIT = (
    "persist call on the epoch commit path: fences belong to the epoch advancer "
    "only (docs/epoch.md)"
)
LOCKED = r"fetch_(add|sub|and|or|xor)|exchange|compare_exchange|" + LOCKS
FLUSH_UNORDERED = (
    "locked instruction or lock in a flush path: a LOCK-prefixed instruction "
    "between a clwb and its fence waits for the write-back (DESIGN.md §1); "
    "count in the thread's stats slot"
)
SECOND_HOOK = r"Registry|Instance\(|\.load\("
ONE_CRASH_MODEL = (
    "a second hook is a second crash model (DESIGN.md §1): reach observers "
    "only through NotifyObserver"
)

LOG_CHAIN = r"ForEachEntry\(|epoch_tag\(|next_log\(|seq_range\("
ONE_LOG_READER = "log chains are read only through src/tx/replay.h (DESIGN.md §12)"

POINTER_MAPS = r"PtrMap|ptrmap"
POOL_MAPS = "pointer maps live in the pool (DESIGN.md §7)"

RULES = [
    # Batched persistence (DESIGN.md §10): one append stages, never publishes.
    ("src/tx/log_format.cc", "LogRegion::AppendStaged(", (), [PERSIST],
     "persistence call in the per-entry append path (DESIGN.md §10)"),
    # Telemetry (DESIGN.md §11): none per entry, counters only per batch,
    # and src/stats itself is volatile-only.
    ("src/tx/log_format.cc", "LogRegion::AppendStaged(", (),
     [r"PUDDLES_(COUNT|RECORD|SCOPED|TRACE)|stats::"],
     "telemetry in the per-entry append path (counted once per entry in "
     "Transaction::AppendEntry)"),
    ("src/pmem/flush.cc", "FlushBatch::Add(", (),
     [r"PUDDLES_(SCOPED_TIMER|RECORD_TICKS|TRACE_SPAN)|ScopedTimer|ScopedSpan|NowTicks"],
     "timer or span in a FlushBatch hot path (counter bumps only)"),
    ("src/pmem/flush.cc", "FlushBatch::FlushPending(", (),
     [r"PUDDLES_(SCOPED_TIMER|RECORD_TICKS|TRACE_SPAN)|ScopedTimer|ScopedSpan|NowTicks"],
     "timer or span in a FlushBatch hot path (counter bumps only)"),
    # Flush never orders (DESIGN.md §1): nothing locked between clwb and sfence.
    ("src/pmem/flush.cc", "void Flush(", (), [LOCKED], FLUSH_UNORDERED),
    ("src/pmem/flush.cc", "void Fence(", (), [LOCKED], FLUSH_UNORDERED),
    ("src/pmem/flush.cc", "FlushBatch::FlushPending(", (), [LOCKED], FLUSH_UNORDERED),
    # One crash model (DESIGN.md §1): the PersistObserver is the only hook.
    ("src/pmem/flush.cc", "void Flush(", (), [SECOND_HOOK], ONE_CRASH_MODEL),
    ("src/pmem/flush.cc", "void Fence(", (), [SECOND_HOOK], ONE_CRASH_MODEL),
    ("src/stats", DIR, (),
     [r"pmem::(Flush|Fence|FlushFence|PersistStore64|FlushBatch)|clwb|clflush|sfence"],
     "persistence in src/stats: telemetry is volatile-only (DESIGN.md §11)"),
    # Persist discipline (DESIGN.md §12): raw intrinsics bypass crashsim.
    ("src", DIR, ("src/pmem/",),
     [r"_mm_(clflush|clflushopt|clwb|sfence|mfence)\b"
      r"|__builtin_ia32_(clflush|clflushopt|clwb|sfence|mfence)"
      r"|\basm\b.*\b(clwb|clflushopt|clflush|sfence|mfence)\b"],
     "raw persistence intrinsic outside src/pmem/: use the pmem:: wrappers so "
     "crashsim traces the store (DESIGN.md §12)"),
    # Epoch group commit (docs/epoch.md): the advancer owns every fence.
    ("src/tx/transaction.cc", "Transaction::CommitEpochMode(", (), [PUBLISH], EPOCH_COMMIT),
    ("src/tx/transaction.cc", "Transaction::AbortEpochMode(", (), [PUBLISH], EPOCH_COMMIT),
    ("src/tx/transaction.cc", "Transaction::PublishStagedEpoch(", (), [PUBLISH],
     EPOCH_COMMIT),
    ("src/tx/log_format.cc", "LogRegion::RearmVolatile(", (), [PUBLISH],
     "persist call in the volatile epoch rearm (docs/epoch.md)"),
    ("src/epoch/epoch_sys.cc", FILE,
     ("EpochSys::ServicePublishLocked(", "EpochSys::CloseEpochLocked("), [PUBLISH],
     "persist call outside the advancer's publication points (docs/epoch.md)"),
    # Arena allocator (docs/alloc.md): the hot path and the volatile layer.
    ("src/alloc/arena.cc", "ThreadArena::TryAllocate(", (), [PUBLISH, LOCKS, UNDO],
     ARENA_FAST_PATH),
    ("src/alloc/arena.cc", "ThreadArena::ReleaseSlot(", (), [PUBLISH, LOCKS, UNDO],
     ARENA_FAST_PATH),
    ("src/alloc/arena.cc", "ThreadArena::OwnsLocally(", (), [PUBLISH, LOCKS, UNDO],
     ARENA_FAST_PATH),
    ("src/alloc/arena.cc", "ThreadArena::TryLocalFree(", (), [PUBLISH, LOCKS, UNDO],
     ARENA_FAST_PATH),
    ("src/libpuddles/pool.cc", "Pool::ArenaMalloc(", (), [PUBLISH, LOCKS, UNDO],
     ARENA_FAST_PATH),
    ("src/alloc/arena.cc", FILE, (), [PUBLISH],
     "persistence call in the volatile arena layer (docs/alloc.md)"),
    # One way to allocate (docs/alloc.md): the pool persists nothing itself.
    ("src/libpuddles/pool.cc", FILE, (), [PERSIST],
     "allocator metadata reaches PM only through a transaction's undo log and "
     "commit (docs/alloc.md)"),
    # One log reader (DESIGN.md §12): recovery and the crash-state classifier
    # read log chains only through src/tx/replay.h.
    ("src/crashsim", DIR, (), [LOG_CHAIN], ONE_LOG_READER),
    ("src/daemon", DIR, (), [LOG_CHAIN], ONE_LOG_READER),
    # Pools carry their own pointer maps (DESIGN.md §7): the daemon and its
    # transport neither store nor move them.
    ("src/daemon", DIR, (), [POINTER_MAPS], POOL_MAPS),
    ("src/ipc", DIR, (), [POINTER_MAPS], POOL_MAPS),
    # Pointer maps come from member-pointer registration (DESIGN.md §9).
    ("src/workloads", DIR, (), ["offsetof"],
     "hand-written offsetof pointer map: register member pointers instead"),
]


COMMENT_OR_LITERAL = re.compile(
    r"//[^\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'", re.S)


def strip_comments(text):
    """The file's lines with // and /* */ comments blanked (literals kept)."""
    def blank(match):
        token = match.group(0)
        return "\n" * token.count("\n") if token.startswith("/") else token
    return COMMENT_OR_LITERAL.sub(blank, text).split("\n")


def function_span(lines, signature):
    """(first, last) line indexes of the definition of `signature`, or None.

    A definition starts at column 0 (return type first, as everywhere in this
    tree) and ends where its braces balance; a declaration ends at `;` first.
    """
    for start, line in enumerate(lines):
        if signature not in line or line[:1].isspace():
            continue
        depth, opened = 0, False
        for end in range(start, len(lines)):
            code = COMMENT_OR_LITERAL.sub("", lines[end])
            if not opened and ";" in code and "{" not in code:
                break  # A declaration; keep looking for the definition.
            depth += code.count("{") - code.count("}")
            opened = opened or "{" in code
            if opened and depth <= 0:
                return start, end
    return None


def source_files(root, path):
    base = root / path
    if base.is_file():
        return [base]
    return sorted(p for p in base.rglob("*") if p.suffix in (".h", ".cc"))


def check(root, rule):
    """The violation report lines of one rule (empty when it holds)."""
    path, scope, allow, forbid, message = rule
    if not (root / path).exists():
        return [f"::error::{path} not found; update tools/check_discipline.py"]
    pattern = re.compile("|".join(f"(?:{p})" for p in forbid))
    if scope == FILE:
        signatures = allow
    elif scope == DIR:
        signatures = ()
    else:
        signatures = (scope,)
    problems = []
    for file in source_files(root, path):
        rel = file.relative_to(root).as_posix()
        if scope == DIR and rel.startswith(tuple(allow)):
            continue
        lines = strip_comments(file.read_text())
        spans = [function_span(lines, signature) for signature in signatures]
        missing = [sig for sig, span in zip(signatures, spans) if span is None]
        if missing:
            problems += [f"::error::{rel}: function '{sig}' not found; update "
                         "tools/check_discipline.py" for sig in missing]
            continue
        if scope in (FILE, DIR):
            region = [i for i in range(len(lines))
                      if not any(lo <= i <= hi for lo, hi in spans)]
        else:
            region = range(spans[0][0], spans[0][1] + 1)
        hits = [f"{rel}:{i + 1}: {lines[i].strip()}" for i in region if pattern.search(lines[i])]
        if hits:
            where = rel if scope in (FILE, DIR) else f"{rel}: {scope.rstrip('(')}"
            problems += hits + [f"::error::{where}: {message}"]
    return problems


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    problems = [line for rule in RULES for line in check(root, rule)]
    for line in problems:
        print(line)
    if problems:
        return 1
    print(f"discipline check clean: {len(RULES)} rules hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
