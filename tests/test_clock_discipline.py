"""Lint-style guard: no wall-clock reads in latency/span arithmetic.

Every timestamp that feeds the LRS controller, the tracer, or the delay
decomposition must come from an injected Clock port (``time.monotonic``
on the runtime, ``sim.now`` on the engine).  A stray ``time.time()``
silently corrupts span durations when the system clock steps, so this
test greps the source tree and fails on any wall-clock call outside the
(currently empty) allowlist.
"""

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: wall-clock calls that must never appear in src/
FORBIDDEN = re.compile(
    r"time\.time\(|datetime\.now\(|datetime\.utcnow\(|time\.clock\(")

#: repo-relative paths allowed to read the wall clock (none today);
#: add entries only for user-facing timestamps, never span arithmetic.
ALLOWED = frozenset()


def test_no_wall_clock_calls_in_src():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in ALLOWED:
            continue
        text = path.read_text(encoding="utf-8")
        for number, line in enumerate(text.splitlines(), start=1):
            if FORBIDDEN.search(line):
                offenders.append("%s:%d: %s" % (relative, number,
                                                line.strip()))
    assert not offenders, (
        "wall-clock call(s) found; use the injected Clock port "
        "(time.monotonic / sim.now) instead:\n" + "\n".join(offenders))


def test_core_never_sleeps():
    # core/ is sans-IO: a protocol that needs to wait yields the delay
    # and its substrate spends it (time.sleep / an engine timeout).
    offenders = [path.relative_to(SRC).as_posix()
                 for path in sorted((SRC / "repro" / "core").rglob("*.py"))
                 if "time.sleep(" in path.read_text(encoding="utf-8")]
    assert not offenders, "core/ module(s) sleep: %s" % offenders


def test_master_owns_no_clock():
    # The master's periodic duties (failure sweep, checkpoint cadence)
    # are deadlines on its runtime's worker loop, the runtime's one
    # timer: the master module starts no thread and never sleeps.
    text = (SRC / "repro" / "runtime" / "master.py").read_text(
        encoding="utf-8")
    assert "class Master" in text, "the guard lost its target"
    offenders = [line.strip() for line in text.splitlines()
                 if re.search(r"threading\.Thread|time\.sleep", line)]
    assert not offenders, "runtime/master.py keeps a clock: %s" % offenders


def test_migration_protocol_imports_no_substrate():
    # The sans-IO protocols both substrates drive: migration/drain and
    # the bounded admission queue.
    for module in ("migration.py", "admission.py"):
        text = (SRC / "repro" / "core" / module).read_text(encoding="utf-8")
        imported = re.findall(r"^\s*(?:from|import)\s+([\w.]+)", text,
                              flags=re.MULTILINE)
        assert imported, "the import scan found nothing to check"
        banned = [name for name in imported
                  if name in ("time", "threading")
                  or name.startswith(("repro.runtime", "repro.simulation"))]
        assert not banned, "core/%s imports %s" % (module, banned)


def test_src_tree_is_where_we_think_it_is():
    # Guard the guard: if the layout moves, the grep must not silently
    # pass over an empty directory.
    assert (SRC / "repro" / "trace" / "spans.py").is_file()
