"""Project-specific static lint for the Khazana reproduction.

Run as ``python -m repro.analysis.lint src/ tests/ examples/``.

The rules encode invariants of *this* codebase that generic linters
cannot know:

- **KHZ001 blocking-call** — protocol code (``repro/core``,
  ``repro/consistency``, ``repro/net``, ``repro/failure``) runs inside
  a discrete-event simulation; real ``time.sleep``, socket, file, or
  subprocess I/O would block the single simulation thread and desync
  virtual time.  Everything must go through the sim clock/transport.
- **KHZ002 unhandled-message / missing-fallback / reply-class** —
  every non-reply :class:`~repro.net.message.MessageType` member must
  have a handler registered somewhere (``on(MessageType.X, ...)``);
  every consistency manager defining a ``handle_*_batch`` method must
  also define the per-page ``handle_*`` fallback; every type sent as
  a reply must be classified in ``REPLY_TYPES``.
- **KHZ003 broad-except** — ``except Exception:`` (or bare
  ``except:``) in protocol code may not silently swallow errors: the
  body must log what happened, or the line carries a suppression.
- **KHZ004 stale-context** — within one function, a lock context
  variable may not be passed to ``read``/``write`` after being passed
  to ``unlock`` (lexical, intra-function dataflow; reassignment
  clears the mark).
- **KHZ005 foreign-exception** — exceptions raised in consistency
  code, ``core/daemon.py``, and ``core/locks.py`` must come from the
  :mod:`repro.core.errors` taxonomy (or be built by
  ``error_from_code``/``_typed_denial``), and the raised name must
  actually be bound in the module — catching the
  raise-an-unimported-name bug that only explodes on the error path.
- **KHZ006 private-daemon-attr** — code outside ``repro/core`` may
  not reach into ``_``-private attributes of a daemon/kernel/host
  object.  Consistency managers, tools, analysis code, and tests must
  use the :class:`~repro.core.cmhost.CMHost` surface or another
  public kernel API; private state is free to move between the node
  services without notice.
- **KHZ007 direct-wire** — consistency *policy* modules (everything
  under ``repro/consistency/`` outside ``repro/consistency/engine/``)
  may not touch ``host.rpc`` or call ``host.reply_request`` /
  ``host.reply_error`` directly; all wire traffic goes through the
  :class:`~repro.consistency.engine.ProtocolEngine` primitives so
  retry policies, NAK classification, counters, and task labels stay
  uniform across protocols.
- **KHZ008 direct-scheduler** — no code under ``repro/consistency/``
  (policies *or* engine clients) may call the raw scheduler timer
  surface ``call_at``/``call_later``/``call_soon``.  Timers in the
  consistency layer must ride ``host.sleep``/``host.with_timeout`` or
  a labelled engine spawn, so every consistency-layer event carries a
  stable label the schedule explorer (``repro.analysis.explore``) can
  see and reorder.
- **KHZ009 page-copy** — the data-path hot functions (the
  read/write/residency path in ``core/dataplane.py`` and the
  twin/diff machinery in ``consistency/diffs.py``) move pages by
  reference: stored buffers are frozen, so slices travel as
  ``memoryview``s and a ``bytes(...)`` call is a whole-page copy
  until proven otherwise.  Every ``bytes(...)`` call in those
  functions must carry an ``allow-copy`` suppression naming why the
  copy is mandatory (e.g. a client-facing return must own its bytes).
- **KHZ010 spawn-label** — every task launched via ``.spawn(...)``,
  ``.spawn_handler(...)``, or ``.pipeline(...)`` must carry a stable,
  non-empty label (positional or ``label=``/``op=``): the schedule
  explorer, message tracer, and race detector all key on task labels,
  and an unlabeled task falls back to an anonymous name that changes
  between runs.
- **KHZ011 runtime-dep** — wall-clock, asyncio, and socket calls
  (``time.time``/``time.monotonic``/``time.perf_counter``/
  ``time.sleep``, ``asyncio.*``, ``socket.*``, ``selectors.*``) are
  fenced inside the two runtime-seam modules (``repro/net/aio.py``,
  ``repro/net/tcp.py``); driver modules (the cluster launcher and
  the wall-clock benchmarks) may own loops and clocks but still may
  not open sockets.  Everything else must stay runtime-agnostic so
  the same protocol code runs over the simulator and over TCP.
- **KHZ012 placement-seam** (in :mod:`repro.analysis.lint_placement`)
  — outside ``repro/core/placement/``, shipped code may not read
  ``config.cluster_manager_node`` or import/call the rendezvous ring
  math; placement decisions go through the
  :class:`~repro.core.placement.PlacementStrategy` seam.
- **KHZ013 static-table** (in :mod:`repro.analysis.lint_protocol`)
  — ``TRANSITIONS`` tables and ``PageEvent``/``MessageType`` dispatch
  maps must stay statically extractable: pure literals, no runtime
  mutation or computed keys, so the Layer 5 protocol verifier
  (:mod:`repro.analysis.protocol`) always sees the real automaton.

Suppression: append ``# khz: allow-<slug>(reason)`` to the flagged
line.  The reason is mandatory; an empty one is itself an error.
Slugs: ``blocking-call``, ``unhandled-message``, ``missing-fallback``,
``reply-class``, ``broad-except``, ``stale-context``,
``foreign-exception``, ``private-daemon-attr``, ``direct-wire``,
``direct-scheduler``, ``copy``, ``spawn-label``, ``runtime-dep``,
``placement-seam``, ``static-table``.

The whole-program flow analyzer (:mod:`repro.analysis.flow`) layers
interprocedural checks (KHZ101 lock-order, KHZ102 reply-path, KHZ103
await-discipline) on the same :class:`SourceFile`/suppression
machinery; see ``docs/analysis.md``.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.sources import (   # re-exported for compatibility
    SUPPRESS_RE,
    SourceFile,
    collect as _collect,
)

#: Dotted-call prefixes that block the simulation thread.
BLOCKING_PREFIXES = (
    "time.sleep",
    "socket.",
    "subprocess.",
    "os.system",
    "os.popen",
    "select.select",
    "selectors.",
    "requests.",
    "urllib.request.",
    "http.client.",
)

#: Method names whose presence in an except body counts as logging.
LOG_METHODS = {"debug", "info", "warning", "error", "exception", "critical",
               "log", "warn"}

#: Paths (posix substrings) where KHZ001 applies.
SIM_SCOPES = ("repro/core/", "repro/consistency/", "repro/net/",
              "repro/failure/")

#: Paths where KHZ005 applies.
TAXONOMY_SCOPES = ("repro/consistency/",)
TAXONOMY_FILES = ("repro/core/daemon.py", "repro/core/locks.py")

#: Names that construct taxonomy errors without naming a class.
TAXONOMY_FACTORIES = {"error_from_code", "_typed_denial", "typed_denial"}

#: Variable names that (by convention) hold a daemon/kernel object.
DAEMONISH_NAME_RE = re.compile(r"^(?:daemon|host|kernel)\w*$")

#: Path substring marking the only package allowed to touch daemon
#: internals (KHZ006).
KERNEL_SCOPE = "repro/core/"

#: Paths where KHZ007 applies (policy side of the consistency layer).
POLICY_SCOPE = "repro/consistency/"
#: ... except the engine, which *is* the wire layer.
ENGINE_SCOPE = "repro/consistency/engine/"

#: Reply methods a policy must reach via engine.reply / engine.nak.
REPLY_METHODS = ("reply_request", "reply_error")

#: Raw scheduler timer methods (KHZ008): consistency code must not
#: schedule unlabelled events; use host.sleep / host.with_timeout or a
#: labelled engine spawn instead.
SCHEDULER_METHODS = ("call_at", "call_later", "call_soon")

#: KHZ009: zero-copy hot functions, per file (path substring ->
#: function names).  ``bytes(...)`` inside these needs an
#: ``allow-copy`` justification.
COPY_FREE_FUNCS: Dict[str, Tuple[str, ...]] = {
    "repro/core/dataplane.py": (
        "op_read", "op_write", "try_read_fast", "try_write_fast",
        "local_page_bytes", "store_local_page",
    ),
    "repro/consistency/diffs.py": (
        "compute_diff", "apply_diff", "remember", "diff_update",
    ),
}


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


class _Reporter:
    """Collects findings, honoring same-line suppressions."""

    def __init__(self) -> None:
        self.findings: List[Finding] = []

    def flag(self, sf: SourceFile, line: int, rule: str, slug: str,
             message: str) -> None:
        for found_slug, reason in sf.suppressions.get(line, ()):
            if found_slug != slug:
                continue
            if not reason.strip():
                self.findings.append(Finding(
                    sf.path, line, rule,
                    f"suppression allow-{slug} needs a written reason",
                ))
            return
        self.findings.append(Finding(sf.path, line, rule, message))


def _in_scope(path: str, scopes: Sequence[str] = (),
              files: Sequence[str] = ()) -> bool:
    return any(scope in path for scope in scopes) or any(
        path.endswith(name) for name in files
    )


def _import_map(tree: ast.AST) -> Dict[str, str]:
    """Local name -> dotted origin for every import in the module."""
    origins: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                origins[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                origins[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
    return origins


def _dotted_call_name(func: ast.expr,
                      origins: Dict[str, str]) -> Optional[str]:
    """Resolve a call target to a dotted name via the import map."""
    parts: List[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = origins.get(node.id, node.id if not parts else None)
    if root is None:
        return None
    return ".".join([root] + list(reversed(parts)))


# ---------------------------------------------------------------------------
# KHZ001: no blocking calls in simulation code
# ---------------------------------------------------------------------------

def check_blocking_calls(sf: SourceFile, reporter: _Reporter) -> None:
    if not _in_scope(sf.path, scopes=SIM_SCOPES):
        return
    origins = _import_map(sf.tree)
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            reporter.flag(
                sf, node.lineno, "KHZ001", "blocking-call",
                "real file I/O (open) in simulation code; use the "
                "storage hierarchy",
            )
            continue
        dotted = _dotted_call_name(node.func, origins)
        if dotted is None:
            continue
        for prefix in BLOCKING_PREFIXES:
            if dotted == prefix or (prefix.endswith(".")
                                    and dotted.startswith(prefix)):
                reporter.flag(
                    sf, node.lineno, "KHZ001", "blocking-call",
                    f"blocking call {dotted} in simulation code; use "
                    "the sim clock/transport instead",
                )
                break


# ---------------------------------------------------------------------------
# KHZ002: MessageType completeness (project-wide)
# ---------------------------------------------------------------------------

def _message_enum(sf: SourceFile) -> Tuple[Dict[str, int], Set[str]]:
    """(member name -> line) of MessageType, and REPLY_TYPES names."""
    members: Dict[str, int] = {}
    replies: Set[str] = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ClassDef) and node.name == "MessageType":
            for stmt in node.body:
                if (isinstance(stmt, ast.Assign)
                        and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)):
                    members[stmt.targets[0].id] = stmt.lineno
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "REPLY_TYPES"
                        for t in node.targets)):
            for sub in ast.walk(node.value):
                if (isinstance(sub, ast.Attribute)
                        and isinstance(sub.value, ast.Name)
                        and sub.value.id == "MessageType"):
                    replies.add(sub.attr)
    return members, replies


def _message_type_args(call: ast.Call) -> List[str]:
    names = []
    for arg in call.args:
        if (isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "MessageType"):
            names.append(arg.attr)
    return names


def check_message_completeness(files: Sequence[SourceFile],
                               reporter: _Reporter) -> None:
    message_sf = next(
        (sf for sf in files if sf.path.endswith("repro/net/message.py")),
        None,
    )
    if message_sf is None:
        return
    members, replies = _message_enum(message_sf)

    handled: Set[str] = set()
    for sf in files:
        if "repro/" not in sf.path:
            continue
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # `on(...)` is the raw RPC registration; `register`/`reg`
            # are the MessageRouter's route registrations.
            is_on = (
                isinstance(func, ast.Name) and func.id in ("on", "reg")
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr in ("on", "register")
            )
            if is_on:
                handled.update(_message_type_args(node))
                continue
            # Reply classification: types sent as replies must be in
            # REPLY_TYPES or the RPC layer cannot account for them.
            is_reply_call = isinstance(func, ast.Attribute) and func.attr in (
                "reply", "reply_request"
            )
            if is_reply_call:
                for name in _message_type_args(node):
                    if name in members and name not in replies:
                        reporter.flag(
                            sf, node.lineno, "KHZ002", "reply-class",
                            f"MessageType.{name} is sent as a reply but "
                            "missing from REPLY_TYPES",
                        )

    for name, line in sorted(members.items(), key=lambda kv: kv[1]):
        if name in replies or name in handled:
            continue
        reporter.flag(
            message_sf, line, "KHZ002", "unhandled-message",
            f"MessageType.{name} has no registered handler "
            "(no on(MessageType.{0}, ...) anywhere)".format(name),
        )

    # Batch fallback: a CM handling the batched form of an operation
    # must also handle the per-page form, or a peer with batching
    # disabled cannot talk to it.
    for sf in files:
        if "repro/consistency/" not in sf.path:
            continue
        for node in ast.walk(sf.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            methods = {
                stmt.name: stmt.lineno
                for stmt in node.body
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            for name, line in sorted(methods.items()):
                if not (name.startswith("handle_")
                        and name.endswith("_batch")):
                    continue
                fallback = name[: -len("_batch")]
                if fallback not in methods:
                    reporter.flag(
                        sf, line, "KHZ002", "missing-fallback",
                        f"{node.name}.{name} has no per-page fallback "
                        f"{fallback}",
                    )


# ---------------------------------------------------------------------------
# KHZ003: no silent broad excepts in protocol code
# ---------------------------------------------------------------------------

def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names: List[str] = []
    if isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    elif isinstance(handler.type, ast.Tuple):
        names = [e.id for e in handler.type.elts if isinstance(e, ast.Name)]
    return "Exception" in names


def _body_logs(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in LOG_METHODS):
            return True
    return False


def check_broad_except(sf: SourceFile, reporter: _Reporter) -> None:
    if "repro/" not in sf.path:
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad(node):
            continue
        if _body_logs(node):
            continue
        what = ("bare except" if node.type is None
                else "except Exception")
        reporter.flag(
            sf, node.lineno, "KHZ003", "broad-except",
            f"{what} in protocol code must log what it swallowed, "
            "narrow the type, or carry a suppression",
        )


# ---------------------------------------------------------------------------
# KHZ004: no read/write with a context after its unlock
# ---------------------------------------------------------------------------

_UNLOCK_METHODS = {"unlock", "op_unlock"}
_ACCESS_METHODS = {"read", "write", "op_read", "op_write"}


def _first_name_arg(call: ast.Call) -> Optional[str]:
    if call.args and isinstance(call.args[0], ast.Name):
        return call.args[0].id
    return None


def check_stale_contexts(sf: SourceFile, reporter: _Reporter) -> None:
    for func in ast.walk(sf.tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        events: List[Tuple[int, int, str, str]] = []
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                name = _first_name_arg(node)
                if name is None:
                    continue
                if node.func.attr in _UNLOCK_METHODS:
                    events.append((node.lineno, node.col_offset,
                                   "unlock", name))
                elif node.func.attr in _ACCESS_METHODS:
                    events.append((node.lineno, node.col_offset,
                                   "access", name))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        events.append((node.lineno, node.col_offset,
                                       "assign", target.id))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                # ``with dp.op_lock(...) as ctx:`` re-binds ctx just
                # like an assignment; without this, a fresh context
                # bound by ``as`` after an unlock of the same name
                # would be flagged as stale.
                for item in node.items:
                    if isinstance(item.optional_vars, ast.Name):
                        events.append((node.lineno, node.col_offset,
                                       "assign", item.optional_vars.id))
        unlocked: Set[str] = set()
        for lineno, _col, kind, name in sorted(events):
            if kind == "unlock":
                unlocked.add(name)
            elif kind == "assign":
                unlocked.discard(name)
            elif kind == "access" and name in unlocked:
                reporter.flag(
                    sf, lineno, "KHZ004", "stale-context",
                    f"context {name!r} is used after being unlocked "
                    f"earlier in {func.name}",
                )


# ---------------------------------------------------------------------------
# KHZ005: raised exceptions come from the core.errors taxonomy
# ---------------------------------------------------------------------------

def _taxonomy_names() -> Set[str]:
    from repro.core import errors as errors_module

    names = set()
    for attr in dir(errors_module):
        obj = getattr(errors_module, attr)
        if (isinstance(obj, type)
                and issubclass(obj, errors_module.KhazanaError)):
            names.add(attr)
    return names


def _bound_names(tree: ast.AST) -> Set[str]:
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound.add(alias.asname or alias.name)
        elif isinstance(node, (ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            bound.add(node.name)
    return bound


def _local_taxonomy_subclasses(tree: ast.AST,
                               taxonomy: Set[str]) -> Set[str]:
    """Classes defined in this module deriving from a taxonomy name."""
    local: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef) or node.name in local:
                continue
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            bases.update(
                b.attr for b in node.bases if isinstance(b, ast.Attribute)
            )
            if bases & (taxonomy | local):
                local.add(node.name)
                changed = True
    return local


def check_error_taxonomy(sf: SourceFile, reporter: _Reporter,
                         taxonomy: Set[str]) -> None:
    if not _in_scope(sf.path, scopes=TAXONOMY_SCOPES, files=TAXONOMY_FILES):
        return
    bound = _bound_names(sf.tree)
    local = _local_taxonomy_subclasses(sf.tree, taxonomy)
    allowed = taxonomy | local | TAXONOMY_FACTORIES
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc
        if isinstance(exc, ast.Name):
            continue   # re-raise of a caught variable
        if not isinstance(exc, ast.Call):
            continue
        callee = exc.func
        if isinstance(callee, ast.Attribute):
            name = callee.attr
        elif isinstance(callee, ast.Name):
            name = callee.id
        else:
            continue
        if name not in allowed:
            reporter.flag(
                sf, node.lineno, "KHZ005", "foreign-exception",
                f"raise {name}(...) is outside the core.errors "
                "taxonomy; raise a KhazanaError subclass so clients "
                "get a typed, wire-codable failure",
            )
        elif isinstance(callee, ast.Name) and name not in bound:
            reporter.flag(
                sf, node.lineno, "KHZ005", "foreign-exception",
                f"raise {name}(...) but {name} is never imported in "
                "this module — NameError on the error path",
            )


# ---------------------------------------------------------------------------
# KHZ006: private daemon attribute access outside repro/core
# ---------------------------------------------------------------------------

def _names_a_daemon(expr: ast.expr) -> bool:
    """Heuristic: does this expression evaluate to a daemon/kernel?

    Covers the three shapes that occur in practice: a local named
    ``daemon``/``host``/``kernel`` (with suffixes, e.g. ``daemon2``),
    an attribute of that name (``self.daemon``, ``cm.host``), and the
    test-harness accessor ``cluster.daemon(0)``.
    """
    if isinstance(expr, ast.Name):
        return bool(DAEMONISH_NAME_RE.match(expr.id))
    if isinstance(expr, ast.Attribute):
        return expr.attr in ("daemon", "host", "kernel")
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Attribute):
            return func.attr == "daemon"
        if isinstance(func, ast.Name):
            return func.id == "daemon"
    return False


def check_private_daemon_access(sf: SourceFile,
                                reporter: _Reporter) -> None:
    if KERNEL_SCOPE in sf.path:
        return   # the kernel and its services own this state
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        if _names_a_daemon(node.value):
            reporter.flag(
                sf, node.lineno, "KHZ006", "private-daemon-attr",
                f"access to private daemon attribute .{attr} outside "
                "repro/core; use the CMHost protocol or a public "
                "kernel API instead",
            )


# ---------------------------------------------------------------------------
# KHZ007: policy modules reach the wire only through the engine
# ---------------------------------------------------------------------------

def check_direct_wire(sf: SourceFile, reporter: _Reporter) -> None:
    if POLICY_SCOPE not in sf.path or ENGINE_SCOPE in sf.path:
        return
    for node in ast.walk(sf.tree):
        if (isinstance(node, ast.Attribute)
                and node.attr == "rpc"
                and _names_a_daemon(node.value)):
            reporter.flag(
                sf, node.lineno, "KHZ007", "direct-wire",
                "policy code touches host.rpc directly; go through "
                "engine.request/engine.send so retry policies and "
                "counters stay uniform",
            )
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in REPLY_METHODS
                and _names_a_daemon(node.func.value)):
            reporter.flag(
                sf, node.lineno, "KHZ007", "direct-wire",
                f"policy code calls host.{node.func.attr} directly; "
                "go through engine.reply/engine.nak",
            )


# ---------------------------------------------------------------------------
# KHZ008: consistency code never touches the raw scheduler timers
# ---------------------------------------------------------------------------

def check_direct_scheduler(sf: SourceFile, reporter: _Reporter) -> None:
    if POLICY_SCOPE not in sf.path:
        return
    for node in ast.walk(sf.tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULER_METHODS):
            reporter.flag(
                sf, node.lineno, "KHZ008", "direct-scheduler",
                f"consistency code calls .{node.func.attr} on the "
                "scheduler directly; use host.sleep/host.with_timeout "
                "or a labelled engine spawn so the event carries a "
                "label the schedule explorer can see",
            )


# ---------------------------------------------------------------------------
# KHZ009: no unjustified page copies in the zero-copy hot path
# ---------------------------------------------------------------------------

def check_page_copies(sf: SourceFile, reporter: _Reporter) -> None:
    funcs: Tuple[str, ...] = ()
    for path_part, names in COPY_FREE_FUNCS.items():
        if path_part in sf.path:
            funcs = names
            break
    if not funcs:
        return
    for node in ast.walk(sf.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name not in funcs:
            continue
        for call in ast.walk(node):
            if (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name)
                    and call.func.id == "bytes"
                    and call.args):
                reporter.flag(
                    sf, call.lineno, "KHZ009", "copy",
                    f"bytes(...) in zero-copy hot function "
                    f"{node.name}() copies a page-sized buffer; pass "
                    "a memoryview through, or justify the copy with "
                    "allow-copy(reason)",
                )


# ---------------------------------------------------------------------------
# KHZ010: every spawned task carries a stable, non-empty label
# ---------------------------------------------------------------------------

#: Task-launching methods and the argument position of their label:
#: ``spawn(gen, label)``, ``spawn_handler(msg, gen, label)``,
#: ``pipeline(gens, op=...)``.  The keyword spelling differs per
#: surface (``label=`` on the kernel/task layer, ``op=`` on the
#: engine), so both are accepted.
_SPAWN_LABEL_POSITION = {"spawn": 2, "spawn_handler": 3, "pipeline": 2}
_SPAWN_LABEL_KEYWORDS = ("label", "op")


def check_spawn_labels(sf: SourceFile, reporter: _Reporter) -> None:
    if "repro/" not in sf.path:
        return
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)):
            continue
        attr = node.func.attr
        position = _SPAWN_LABEL_POSITION.get(attr)
        if position is None:
            continue
        label_kw = next(
            (kw for kw in node.keywords
             if kw.arg in _SPAWN_LABEL_KEYWORDS),
            None,
        )
        if label_kw is not None:
            label_value: Optional[ast.expr] = label_kw.value
        elif len(node.args) >= position:
            label_value = node.args[position - 1]
        else:
            reporter.flag(
                sf, node.lineno, "KHZ010", "spawn-label",
                f".{attr}(...) launches a task without a label; the "
                "schedule explorer and trace tooling key on stable "
                "task labels",
            )
            continue
        if (isinstance(label_value, ast.Constant)
                and isinstance(label_value.value, str)
                and not label_value.value.strip()):
            reporter.flag(
                sf, node.lineno, "KHZ010", "spawn-label",
                f".{attr}(...) task label is empty; give the task a "
                "stable, non-empty label",
            )


# ---------------------------------------------------------------------------
# KHZ011: wall-clock, asyncio and socket use stays in the runtime seam
# ---------------------------------------------------------------------------

#: The only modules allowed to touch the real clock, asyncio, or
#: sockets directly: they *implement* the Runtime/Transport seam.
RUNTIME_MODULES = ("repro/net/aio.py", "repro/net/tcp.py")

#: Top-level drivers that own an event loop or measure wall time
#: (launchers and benchmarks).  They may use ``time.*`` and
#: ``asyncio.*`` but still must not open sockets themselves — all
#: wire traffic goes through a Transport.
DRIVER_MODULES = ("repro/tools/cluster.py", "repro/bench/transport.py",
                  "repro/bench/hotpath.py", "repro/bench/placement.py",
                  "repro/bench/addressmap.py")

#: Dotted-call prefixes that bind code to a real runtime (KHZ011).
RUNTIME_PREFIXES = (
    "time.time",
    "time.monotonic",
    "time.perf_counter",
    "time.sleep",
    "asyncio.",
    "socket.",
    "selectors.",
)

#: The subset drivers may not use even though they own a loop.
SOCKET_PREFIXES = ("socket.", "selectors.")

#: In KHZ001 territory (SIM_SCOPES) the blocking-call rule already
#: polices sleep/socket/selectors with its own slug; KHZ011 adds only
#: what KHZ001 cannot see (clock reads and asyncio), so one offence
#: never needs two suppressions.
_SIM_ONLY_PREFIXES = tuple(
    prefix for prefix in RUNTIME_PREFIXES
    if prefix not in BLOCKING_PREFIXES
)


def check_runtime_deps(sf: SourceFile, reporter: _Reporter) -> None:
    """KHZ011: protocol and library code must be runtime-agnostic.

    The whole point of the :class:`~repro.net.runtime.Runtime` seam is
    that NodeKernel, the protocol engine, and every CM policy run
    unmodified over the simulator *and* the asyncio backend.  A stray
    ``time.time()`` or ``asyncio.sleep`` outside the seam quietly
    breaks that: virtual-time runs stop being deterministic, and the
    sim stops being a correctness oracle for the real deployment.
    """
    if "repro/" not in sf.path:
        return
    if _in_scope(sf.path, files=RUNTIME_MODULES):
        return
    if _in_scope(sf.path, files=DRIVER_MODULES):
        prefixes = SOCKET_PREFIXES
    elif _in_scope(sf.path, scopes=SIM_SCOPES):
        prefixes = _SIM_ONLY_PREFIXES
    else:
        prefixes = RUNTIME_PREFIXES
    origins = _import_map(sf.tree)
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted_call_name(node.func, origins)
        if dotted is None:
            continue
        for prefix in prefixes:
            if dotted == prefix or (prefix.endswith(".")
                                    and dotted.startswith(prefix)):
                reporter.flag(
                    sf, node.lineno, "KHZ011", "runtime-dep",
                    f"{dotted} binds this module to a real runtime; "
                    "go through the Runtime seam (repro/net/aio.py, "
                    "repro/net/tcp.py) or a driver module instead",
                )
                break


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def lint_files(files: Sequence[SourceFile]) -> List[Finding]:
    """Run every rule over parsed files; returns sorted findings."""
    # Local import: lint_placement borrows this module's AST helpers.
    from repro.analysis.lint_placement import check_placement_seam
    from repro.analysis.lint_protocol import check_static_tables

    reporter = _Reporter()
    taxonomy = _taxonomy_names()
    for sf in files:
        check_blocking_calls(sf, reporter)
        check_broad_except(sf, reporter)
        check_stale_contexts(sf, reporter)
        check_error_taxonomy(sf, reporter, taxonomy)
        check_private_daemon_access(sf, reporter)
        check_direct_wire(sf, reporter)
        check_direct_scheduler(sf, reporter)
        check_page_copies(sf, reporter)
        check_spawn_labels(sf, reporter)
        check_runtime_deps(sf, reporter)
        check_placement_seam(sf, reporter)
        check_static_tables(sf, reporter)
    check_message_completeness(files, reporter)
    return sorted(reporter.findings, key=lambda f: (f.path, f.line, f.rule))


def lint_source(source: str, path: str = "src/repro/example.py",
                extra: Optional[Sequence[SourceFile]] = None) -> List[Finding]:
    """Lint one in-memory source blob (used by the fixture tests).

    ``path`` controls which path-scoped rules apply; ``extra`` supplies
    additional files for the project-wide KHZ002 pass.
    """
    files = [SourceFile.parse(path, source)]
    if extra:
        files.extend(extra)
    return lint_files(files)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args:
        args = ["src/"]
    files = _collect(args)
    findings = lint_files(files)
    for finding in findings:
        print(finding.render())
    print(
        f"repro.analysis.lint: {len(files)} file(s), "
        f"{len(findings)} finding(s)"
    )
    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
