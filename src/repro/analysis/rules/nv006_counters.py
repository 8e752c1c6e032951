"""NV006 — counters are owned: no mutation through a foreign handle.

The cycle/event counters (``*_count``, ``*_cycles``, ``cycles``,
``events``, the int64 event rows ``counter_*`` such as ``counter_row``
and ``counter_total``, and the paging conservation set:
``blocks_allocated``, ``blocks_freed``, ``evictions``, ``live_tokens``,
...) feed the energy model and the golden traces directly.  Their
invariants (monotonicity, conservation) hold because each owner
mutates its own counters inside its accounting methods.  Code that
reaches *through* a handle — ``engine.counters.events += 1``,
``seq.cache.evictions = 0``, ``seq.counter_total += row`` — bypasses
that accounting and silently skews every downstream report.

Flagged: an assignment or augmented assignment whose target is a
counter-named attribute on any receiver other than bare ``self``.
``self.evictions += n`` inside the owner is the accounting helper and
passes; ``self.pool.live_tokens`` style writes are only legitimate in
``repro.core.paging``, which *is* the pool's accounting layer and is
exempt.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules._common import dotted_name

__all__ = ["CounterOwnershipRule"]

_EXACT = {
    "cycles",
    "events",
    "blocks_allocated",
    "blocks_freed",
    "evictions",
    "deferrals",
    "preemptions",
    "peak_in_use",
    "live_tokens",
    "pages_allocated",
}

_SUFFIXES = ("_count", "_counts", "_cycles")

#: Event rows indexed by OVERLAY_EVENTS (``counter_row``,
#: ``counter_total``).
_PREFIXES = ("counter_",)


def _is_counter(attr: str) -> bool:
    return (
        attr in _EXACT or attr.endswith(_SUFFIXES)
        or attr.startswith(_PREFIXES)
    )


class CounterOwnershipRule(Rule):
    rule_id = "NV006"
    title = "counter mutation only by the owning object"
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.core.paging"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            targets: list[ast.expr]
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if not isinstance(target, ast.Attribute):
                    continue
                if not _is_counter(target.attr):
                    continue
                receiver = target.value
                if isinstance(receiver, ast.Name) and receiver.id == "self":
                    continue
                shown = dotted_name(target) or f"<expr>.{target.attr}"
                yield ctx.finding(
                    self,
                    node,
                    f"counter write {shown} through a foreign handle "
                    "bypasses the owner's accounting; add/extend an "
                    "accounting method on the owner instead",
                )
