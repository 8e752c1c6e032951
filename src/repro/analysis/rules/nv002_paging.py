"""NV002 — block accounting stays inside the paging layer.

``BlockPool`` conservation (``blocks_allocated - blocks_freed ==
len(in use)``, every ``free`` matched to one ``allocate``) is what the
paged-KV goldens pin down.  Callers hold pools, but only the paging
layer's own structures (:class:`BlockTable` / :class:`PagedKVCache` /
:class:`ReservedKVCache`) may call ``allocate``/``free`` or
``reserve_run``/``release_run`` — a scheduler or engine reaching into
the pool directly can double-free or leak a block in a way no golden
trace would localise.

Prefix caching widens the invariant surface: reference counts
(``share``) and the prefix index (``register_prefix`` /
``forget_prefix``) are the same conservation story — one stray
``share`` outside the paging layer leaks a block forever, one stray
``forget_prefix`` silently stops deduplication.  Read-only probes
(``probe_prefix``, ``refcount``) stay legal everywhere: the scheduler's
admission path uses them and they cannot move a counter.

The check is name-based: a method call ``X.allocate(...)``,
``X.free(...)``, ``X.reserve_run(...)``, ``X.release_run(...)``,
``X.share(...)``, ``X.register_prefix(...)``,
``X.forget_prefix(...)`` or ``X.lookup_prefix(...)`` is flagged when
the receiver expression mentions ``pool`` (``pool``,
``self.block_pool``, ``seq.pool``...), in any module other than
``repro.core.paging``.  ``lookup_prefix`` is mutating too — it counts
hits and misses, and those counters are golden-pinned.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules._common import dotted_name, receiver_of

__all__ = ["BlockPoolAccessRule"]


#: Pool methods that mutate block accounting state — refcounts, the
#: free list, reserved runs, the prefix index, or the golden-pinned
#: hit/miss counters.  Read-only probes (``probe_prefix``,
#: ``refcount``) are not listed.
_MUTATORS = (
    "allocate",
    "free",
    "reserve_run",
    "release_run",
    "share",
    "register_prefix",
    "forget_prefix",
    "lookup_prefix",
)


class BlockPoolAccessRule(Rule):
    rule_id = "NV002"
    title = (
        "BlockPool mutation (allocate/free/runs/share/prefix-index) only "
        "inside repro.core.paging"
    )
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        return ctx.module != "repro.core.paging"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if not isinstance(node.func, ast.Attribute):
                continue
            if node.func.attr not in _MUTATORS:
                continue
            receiver = receiver_of(node)
            if receiver is None:
                continue
            name = dotted_name(receiver)
            if name is not None and "pool" in name.lower():
                yield ctx.finding(
                    self,
                    node,
                    f"direct pool call {name}.{node.func.attr}() outside "
                    "repro.core.paging breaks block/refcount conservation; "
                    "go through PagedKVCache/ReservedKVCache",
                )
