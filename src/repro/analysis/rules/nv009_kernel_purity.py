"""NV009 — kernel purity: kernels compute, engines account.

The kernel primitives (:mod:`repro.core.kernels`) are pure whole-batch
array transformers: quantise/gather/MAC in, outputs and addresses out.
The bit/cycle/counter-exactness contract of the serving stack rests on
the engines owning *all* hardware-state accounting, and on the kernels
being free to run, be traced or be called directly without side
effects — a kernel that charged :class:`~repro.noc.stats.EventCounters`
itself, poked the NoC, or reached into pool/engine state would
double-count every event its engine already charges, silently skewing
the golden traces.

Flagged, inside ``repro.core.kernels`` only:

* any read or write of a ``counters`` attribute, or a call that
  constructs / merges / mutates ``EventCounters``;
* attribute access on engine-state handles (``noc``, ``pool``,
  ``engine``, ``scheduler``, ``comparators``, ``macs``, ``routers``)
  or a call to an accounting method (``charge_broadcasts``,
  ``charge``, ``add``-on-``counters``).
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.engine import Finding, ModuleContext, Rule
from repro.analysis.rules._common import dotted_name

__all__ = ["KernelPurityRule"]

#: Attribute names that are engine/hardware state a kernel has
#: no business touching (reads included: holding the handle at all
#: invites charging through it).
_STATE_ATTRS = frozenset(
    {
        "counters",
        "noc",
        "pool",
        "engine",
        "scheduler",
        "comparators",
        "macs",
        "routers",
    }
)

#: Accounting calls that mutate hardware state wherever they land.
_ACCOUNTING_CALLS = frozenset({"charge_broadcasts", "charge", "merge"})


class KernelPurityRule(Rule):
    rule_id = "NV009"
    title = "kernels stay pure (no counter/engine state)"
    severity = "error"

    def applies_to(self, ctx: ModuleContext) -> bool:
        if ctx.module is not None:
            return ctx.module == "repro.core.kernels"
        return ctx.path.name == "kernels.py"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Attribute) and node.attr in _STATE_ATTRS:
                shown = dotted_name(node) or f"<expr>.{node.attr}"
                yield ctx.finding(
                    self,
                    node,
                    f"kernel code touches engine state {shown}; kernels "
                    "are pure array transformers — counter charging and "
                    "NoC/pool accounting belong to the owning engine "
                    "(NV006)",
                )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _ACCOUNTING_CALLS
                ):
                    shown = dotted_name(func) or f"<expr>.{func.attr}"
                    yield ctx.finding(
                        self,
                        node,
                        f"kernel code calls accounting method {shown}(); "
                        "hardware-state mutation belongs to the owning "
                        "engine, not a kernel",
                    )
                elif (
                    isinstance(func, ast.Name)
                    and func.id == "EventCounters"
                ):
                    yield ctx.finding(
                        self,
                        node,
                        "kernel code constructs EventCounters; event "
                        "accounting belongs to the owning engine — return "
                        "the data and let the engine charge it",
                    )
