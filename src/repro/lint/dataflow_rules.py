"""Dataflow-layer lint (E001..E006): model-contract checks over source.

The runtime sanitizers (:mod:`repro.sanitize`) catch contract
violations *while they corrupt a run*; the E-rules catch the same
hazard patterns in model source before anything runs.  They are pure
AST checks (scanned by :mod:`repro.lint.source`) -- the scanned code is
never imported or executed -- and deliberately heuristic: names like
``schedule``/``call_at`` and ``_credits`` are matched structurally,
trading a small false-positive surface (warnings, not errors, wherever
the pattern has legitimate uses) for zero-setup coverage of user model
code.

The contracts, and who enforces them at runtime:

* **Event handles** (E001/E002, warning) -- an :class:`Event` returned
  by a scheduling call is only meaningful until it fires; afterwards
  the object may be recycled for an unrelated event (its ``generation``
  changes).  Storing the handle on ``self`` or in a container is the
  use-after-reuse setup EventSan flags at runtime.  Legitimate
  retain-to-cancel code must clear the handle inside the handler (see
  ``repro/workload/application.py``).
* **Epsilon discipline** (E003 warning, E004 error) -- scheduling at
  the current tick requires a strictly increasing epsilon, and epsilon
  must stay below 2**20 (it packs into the heap key;
  ``core/simulator.py``).  E003 flags ``*.tick``-based same-tick
  scheduling with a default/zero epsilon; E004 flags constants outside
  the packed range, which raise :class:`SimulationError` at runtime.
* **Credit API** (E005, error) -- credit counts may only move through
  ``CreditTracker.take``/``give``; poking ``_credits``/``_capacity``
  from outside the tracker is exactly the silent accounting gap
  CreditSan exists to catch.
* **Event engine fields** (E006, error) -- ``fired``, ``cancelled``,
  and ``generation`` belong to the engine; models writing them corrupt
  the freelist lifecycle EventSan polices.
"""

from __future__ import annotations

from typing import Iterable

from repro import factory
from repro.lint.findings import Finding, Severity
from repro.lint.rules import DATAFLOW_LAYER, LintContext, LintRule

# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------


class _DataflowRule(LintRule):
    layer = DATAFLOW_LAYER


@factory.register(LintRule, "E001")
class HandleOnSelfRule(_DataflowRule):
    rule_id = "E001"
    description = ("Event handle stored on `self`: stale after the event "
                   "fires (the object is recycled); clear it in the handler "
                   "or don't retain it")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return ctx.parse_failures("E001") + [
            Finding(
                "E001",
                Severity.WARNING,
                f"{method}() handle stored on `{target}`; after the event "
                f"fires the object may be recycled for an unrelated event "
                f"(generation changes), so the handle must be cleared "
                f"inside the handler before any later cancel()",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, target, method in scan.handle_on_self
        ]


@factory.register(LintRule, "E002")
class HandleInContainerRule(_DataflowRule):
    rule_id = "E002"
    description = ("Event handle stored in a container: entries outlive "
                   "their firing and alias recycled events")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E002",
                Severity.WARNING,
                f"{description}; container entries are not cleared when the "
                f"event fires, so they go stale and may alias a recycled "
                f"event object",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, description in scan.handle_in_container
        ]


@factory.register(LintRule, "E003")
class SameTickEpsilonRule(_DataflowRule):
    rule_id = "E003"
    description = ("Same-tick scheduling with default/zero epsilon raises "
                   "at runtime; pass a phase epsilon or use "
                   "Component.schedule(delay=0, ...)")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E003",
                Severity.WARNING,
                f"{method}({time_expr}, ...) schedules at the current tick "
                f"without increasing epsilon; inside a handler this raises "
                f"SimulationError (causality), so pass an explicit phase "
                f"epsilon (repro.net.phases) or Component.schedule() with "
                f"delay 0, which auto-bumps epsilon",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, method, time_expr in scan.same_tick_zero_eps
        ]


@factory.register(LintRule, "E004")
class EpsilonRangeRule(_DataflowRule):
    rule_id = "E004"
    description = ("Epsilon outside [0, 2**20): overflows the packed heap "
                   "key bound enforced by the simulator")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E004",
                Severity.ERROR,
                f"{method}(..., epsilon={value}) is outside the packed-key "
                f"range [0, 2**20); the simulator raises SimulationError on "
                f"this at runtime (epsilons order phases within a tick, "
                f"they do not carry time)",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, method, value in scan.bad_epsilon
        ]


@factory.register(LintRule, "E005")
class CreditInternalsRule(_DataflowRule):
    rule_id = "E005"
    description = ("Credit counts mutated outside the repro.net.credit API; "
                   "use CreditTracker.take()/give()")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E005",
                Severity.ERROR,
                f"write to `{target}` bypasses CreditTracker.take()/give(); "
                f"direct mutation of credit internals skips the "
                f"underflow/overflow checks and silently breaks per-link "
                f"credit conservation (the CreditSan invariant)",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, target in scan.credit_mutations
        ]


@factory.register(LintRule, "E006")
class EventEngineFieldsRule(_DataflowRule):
    rule_id = "E006"
    description = ("Event engine-owned field (fired/cancelled/generation) "
                   "written by model code; use Event.cancel() and fresh "
                   "schedules")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "E006",
                Severity.ERROR,
                f"write to `{target}` corrupts the event lifecycle the "
                f"engine's freelist depends on; cancel with Event.cancel() "
                f"and schedule a new event instead of resurrecting this one",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, target in scan.event_field_writes
        ]
