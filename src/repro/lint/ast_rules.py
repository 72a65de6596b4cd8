"""Determinism-layer lint (D001..D005).

SuperSim runs are meant to be bit-reproducible: every random decision
flows from ``RandomManager`` (one seeded generator per component label)
and simulated time comes from the event queue, never the wall clock.
User workload/model/example modules can silently break that contract
-- and, worse, break it *differently per worker* once ``sssweep`` fans
jobs out across spawned processes.

D001..D004 are AST checks over source files (scanned once per file by
:mod:`repro.lint.source`); they never import or execute the code under
scan.  D005 is the one runtime check: it
pickles the exact payload tuples a parallel sweep would ship to worker
processes, reporting failures *before* any worker spawns (the task
runner would otherwise fall back to inline execution, silently
serializing the whole sweep).
"""

from __future__ import annotations

import pickle
from typing import Iterable, Optional

from repro import factory
from repro.lint.findings import Finding, Severity
from repro.lint.rules import DETERMINISM_LAYER, LintContext, LintRule

# ---------------------------------------------------------------------------
# AST rules
# ---------------------------------------------------------------------------


class _AstRule(LintRule):
    layer = DETERMINISM_LAYER


@factory.register(LintRule, "D001")
class UnseededRandomRule(_AstRule):
    rule_id = "D001"
    description = ("Module-global RNG use (random.* / legacy numpy.random.*) "
                   "breaks seeded reproducibility; use RandomManager "
                   "generators")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return ctx.parse_failures("D001") + [
            Finding(
                "D001",
                Severity.WARNING,
                f"call to {name}() uses module-global RNG state; "
                f"draw from a RandomManager generator instead",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, name in scan.random_calls
        ]


@factory.register(LintRule, "D002")
class WallClockRule(_AstRule):
    rule_id = "D002"
    description = ("Wall-clock reads (time.time, datetime.now, ...) make "
                   "model behavior timing-dependent; use simulator ticks")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "D002",
                Severity.WARNING,
                f"call to {name}() reads the wall clock; simulation "
                f"behavior must depend only on simulator ticks",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, name in scan.time_calls
        ]


@factory.register(LintRule, "D003")
class GlobalMutationRule(_AstRule):
    rule_id = "D003"
    description = ("`global` statement mutates module state from a callback; "
                   "such state is silently per-process under parallel sweeps")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "D003",
                Severity.WARNING,
                f"`global {', '.join(names)}` mutates module-level state; "
                f"under a parallel sweep each worker process gets its own "
                f"copy and the mutations are lost",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, names in scan.global_stmts
        ]


@factory.register(LintRule, "D004")
class LambdaPayloadRule(_AstRule):
    rule_id = "D004"
    description = ("Lambda handed to a sweep cannot be pickled to worker "
                   "processes; use a module-level function")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        return [
            Finding(
                "D004",
                Severity.WARNING,
                f"{description}: lambdas cannot be pickled to sweep worker "
                f"processes; define a module-level function instead",
                location=f"{scan.path}:{line}",
            )
            for scan in ctx.source_files()
            for line, description in scan.lambda_payloads
        ]


# ---------------------------------------------------------------------------
# D005: runtime payload pickling
# ---------------------------------------------------------------------------


def _pickle_failure(label: str, value) -> Optional[str]:
    try:
        pickle.dumps(value)
        return None
    except Exception as exc:  # pickle raises a zoo of exception types
        return f"{label} is not picklable ({type(exc).__name__}: {exc})"


@factory.register(LintRule, "D005")
class SweepPayloadRule(_AstRule):
    rule_id = "D005"
    description = ("Parallel-sweep payload fails pickling: workers would "
                   "silently fall back to inline (serial) execution")

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        sweep = ctx.sweep
        if sweep is None:
            return []
        findings = []
        parts = [
            ("sweep base_config", sweep.base_config),
            ("sweep collect function "
             f"{getattr(sweep.collect, '__qualname__', sweep.collect)!r}",
             sweep.collect),
            ("sweep max_time", sweep.max_time),
        ]
        jobs = sweep.jobs or sweep.generate_jobs()
        if jobs:
            parts.append((f"job {jobs[0].job_id!r} overrides",
                          jobs[0].overrides))
        for label, value in parts:
            failure = _pickle_failure(label, value)
            if failure is not None:
                findings.append(
                    Finding(
                        "D005",
                        Severity.ERROR,
                        f"{failure}; a parallel sweep cannot ship this to "
                        f"worker processes (the task runner would silently "
                        f"run every job inline)",
                        config_path=f"sweep:{sweep.name}",
                    )
                )
        return findings
