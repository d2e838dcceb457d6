"""The rule catalog of the static analyzers, and the analyzer fingerprint.

Every diagnostic the static passes can emit carries a stable rule id.
This module is the single registry of those ids — one line per rule,
split by family:

* ``LINT_RULES`` — correctness findings of ``repro lint``
  (:mod:`repro.analysis.checks` / :mod:`repro.analysis.deadlock` /
  :mod:`repro.analysis.analyzer`): would the program crash, deadlock,
  mismatch, or fail to place?
* ``PERF_RULES`` — performance findings of ``repro advise``
  (:mod:`repro.analysis.advisor`): *where does the model say the time
  goes, and which placement/config choices are leaving it on the table?*
  All ``perf-*`` ids live here.
* ``MODEL_RULES`` / ``COUNTER_RULES`` — model-consistency findings
  folded into the same vocabulary by :mod:`repro.validate` and
  :mod:`repro.perf.accounting`.

:func:`analyzer_fingerprint` digests the registry (plus a manually
bumped :data:`ANALYZER_VERSION` for behaviour changes that keep rule ids
stable).  The lint cache tags every persisted report with it, so adding
a rule — or bumping the version after tightening a check — invalidates
stale cached verdicts instead of silently reusing reports produced by a
weaker analyzer.
"""

from __future__ import annotations

import hashlib

#: Bump when any check's *behaviour* changes without its rule id set
#: changing (tightened threshold, wider trigger, message overhaul that
#: tools parse).  Rule-id additions/removals re-fingerprint on their own.
ANALYZER_VERSION = 3

#: Correctness rules (``repro lint``).
LINT_RULES: dict[str, str] = {
    "program-config": "a rank generator rejected its (rank, n_ranks)",
    "program-crash": "a rank generator raised while being replayed",
    "program-budget": "a rank program exceeded the replay op budget",
    "unknown-op": "a rank yielded an object that is not a program op",
    "unknown-kernel": "a Compute references an unregistered kernel",
    "communicator-invalid": "a communicator has invalid members",
    "p2p-invalid-send": "a send targets an out-of-range rank or itself",
    "p2p-invalid-recv": "a receive names an out-of-range source",
    "p2p-tag-range": "a message tag is outside the valid domain",
    "p2p-unmatched-recv": "a receive has no matching send",
    "p2p-unmatched-send": "a send has no matching receive",
    "collective-unknown-comm": "a collective names an unknown communicator",
    "collective-nonmember": "a rank enters a collective it is not in",
    "collective-bad-root": "a rooted collective names a non-member root",
    "collective-count": "communicator members disagree on collective count",
    "collective-divergence": "members issue different collective sequences",
    "collective-root-divergence": "members disagree on a collective's root",
    "collective-reentry": "a rank re-enters a collective it never left",
    "waitall-non-request": "WaitAll on an object that is not a request",
    "request-foreign": "a wait names a request another rank posted",
    "request-double-wait": "a request is waited on twice",
    "request-unwaited": "a posted request is never waited on",
    "deadlock": "order-aware replay wedged with ranks still blocked",
    "placement-infeasible": "ranks x threads cannot bind to the machine",
    "config-processor": "the processor is not in the catalog",
    "config-app": "the app/dataset pair does not resolve",
    "config-job": "the app rejects this rank count / dataset",
}

#: Performance rules (``repro advise``).  One worked example per rule
#: lives in DESIGN.md's "Static performance advisor" section.
PERF_RULES: dict[str, str] = {
    "perf-placement-infeasible":
        "ranks x threads cannot bind to the CMG topology (error)",
    "perf-cmg-span":
        "a rank's threads straddle CMGs although they fit in one",
    "perf-remote-traffic":
        "serial-init data policy routes a rank's traffic to a remote CMG",
    "perf-memory-bound":
        "ECM DRAM phase dominates a kernel; cites the CMG saturation "
        "point and per-stream share",
    "perf-l2-bound":
        "ECM L2 phase dominates a kernel on its critical context",
    "perf-load-imbalance":
        "rank equivalence classes finish at skewed times; names the "
        "slowest class",
    "perf-gather-stride":
        "non-contiguous access wastes cache lines and inflates DRAM "
        "traffic",
    "perf-working-set-spill":
        "the per-thread working set overflows L2; reuse traffic falls "
        "through to DRAM",
    "perf-collective-dominated":
        "communication time dominates a rank class's step time",
    "perf-undersubscribed":
        "the placement leaves cores of the allocated nodes idle",
}

#: Model-consistency rules (``repro validate``).
MODEL_RULES: dict[str, str] = {
    "model-work-accounting": "simulated FLOPs drift from the closed form",
    "model-decomposition": "FLOP totals drift across rank counts",
    "model-catalog": "catalog peaks disagree with published figures",
    "model-bandwidth-curve": "the STREAM knee left the published band",
    "model-engine-agreement": "analytic and event engines disagree",
}

#: Counter cross-validation rules (``repro validate --counters``).
COUNTER_RULES: dict[str, str] = {
    "counter-conservation": "stall categories fail to sum to total cycles",
    "counter-roofline-ai": "counter AI drifts from the analytic roofline",
    "counter-roofline-gflops": "counter GF/s drifts from the analytic "
                               "roofline",
    "counter-flops-conservation": "counter flops != executor flops",
    "counter-bytes-conservation": "counter bytes != executor DRAM bytes",
    "counter-cycle-conservation": "attributed cycles != time x frequency",
    "counter-roofline-run": "run-level counter roofline left the band",
}

#: Every known rule id -> one-line description.
ALL_RULES: dict[str, str] = {
    **LINT_RULES, **PERF_RULES, **MODEL_RULES, **COUNTER_RULES,
}

_fingerprint_memo: str | None = None


def analyzer_fingerprint(refresh: bool = False) -> str:
    """Digest of the analyzer's rule catalog and behaviour version.

    Changes whenever a rule id is added or removed, or
    :data:`ANALYZER_VERSION` is bumped — the invalidation key the lint
    cache stores next to the model fingerprint, so upgraded checks
    re-analyze instead of serving reports from an older analyzer.
    """
    global _fingerprint_memo
    if _fingerprint_memo is not None and not refresh:
        return _fingerprint_memo
    blob = f"v{ANALYZER_VERSION}:" + ",".join(sorted(ALL_RULES))
    _fingerprint_memo = hashlib.sha256(blob.encode()).hexdigest()[:16]
    return _fingerprint_memo
