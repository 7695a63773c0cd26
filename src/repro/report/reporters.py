"""Text and JSON reporters for diagnostics reports.

Mirrors :mod:`repro.lint.reporters`: ``render_text`` for humans,
``render_json`` (stable key order) for CI and tooling. Both accept
either a single :class:`~repro.report.engine.RunReport` or a
:class:`~repro.report.engine.FleetReport`.
"""

from __future__ import annotations

import json

from .engine import FleetReport, RunReport

__all__ = ["render_text", "render_json"]


def _chain_text(episode) -> str:
    if not episode.chain:
        return ""
    return " <- ".join(link.label() for link in episode.chain)


def _num(value: float | None) -> str:
    """Two-decimal derivation value; ``-`` for opaque recommenders."""
    return "-" if value is None else f"{value:.2f}"


def _run_lines(report: RunReport, decisions: int | None = None) -> list[str]:
    lines = [
        f"run {report.name or '(unnamed)'} "
        f"(trace {report.trace_id}, seed {report.seed})"
    ]
    counts = " ".join(
        f"{kind}={count}"
        for kind, count in sorted(report.event_counts.items())
    )
    lines.append(f"  events: {counts}")

    if report.decisions:
        # Holds are counted in the branch table; only decisions that
        # changed the allocation are listed.
        scaling = [
            record
            for record in report.decisions
            if record.current_cores != record.target_cores
        ]
        shown = (
            scaling
            if decisions is None
            else scaling[max(len(scaling) - decisions, 0) :]
        )
        header = (
            f"  decisions: {len(scaling)} of {len(report.decisions)} "
            "changed the allocation"
        )
        if len(shown) < len(scaling):
            header += f", most recent {len(shown)} listed"
        lines.append(header + (":" if shown else ""))
        for record in shown:
            if record.enacted_minute is not None:
                outcome = (
                    f"enacted m{record.enacted_minute} "
                    f"(+{record.latency_minutes} min)"
                )
            else:
                outcome = "never enacted"
            extras = []
            if record.deferrals:
                extras.append(f"{record.deferrals} deferral(s)")
            if record.retries:
                extras.append(f"{record.retries} retry(ies)")
            if record.rolled_back:
                extras.append("ROLLED BACK")
            suffix = f" [{', '.join(extras)}]" if extras else ""
            lines.append(
                f"    m{record.minute:05d} {record.recommender} "
                f"{record.branch or 'opaque'} "
                f"{record.current_cores} -> {record.target_cores} cores: "
                f"{outcome}{suffix}; slope={_num(record.slope)} "
                f"skew={_num(record.skew)} SF={_num(record.scaling_factor)} "
                f"P-usage={_num(record.usage_quantile)}; {record.reason}"
            )

    if report.branches:
        lines.append("  K/C/N decomposition by branch:")
        lines.append(
            "    branch        decisions  N(resizes)  C(core-min)  "
            "K-est(core-min)  governed-min"
        )
        for branch in report.branches:
            slack = (
                f"{branch.slack_estimate_core_minutes:14.1f}"
                if branch.slack_estimate_core_minutes is not None
                else f"{'-':>14s}"
            )
            lines.append(
                f"    {branch.branch:12s} {branch.decisions:9d}  "
                f"{branch.resizes:10d}  "
                f"{branch.insufficient_core_minutes:11.1f}  "
                f"{slack}  {branch.governed_minutes:12d}"
            )

    if report.episodes:
        lines.append("  throttling episodes (SLO violations):")
        for episode in report.episodes:
            head = (
                f"    m{episode.start_minute:05d}-m{episode.end_minute:05d} "
                f"{episode.minutes:4d} min  "
                f"insufficient {episode.total_insufficient_cores:.1f} core-min"
            )
            if episode.attributed:
                lines.append(f"{head}  cause: {_chain_text(episode)}")
            else:
                lines.append(f"{head}  UNATTRIBUTED ({episode.note})")
    lines.append(
        f"  attribution: {len(report.episodes)} episodes, "
        f"{report.attributed_count} attributed, "
        f"{report.unattributed_count} unattributed"
    )
    return lines


def render_text(
    report: RunReport | FleetReport, decisions: int | None = None
) -> str:
    """Human-readable diagnostics; one block per run trace.

    Each run lists the decisions that changed its allocation, the most
    recent ``decisions`` of them when given (``None`` lists all).
    """
    if isinstance(report, RunReport):
        return "\n".join(_run_lines(report, decisions))
    lines: list[str] = []
    for fleet in report.fleet_traces:
        lines.append(
            f"fleet {fleet['name']} "
            f"(trace {fleet['trace_id']}, seed {fleet['seed']}): "
            f"{report.jobs_ok} jobs ok, {report.jobs_failed} failed"
        )
    for run in report.runs:
        if lines:
            lines.append("")
        lines.extend(_run_lines(run, decisions))
    if report.cache_provenance:
        lines.append("")
        lines.append("cache provenance (reused results):")
        for entry in report.cache_provenance:
            producer = entry["producer_trace_id"] or "(pre-provenance blob)"
            lines.append(
                f"  {entry['result_kind']:10s} {entry['key'][:40]}  "
                f"from {entry['source']}, produced by trace {producer} "
                f"(epoch {entry['producer_epoch']})"
            )
    lines.append("")
    lines.append(
        f"total: {len(report.runs)} runs, {report.total_episodes} "
        f"throttling episodes, {report.total_unattributed} unattributed"
    )
    return "\n".join(lines)


def render_json(report: RunReport | FleetReport) -> str:
    """Machine-readable form (stable key order) for CI and tooling."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
