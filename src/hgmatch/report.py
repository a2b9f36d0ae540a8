"""Aligned-text and TSV rendering for recall reports."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class AblationReport:
    ks: list
    sections: list
    variants: list
    values: dict  # {(variant, section, k): float | None}

    def cell(self, variant, section, k):
        return self.values.get((variant, section, k))


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def render_text(report: AblationReport) -> str:
    lines = ["# ablation report"]
    name_w = max(len(v) for v in report.variants) + 2
    col_w = max(8, *(len(f"K={k}") for k in report.ks)) + 2
    for section in report.sections:
        lines.append("")
        lines.append(f"[{section}]")
        header = " " * name_w + "".join(f"K={k}".rjust(col_w) for k in report.ks)
        lines.append(header)
        for variant in report.variants:
            row = variant.ljust(name_w)
            row += "".join(_fmt(report.cell(variant, section, k)).rjust(col_w) for k in report.ks)
            lines.append(row)
    return "\n".join(lines) + "\n"


def render_tsv(report: AblationReport) -> str:
    lines = ["variant\tsection\tk\trecall"]
    for section in report.sections:
        for variant in report.variants:
            for k in report.ks:
                lines.append(f"{variant}\t{section}\t{k}\t{_fmt(report.cell(variant, section, k))}")
    return "\n".join(lines) + "\n"


def render_recall_result(result) -> str:
    """Single-run report: overall plus per-view rows."""
    lines = ["# recall report", f"overall\t{result.overall:.6f}"]
    for view in sorted(result.per_view):
        lines.append(f"view:{view}\t{result.per_view[view]:.6f}")
    return "\n".join(lines) + "\n"
