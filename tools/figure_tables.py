#!/usr/bin/env python3
"""Rewrites the four paper-figure tables in EXPERIMENTS.md from the
committed figure baselines (bench/baselines/BENCH_fig{2,3,4,5}_*.json).

    python3 tools/figure_tables.py EXPERIMENTS.md          # rewrite in place
    python3 tools/figure_tables.py --check EXPERIMENTS.md  # exit 1 if stale

Each table is the first Markdown table after the "**Measured**" line
that names its bench binary. Figures 2 and 3 print integers, Figure 4
one decimal, Figure 5 "stalls / seconds".
"""

import json
import pathlib
import sys

BASELINES = pathlib.Path(__file__).resolve().parent.parent / "bench" / "baselines"


def integer(value):
    return f"{value:.0f}"


def one_decimal(value):
    return f"{value:.1f}"


# bench binary -> (table names in its BENCH json, cell formatter)
FIGURES = [
    ("bench_fig2_stalls", ["stalls"], integer),
    ("bench_fig3_stall_duration", ["stall_seconds"], integer),
    ("bench_fig4_startup", ["startup_seconds"], one_decimal),
    ("bench_fig5_pooling", ["stalls", "stall_seconds"], integer),
]


def column_label(series):
    """Short column header: "2 sec segment" -> "2 sec",
    "Pool size: 4" -> "Pool 4", "Adaptive pooling" -> "Adaptive"."""
    label = series.removesuffix(" segment")
    label = label.replace("Pool size: ", "Pool ")
    return label.removesuffix(" pooling")


def render(bench, table_names, fmt):
    tables = json.loads((BASELINES / f"BENCH_{bench.removeprefix('bench_')}.json")
                        .read_text())["tables"]
    first = tables[table_names[0]]
    series = list(first["series"])
    for name in table_names[1:]:
        if list(tables[name]["series"]) != series or \
                tables[name]["bandwidths_kBps"] != first["bandwidths_kBps"]:
            sys.exit(f"{bench}: tables {table_names} disagree on shape")
    lines = ["| Bandwidth | " + " | ".join(column_label(s) for s in series) + " |",
             "|" + "---|" * (len(series) + 1)]
    for row, kbps in enumerate(first["bandwidths_kBps"]):
        cells = [" / ".join(fmt(tables[name]["series"][s][row]) for name in table_names)
                 for s in series]
        lines.append(f"| {kbps:g} kB/s | " + " | ".join(cells) + " |")
    return lines


def rewrite(text):
    lines = text.split("\n")
    for bench, table_names, fmt in FIGURES:
        anchor = next((i for i, line in enumerate(lines)
                       if line.startswith("**Measured**") and f"`{bench}`" in line),
                      None)
        if anchor is None:
            sys.exit(f"no **Measured** line naming `{bench}`")
        start = next((i for i in range(anchor, len(lines)) if lines[i].startswith("|")),
                     None)
        if start is None:
            sys.exit(f"no table after the `{bench}` line")
        end = start
        while end < len(lines) and lines[end].startswith("|"):
            end += 1
        lines[start:end] = render(bench, table_names, fmt)
    return "\n".join(lines)


def main(argv):
    check = "--check" in argv
    paths = [arg for arg in argv if arg != "--check"]
    if len(paths) != 1:
        sys.exit(__doc__)
    path = pathlib.Path(paths[0])
    before = path.read_text()
    after = rewrite(before)
    if check:
        if after != before:
            print(f"{path}: figure tables are stale; run "
                  f"python3 tools/figure_tables.py {path}", file=sys.stderr)
            return 1
        return 0
    if after != before:
        path.write_text(after)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
