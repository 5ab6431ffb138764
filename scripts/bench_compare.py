#!/usr/bin/env python3
"""Diff two sets of BENCH_*.json files and fail on metric regressions.

Usage:
    bench_compare.py BASELINE_DIR CANDIDATE_DIR [--threshold 0.15]
                     [--atol 1e-9] [--include-timing] [--glob 'BENCH_*.json']
                     [--jsonl-glob 'METRICS_*.jsonl']

Every JSON file matching --glob in BASELINE_DIR must exist in CANDIDATE_DIR
(a missing candidate file is itself a failure: a bench silently dropping out
of the artifact set must not pass CI). Two schemas are understood:

  1. the bench_common writer: {"bench": <name>, "rows": [{...}, ...]}
  2. custom dumps:            {"<key>": [{...}, ...], "<key2>": [...], ...}

EVERY list-of-dicts array in a document is gated (custom dumps may carry
several — e.g. BENCH_table1_comm.json's "model" and "overlap"
sections); arrays are matched between baseline and candidate
by their key, and a baseline array missing from the candidate document is
a failure.

Files matching --jsonl-glob are obs StepReport streams (one JSON object per
line, appended per committed PT-IM step). Rows are keyed by
(job_id, rank, step) with the LAST occurrence winning — a resumed campaign
rewinds to its checkpoint and legitimately re-appends the replayed steps.
Only the deterministic counters (FFT counts, comm bytes, iteration counts)
are gated; wall-clock and allocator columns are machine noise by design.

Rows are matched between baseline and candidate by their identity fields
(all string-valued fields plus the well-known axis keys such as bands,
batch_size, rank_factor, precision). The remaining numeric fields are
metrics. Wall-clock timing (any "*seconds" or "speedup*" field) is noisy on
shared CI runners and is ignored unless --include-timing is given; the gate
is meant for the deterministic counters and accuracy measures (ffts, bytes,
max_abs_denergy, dipole_drift, ...), which are reproducible run to run.

A metric regresses when the candidate exceeds
    max(baseline * (1 + threshold), baseline + atol)
i.e. higher is worse for everything gated. The atol term keeps near-zero
accuracy metrics (1e-12-level energy drifts) from tripping the relative gate
on harmless last-digit changes; anything that grows past atol in absolute
terms must still clear the relative bar. Exit status is nonzero iff at
least one metric regressed or a candidate file is missing.
"""

import argparse
import glob
import json
import os
import sys

# Fields that identify a row rather than measure it. String-valued fields
# are always identity; these names are identity even when numeric.
IDENTITY_KEYS = {
    "bands",
    "batch_size",
    "rank_factor",
    "precision",
    "name",
    "config",
    "mode",
    "ranks",
    "steps",
    "nbatch",
    "fields",
}

# Noisy wall-clock metrics, skipped unless --include-timing: "seconds",
# "step_seconds", "speedup_vs_serialized", ...
TIMING_PREFIXES = ("speedup",)
TIMING_SUFFIXES = ("seconds",)

# StepReport JSONL rows: identity, and the only metrics stable enough to
# gate. seconds/comm_seconds are wall-clock; alloc_delta
# reads a process-global counter shared by concurrently stepping ranks;
# residual is converged-to-tolerance float noise.
METRICS_IDENTITY = ("job_id", "rank", "step")
METRICS_GATED = {
    "ffts",
    "ring_bytes",
    "alltoallv_bytes",
    "allreduce_bytes",
    "scf_iterations",
    "outer_iterations",
    "exchange_applications",
}


def find_row_lists(doc):
    """Return {list_key: rows} for every gated array in the document."""
    if isinstance(doc.get("rows"), list):
        return {"rows": doc["rows"]}
    return {
        key: val
        for key, val in doc.items()
        if isinstance(val, list) and all(isinstance(r, dict) for r in val)
    }


def row_identity(row):
    ident = []
    for key in sorted(row):
        val = row[key]
        if isinstance(val, str) or key in IDENTITY_KEYS:
            ident.append((key, val))
    return tuple(ident)


def is_timing(key):
    return key.endswith(TIMING_SUFFIXES) or key.startswith(TIMING_PREFIXES)


def compare_rows(base_row, cand_row, threshold, atol, include_timing):
    """Yield (metric, baseline, candidate, regressed) per gated metric."""
    for key in sorted(base_row):
        base = base_row[key]
        if isinstance(base, str) or key in IDENTITY_KEYS:
            continue
        if not isinstance(base, (int, float)):
            continue
        if is_timing(key) and not include_timing:
            continue
        cand = cand_row.get(key)
        if not isinstance(cand, (int, float)):
            yield key, base, cand, True
            continue
        if base == 0 and cand == 0:
            continue
        limit = max(base * (1.0 + threshold), base + atol)
        yield key, base, cand, cand > limit


def compare_file(base_path, cand_path, threshold, atol, include_timing):
    """Return (n_checked, failures) where failures is a list of messages."""
    with open(base_path) as f:
        base_doc = json.load(f)
    with open(cand_path) as f:
        cand_doc = json.load(f)
    base_lists = find_row_lists(base_doc)
    cand_lists = find_row_lists(cand_doc)

    fname = os.path.basename(base_path)
    checked = 0
    failures = []
    for list_key, base_rows in base_lists.items():
        cand_rows = cand_lists.get(list_key)
        if cand_rows is None:
            failures.append(
                f"{fname}: array {list_key!r} missing from candidate"
            )
            continue
        cand_by_id = {row_identity(r): r for r in cand_rows}
        for base_row in base_rows:
            ident = row_identity(base_row)
            label = ", ".join(f"{k}={v}" for k, v in ident) or "<row>"
            cand_row = cand_by_id.get(ident)
            if cand_row is None:
                failures.append(
                    f"{fname}: {list_key} row [{label}] missing from candidate"
                )
                continue
            for key, base, cand, bad in compare_rows(
                base_row, cand_row, threshold, atol, include_timing
            ):
                checked += 1
                if bad:
                    failures.append(
                        f"{fname}: {list_key} [{label}] {key} regressed: "
                        f"baseline {base!r} -> candidate {cand!r} "
                        f"(threshold {threshold:.0%}, atol {atol:g})"
                    )
    return checked, failures


def load_jsonl_rows(path):
    """Parse a StepReport stream; dedupe by (job_id, rank, step), last wins."""
    by_key = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            by_key[tuple(row.get(k) for k in METRICS_IDENTITY)] = row
    return [by_key[k] for k in sorted(by_key)]


def compare_jsonl_file(base_path, cand_path, threshold, atol):
    """Gate the deterministic StepReport columns row by row."""
    base_rows = load_jsonl_rows(base_path)
    cand_by_key = {
        tuple(r.get(k) for k in METRICS_IDENTITY): r
        for r in load_jsonl_rows(cand_path)
    }

    fname = os.path.basename(base_path)
    checked = 0
    failures = []
    for base_row in base_rows:
        key = tuple(base_row.get(k) for k in METRICS_IDENTITY)
        label = ", ".join(f"{k}={v}" for k, v in zip(METRICS_IDENTITY, key))
        cand_row = cand_by_key.get(key)
        if cand_row is None:
            failures.append(f"{fname}: row [{label}] missing from candidate")
            continue
        for metric in sorted(METRICS_GATED):
            base = base_row.get(metric)
            if not isinstance(base, (int, float)):
                continue
            cand = cand_row.get(metric)
            checked += 1
            if not isinstance(cand, (int, float)):
                failures.append(f"{fname}: [{label}] {metric} missing")
                continue
            if base == 0 and cand == 0:
                continue
            limit = max(base * (1.0 + threshold), base + atol)
            if cand > limit:
                failures.append(
                    f"{fname}: [{label}] {metric} regressed: "
                    f"baseline {base!r} -> candidate {cand!r} "
                    f"(threshold {threshold:.0%}, atol {atol:g})"
                )
    return checked, failures


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("baseline_dir")
    ap.add_argument("candidate_dir")
    ap.add_argument("--threshold", type=float, default=0.15)
    ap.add_argument("--atol", type=float, default=1e-9)
    ap.add_argument("--include-timing", action="store_true")
    ap.add_argument("--glob", default="BENCH_*.json")
    ap.add_argument("--jsonl-glob", default="METRICS_*.jsonl")
    args = ap.parse_args(argv)

    base_paths = sorted(glob.glob(os.path.join(args.baseline_dir, args.glob)))
    jsonl_paths = sorted(
        glob.glob(os.path.join(args.baseline_dir, args.jsonl_glob))
    )
    if not base_paths:
        print(
            f"bench_compare: no files matching {args.glob!r} in "
            f"{args.baseline_dir}",
            file=sys.stderr,
        )
        return 1

    total_checked = 0
    all_failures = []
    for base_path in base_paths:
        cand_path = os.path.join(args.candidate_dir, os.path.basename(base_path))
        if not os.path.exists(cand_path):
            all_failures.append(
                f"{os.path.basename(base_path)}: missing from candidate dir"
            )
            continue
        checked, failures = compare_file(
            base_path, cand_path, args.threshold, args.atol, args.include_timing
        )
        total_checked += checked
        all_failures.extend(failures)
        status = "FAIL" if failures else "ok"
        print(
            f"{status:4s} {os.path.basename(base_path)}: "
            f"{checked} metrics checked, {len(failures)} regression(s)"
        )

    for base_path in jsonl_paths:
        cand_path = os.path.join(args.candidate_dir, os.path.basename(base_path))
        if not os.path.exists(cand_path):
            all_failures.append(
                f"{os.path.basename(base_path)}: missing from candidate dir"
            )
            continue
        checked, failures = compare_jsonl_file(
            base_path, cand_path, args.threshold, args.atol
        )
        total_checked += checked
        all_failures.extend(failures)
        status = "FAIL" if failures else "ok"
        print(
            f"{status:4s} {os.path.basename(base_path)}: "
            f"{checked} metrics checked, {len(failures)} regression(s)"
        )

    for msg in all_failures:
        print(f"  {msg}", file=sys.stderr)
    print(
        f"bench_compare: {total_checked} metrics across "
        f"{len(base_paths) + len(jsonl_paths)} file(s), "
        f"{len(all_failures)} failure(s)"
    )
    return 1 if all_failures else 0


if __name__ == "__main__":
    sys.exit(main())
