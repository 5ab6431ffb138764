#!/usr/bin/env python3
"""Layer table of one traced ptbench run.

Usage:
    layers.py TRACE.json STEPS.jsonl

TRACE.json is the Chrome trace a traced ptbench run writes (obs spans of the
setup and the traced reps, plus the run header and benchmark-level counters
under "otherData"); STEPS.jsonl holds the obs::StepReport lines of the same
reps. Prints the per-span table and the named per-layer metrics that
`run.py --trace 1` reports.

Conventions:
  * A "step" is one step span: bench.step (the staged ACE step driven by the
    benchmark), td.dist_step (one rank's distributed step) or td.ptim_step
    (a campaign job's serial step). Per-step times are totals of the spans
    that lie inside step spans, divided by the number of steps.
  * A distributed trajectory is reported from rank 0 (pid 0); campaign
    workers each run their own trajectories, so all their steps count.
  * Byte and FFT counts come from the StepReport lines, summed over ranks;
    comm.calls_per_step is the traced rep's CommStats call total over all
    ranks divided by its steps (so it includes the final state gather).
  * Self time is a span's duration minus the spans nested directly in it on
    the same thread lane. A step's own time is the part of it that no span
    below the step wrappers covers on its lane; td.step_self_s is its mean
    and obs.unattributed_frac its share of the step.
  * comm.overlap_frac is the share of comm-span time during which another
    lane of the same rank runs a compute span.
  * *_computed figures are computed from shapes, not measured: each slab
    FFT of a distributed rank is counted as 1/pg of a full 3-D FFT.
"""

import bisect
import json
import math
import sys
from collections import defaultdict

STEP_SPANS = ("bench.step", "td.dist_step", "td.ptim_step")
# Spans that only wrap a whole step (the distributed propagator's own step
# timer sits inside td.dist_step): they attribute nothing.
STEP_WRAPPERS = STEP_SPANS + ("td.ptim_step_dist",)

# Span-name prefix -> layer, first match wins.
LAYERS = (
    ("bench.step", "td"), ("bench.td.", "td"), ("td.", "td"),
    ("ptim.", "td"), ("gs.", "gs"),
    ("bench.ham.apply_diag", "exchange"), ("exchange.", "exchange"),
    ("xchg.pair_form", "exchange"), ("xchg.accumulate", "exchange"),
    ("xchg.gather", "exchange"), ("xchg.kernel_filter", "fft"),
    ("dfft.alltoallv", "ptmpi"), ("dfft.", "fft"), ("xchg.apply_slab", "dist"),
    ("xchg.", "ptmpi"), ("isdf.", "isdf"), ("ace.", "ham"),
    ("density.", "ham"), ("ham.", "ham"), ("campaign.", "io/core"),
    ("bench.campaign.", "io/core"), ("bench.io.", "io/core"),
    ("bench.", "bench"),
)

EXCHANGE_PREFIXES = ("exchange.", "xchg.", "bench.ham.apply_diag")


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    return "other"


class Span:
    __slots__ = ("name", "cat", "pid", "tid", "t0", "t1", "child", "step")

    def __init__(self, ev):
        self.name = ev["name"]
        self.cat = ev["cat"]
        self.pid = ev["pid"]
        self.tid = ev["tid"]
        self.t0 = ev["ts"] * 1e-6
        self.t1 = (ev["ts"] + ev["dur"]) * 1e-6
        self.child = 0.0  # seconds covered by directly nested spans
        self.step = None  # index of the enclosing step span, if any

    @property
    def dur(self):
        return self.t1 - self.t0

    @property
    def self_s(self):
        return max(self.dur - self.child, 0.0)


def nest(spans):
    """Fill Span.child from per-lane containment (RAII spans nest)."""
    eps = 1e-9
    lanes = defaultdict(list)
    for s in spans:
        lanes[(s.pid, s.tid)].append(s)
    for lane in lanes.values():
        lane.sort(key=lambda s: (s.t0, -s.t1))
        stack = []
        for s in lane:
            while stack and stack[-1].t1 <= s.t0 + eps:
                stack.pop()
            if stack and s.t1 <= stack[-1].t1 + eps:
                stack[-1].child += s.dur
            stack.append(s)


def union(intervals):
    total, end = 0.0, -math.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def union_by(key, spans):
    """Sum over groups (by key(span)) of the union of the spans' intervals."""
    groups = defaultdict(list)
    for s in spans:
        groups[key(s)].append((s.t0, s.t1))
    return sum(union(iv) for iv in groups.values())


def intersect(xs, ys):
    """Length of (union of xs) intersected with (union of ys)."""
    def merged(iv):
        out = []
        for a, b in sorted(iv):
            if out and a <= out[-1][1]:
                out[-1][1] = max(out[-1][1], b)
            else:
                out.append([a, b])
        return out
    xs, ys = merged(xs), merged(ys)
    i = j = 0
    total = 0.0
    while i < len(xs) and j < len(ys):
        lo, hi = max(xs[i][0], ys[j][0]), min(xs[i][1], ys[j][1])
        total += max(hi - lo, 0.0)
        if xs[i][1] < ys[j][1]:
            i += 1
        else:
            j += 1
    return total


def median(v):
    v = sorted(v)
    n = len(v)
    if n == 0:
        return 0.0
    return v[n // 2] if n % 2 else 0.5 * (v[n // 2 - 1] + v[n // 2])


def load(trace_path, steps_path):
    with open(trace_path) as f:
        doc = json.load(f)
    spans = [Span(ev) for ev in doc["traceEvents"] if ev.get("ph") == "X"]
    rows = {}
    with open(steps_path) as f:
        for line in f:
            line = line.strip()
            if line:
                r = json.loads(line)
                # Last occurrence wins (obs/step_report.hpp dedupe rule).
                rows[(r.get("job_id", -1), r.get("rank", -1), r["step"])] = r
    return spans, list(rows.values()), doc.get("otherData", {})


def analyse(spans, rows, other):
    """Return (table rows, named metrics, step count)."""
    nest(spans)
    steps = [s for s in spans if s.name in STEP_SPANS]
    if any(s.name == "td.dist_step" for s in steps):
        steps = [s for s in steps if s.pid == 0]
    step_pids = {s.pid for s in steps}
    by_pid = defaultdict(list)
    for i, s in enumerate(steps):
        by_pid[s.pid].append((s.t0, s.t1, i))
    for v in by_pid.values():
        v.sort()
    starts = {p: [x[0] for x in v] for p, v in by_pid.items()}
    for s in spans:
        if s.pid not in step_pids or s.name in STEP_SPANS:
            continue
        k = bisect.bisect_right(starts[s.pid], s.t0) - 1
        if k >= 0:
            t0, t1, idx = by_pid[s.pid][k]
            if s.t1 <= t1 + 1e-9:
                s.step = idx
    for i, s in enumerate(steps):
        s.step = i

    n = max(len(steps), 1)
    step_time = sum(s.dur for s in steps)
    in_step = [s for s in spans if s.step is not None]

    def per_step(name, what="dur"):
        return sum(getattr(s, what) for s in in_step if s.name == name) / n

    def calls(name):
        return sum(1 for s in in_step if s.name == name) / n

    def spans_named(name):
        return [s for s in spans if s.name == name]

    # Per-span table.
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for s in in_step:
        t = table[s.name]
        t[0] += 1
        t[1] += s.dur
        t[2] += s.self_s
    table_rows = sorted(
        ((layer_of(k), k, c / n, tot / n, sf / n) for k, (c, tot, sf) in table.items()),
        key=lambda r: -r[4])

    # StepReport rows: one trajectory view (rank <= 0) for solver counters,
    # all ranks for traffic.
    traj = [r for r in rows if r.get("rank", -1) <= 0]
    nt = max(len(traj), 1)
    tot = lambda key, rs: sum(r.get(key, 0) for r in rs)
    m = {}

    # gs: the traced setup.
    scf = spans_named("gs.scf")
    m["gs.scf_s"] = sum(s.dur for s in scf)
    m["gs.davidson_calls"] = len(spans_named("gs.davidson"))
    m["gs.apply_semilocal_s"] = sum(
        s.dur for s in spans_named("ham.apply_semilocal")
        if any(g.pid == s.pid and g.t0 <= s.t0 and s.t1 <= g.t1 for g in scf))
    m["gs.davidson_self_s"] = sum(s.self_s for s in spans_named("gs.davidson"))

    # td.
    m["td.scf_iters_per_step"] = tot("scf_iterations", traj) / nt
    m["td.outer_per_step"] = tot("outer_iterations", traj) / nt
    m["td.xapply_per_step"] = tot("exchange_applications", traj) / nt
    m["td.begin_s"] = per_step("bench.td.begin")
    m["td.advance_self_s"] = per_step("bench.td.advance", "self_s")
    m["td.finish_s"] = per_step("bench.td.finish")
    lane_spans = defaultdict(list)
    for s in in_step:
        if s.name not in STEP_WRAPPERS:
            lane_spans[(s.step, s.pid, s.tid)].append((s.t0, s.t1))
    own = sum(s.dur - union(lane_spans[(s.step, s.pid, s.tid)]) for s in steps)
    m["td.step_self_s"] = own / n

    # ham (semilocal, density).
    m["ham.apply_semilocal_s"] = per_step("ham.apply_semilocal")
    m["ham.apply_semilocal_calls"] = calls("ham.apply_semilocal")
    m["ham.set_density_s"] = per_step("ham.set_density")
    m["ham.density_sigma_s"] = per_step("density.sigma")

    # Exchange: wall time during which any lane of a stepping rank is in an
    # exchange span (a union per rank, so nested spans and the compute /
    # comm stream lanes of the distributed ring count once).
    m["ham.exchange_s"] = union_by(
        lambda s: s.pid,
        (s for s in in_step if s.name.startswith(EXCHANGE_PREFIXES))) / n
    m["ham.ace_build_s"] = per_step("ace.build")
    m["ham.ace_apply_s"] = per_step("ace.apply")
    m["xchg.pair_form_s"] = per_step("xchg.pair_form")
    m["xchg.kernel_filter_s"] = per_step("xchg.kernel_filter")
    m["xchg.accumulate_s"] = per_step("xchg.accumulate")
    m["fft.xchg_ffts_per_step"] = tot("ffts", rows) / nt
    grid = other.get("wfc_grid", [0, 0, 0])
    npts = grid[0] * grid[1] * grid[2]
    flops_per_fft = 5.0 * npts * math.log2(npts) if npts > 1 else 0.0
    pg = other.get("header", {}).get("grid_ranks", 1)
    m["fft.xchg_gflops_computed"] = (
        m["fft.xchg_ffts_per_step"] * flops_per_fft / pg / 1e9)

    # ptmpi / dist.
    m["comm.ring_bytes_per_step"] = tot("ring_bytes", rows) / nt
    m["comm.alltoallv_bytes_per_step"] = tot("alltoallv_bytes", rows) / nt
    m["comm.allreduce_bytes_per_step"] = tot("allreduce_bytes", rows) / nt
    m["comm.calls_per_step"] = other.get("comm_calls_per_step", 0.0)
    m["comm.s_per_step"] = tot("comm_seconds", traj) / nt
    step_lanes = {(s.pid, s.tid) for s in steps}
    m["comm.wait_s_per_step"] = union_by(
        lambda s: (s.pid, s.tid),
        (s for s in in_step if (s.pid, s.tid) in step_lanes and s.cat == "comm")) / n
    comm_t = overlap_t = 0.0
    for lane in {(s.pid, s.tid) for s in in_step if s.pid in step_pids}:
        comm = [(s.t0, s.t1) for s in in_step
                if (s.pid, s.tid) == lane and s.cat == "comm"]
        comp = [(s.t0, s.t1) for s in in_step
                if s.pid == lane[0] and s.tid != lane[1] and s.cat == "compute"]
        comm_t += union(comm)
        overlap_t += intersect(comm, comp)
    m["comm.overlap_frac"] = overlap_t / comm_t if comm_t > 0 else 0.0
    m["dist.apply_slab_s"] = per_step("xchg.apply_slab")
    m["dfft.forward_s"] = per_step("dfft.forward")
    m["dfft.inverse_s"] = per_step("dfft.inverse")

    # backend.
    m["backend.allocs_per_step"] = tot("alloc_delta", traj) / nt

    # io / core (campaign).
    ck = spans_named("campaign.checkpoint")
    m["io.checkpoint_s"] = sum(s.dur for s in ck) / len(ck) if ck else 0.0
    m["io.checkpoint_bytes"] = other.get("io.checkpoint_bytes", 0.0)
    m["io.checkpoints"] = other.get("io.checkpoints", 0.0)
    rs = spans_named("bench.io.restore")
    m["io.restore_s"] = sum(s.dur for s in rs) / len(rs) if rs else 0.0
    jobs = spans_named("campaign.run_job")
    m["campaign.run_job_s"] = sum(s.dur for s in jobs) / len(jobs) if jobs else 0.0
    run_wall = sum(s.dur for s in spans_named("bench.campaign.run"))
    workers = other.get("nworkers", 1)
    m["campaign.idle_frac"] = (
        1.0 - sum(s.dur for s in jobs) / (workers * run_wall) if run_wall > 0 else 0.0)

    # obs.
    per_traj_step = defaultdict(float)
    for r in rows:
        key = (r.get("job_id", -1), r["step"])
        per_traj_step[key] = max(per_traj_step[key], r.get("seconds", 0.0))
    untraced = other.get("untraced_step_p50_s", 0.0)
    traced = median(per_traj_step.values())
    m["obs.trace_overhead"] = traced / untraced if untraced > 0 else 0.0
    m["obs.unattributed_frac"] = own / step_time if step_time > 0 else 0.0
    m["obs.dropped_spans"] = other.get("dropped_spans", 0)

    m["host.triad_gbs"] = other.get("host.triad_gbs", 0.0)
    return table_rows, m, len(steps)


def format_table(table_rows, metrics, nsteps, other):
    h = other.get("header", {})
    out = []
    out.append(
        f"# layer table: {h.get('workload', '?')} | nproc {h.get('nproc', '?')} | "
        f"{h.get('ranks', '?')} ranks x {h.get('omp_team', '?')} OpenMP + "
        f"{h.get('stream_workers', '?')} stream workers | isa {h.get('simd_isa', '?')} | "
        f"backend {h.get('backend', '?')} | {h.get('compiler', '?')} | "
        f"{h.get('build_type', '?')} | {nsteps} traced steps")
    out.append(f"{'layer':<9} {'span':<24} {'calls/step':>10} {'ms/step':>10} "
               f"{'self ms/step':>12}")
    for layer, name, c, tot, sf in table_rows:
        out.append(f"{layer:<9} {name:<24} {c:>10.2f} {tot * 1e3:>10.3f} {sf * 1e3:>12.3f}")
    out.append(f"host.triad_gbs computed from {other.get('triad_array_bytes', 0)} B "
               f"arrays (3 per pass) against a {other.get('llc_bytes', 0)} B last-level cache")
    for k in sorted(metrics):
        out.append(f"  {k:<32} {metrics[k]:.6g}")
    return "\n".join(out)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spans, rows, other = load(argv[1], argv[2])
    table_rows, metrics, nsteps = analyse(spans, rows, other)
    print(format_table(table_rows, metrics, nsteps, other))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
