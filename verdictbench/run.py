#!/usr/bin/env python3
"""Time-to-verdict benchmark: build, run one workload (or all), report.

    python3 verdictbench/run.py --workload <fresh-corpus|wan-audit|edit-serve|all>
                                --seed N --seconds S --trace <0|1>

Run from the repository root. Builds the measuring binary (this
directory's own Cargo package) and the `lightyear` daemon into
$CARGO_TARGET_DIR (default `.bench_build`), runs each workload in its own
process, reduces the raw record it prints to the named metrics, prints a
table, a provenance line, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.

Exits 1, after printing the result, when any verdict or report differs
from the known answer; exits 1 without a result when building or running
fails.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# `wan-audit` runs by name and under `all`, but BENCHMARK.json does not
# list it: see "Sizing and noise" in README.md.
WORKLOADS = ["fresh-corpus", "wan-audit", "edit-serve"]
# A run must finish well inside the 180 s a single invocation may take.
RUN_TIMEOUT_S = 170


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the measuring binary and the daemon; return their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for manifest, extra in [
        (os.path.join(HERE, "Cargo.toml"), []),
        (os.path.join(ROOT, "Cargo.toml"), ["-p", "lightyear-cli"]),
    ]:
        if not os.path.exists(manifest):
            raise RuntimeError(f"missing {os.path.relpath(manifest, ROOT)}")
        cmd = ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", manifest]
        done = subprocess.run(cmd + extra, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build failed: {' '.join(cmd + extra)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "verdictbench"), os.path.join(rel, "lightyear")


def source_digest():
    """sha256 over the sources the benchmark builds, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, p) for p in ("Cargo.toml", "Cargo.lock")]
    for top in ("crates", "src", "verdictbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        if os.path.isfile(p):
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def provenance(seed):
    def cmd(*args):
        try:
            out = subprocess.run(args, cwd=ROOT, capture_output=True, text=True)
            return out.stdout.strip() if out.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "rustc": cmd("rustc", "-V"),
        "git_commit": cmd("git", "rev-parse", "HEAD") or "none (not a git checkout)",
        "source_sha256": source_digest(),
        "seed": seed,
    }


def run_workload(binary, daemon, workload, seed, seconds, trace):
    """Run one workload in its own process; return its raw record."""
    work = os.path.join(target_dir(), "verdictbench-work")
    os.makedirs(work, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--lightyear", daemon, "--work-dir", work]
    # Its own process group, so the daemon it starts is stopped with it
    # whatever way it ends.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload}: exited {proc.returncode}")
    return json.loads(lines[-1])


def tail(samples):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank): (percentile, value). The maximum below 11 samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return 100, xs[-1]
    p = math.floor(100 * (n - 10) / n)
    return p, xs[max(math.ceil(p * n / 100), 1) - 1]


def mean(xs):
    return sum(xs) / len(xs) if xs else 0.0


def reduce(rec):
    """Raw record -> {metric: value} for every metric the run measured,
    plus facts for the table."""
    v = rec["verdict_ms"]
    if not v:
        raise RuntimeError(f"no operation succeeded: {rec['errors'][:2]}")
    p, t = tail(v)
    m = {
        "verdict_ms_p50": statistics.median(v),
        "verdict_ms_tail": t,
        "checks_per_s": rec["checks"] / (sum(v) / 1e3),
        "rounds_per_s": len(v) / rec["loop_s"],
        "peak_rss_mb": rec["peak_rss_kb"] / 1024,
        "setup_s": statistics.median(rec["setup_s"]),
        "ok_share": (rec["attempted"] - rec["failed"]) / rec["attempted"],
        "wrong_verdicts": rec["wrong"],
        "failed_share": rec["failed"] / rec["attempted"],
    }
    facts = {"tail_percentile": p, "samples": len(v), **rec["facts"]}
    layers = rec["layers"]
    for name, xs in layers.items():
        m[name] = mean(xs)
    if "bgp_config.parse_ms" in layers:
        m["bgp_config.parse_mb_per_s"] = (
            sum(layers["bgp_config.parse_bytes"]) / 1e6 / (sum(layers["bgp_config.parse_ms"]) / 1e3))
    if "orchestrator.generated" in layers:
        gen = sum(layers["orchestrator.generated"])
        m["orchestrator.dedup_ratio"] = sum(layers["orchestrator.executed"]) / gen if gen else 0.0
    return m, facts


UNITS = {
    "ms": "ms", "s": "s", "per_s": "1/s", "mb": "MB", "share": "ratio", "pct": "%",
    "mb_per_s": "MB/s",
}


def unit_of(name, declared):
    if name in declared:
        return declared[name]
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if name.endswith("_" + suffix):
            return unit
    return "count"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    try:
        bench = spec()
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        binary, daemon = build()
        prov = provenance(args.seed)
        names = WORKLOADS if args.workload == "all" else [args.workload]
        records = {w: run_workload(binary, daemon, w, args.seed, seconds, args.trace)
                   for w in names}
        reduced = {w: reduce(rec) for w, rec in records.items()}
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        log(f"verdictbench: {e}")
        sys.exit(1)

    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    final = {}
    for w, rec in records.items():
        m, facts = reduced[w]
        print(f"== {w} (seed {args.seed}, {seconds:g} s, trace {args.trace})")
        for name in sorted(m):
            print(f"  {name:<38} {m[name]:>16.4f} {unit_of(name, declared)}")
        for k, val in facts.items():
            print(f"  {k:<38} {json.dumps(val)}")
        for e in rec["errors"]:
            print(f"  error: {e}")
        prefix = "" if len(records) == 1 else w + "/"
        for metric in listed:
            # A layer the workload bypasses did no work: its counts are 0.
            final[prefix + metric["name"]] = {"value": m.get(metric["name"], 0.0),
                                              "unit": metric["unit"]}
    print("provenance " + json.dumps(prov))
    wrong = sum(r["wrong"] for r in records.values())
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": final,
    }))
    sys.exit(0 if wrong == 0 else 1)


if __name__ == "__main__":
    main()
