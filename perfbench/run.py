#!/usr/bin/env python3
"""Build and run the mtsim end-to-end benchmark.

    python3 perfbench/run.py --workload repro|pscale|fuzz --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test [--workload W] [--seed N]

Run from the repository root. The first call configures and builds
perfbench/ (the simulator libraries plus the benchmark program) into
$CARGO_TARGET_DIR, or .bench_build when it is unset; later calls rebuild
incrementally. Build output goes to stderr. The benchmark's report goes to
stdout, and its last line is the JSON result. Its metric names and units
are checked against BENCHMARK.json. With --trace 1 the span file is
written to <build dir>/spans/<workload>-seed<N>.json.

--self-test runs each workload twice in trace mode and fails unless every
exact simulated count is identical between the two runs, and between the
untraced and traced passes inside each run.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORKLOADS = ("repro", "pscale", "fuzz")
DEFAULT_SEED = 1
SELF_TEST_SECONDS = 1
BUILD_JOBS = "4"


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure and build incrementally; returns the binary."""
    out = build_dir()
    # Keep the compiler's temporary files inside the build directory.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   stdout=sys.stderr, env=env, check=True)
    subprocess.run(["cmake", "--build", str(out), "--target",
                    "mts_perfbench", "-j", BUILD_JOBS],
                   stdout=sys.stderr, env=env, check=True)
    return out / "mts_perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """The binary's last line must be the full JSON result."""
    res = json.loads(line)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(res)}")
    if not isinstance(res["correct"], bool):
        raise ValueError("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(res[key], int) or res[key] < 0:
            raise ValueError(f"'{key}' is not a whole number")
    if res["attempted"] < 1:
        raise ValueError("no op was attempted")
    want = expected_metrics(trace)
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing "
                         f"{missing}, extra {extra}, wrong unit {wrong}")
    return res


def span_file(workload, seed, tag=""):
    d = build_dir() / "spans"
    d.mkdir(parents=True, exist_ok=True)
    return d / f"{workload}-seed{seed}{tag}.json"


def run_binary(binary, workload, seed, seconds, trace, spans=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if spans is not None:
        cmd += ["--span-file", str(spans)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def measure(args):
    binary = build()
    spans = span_file(args.workload, args.seed) if args.trace else None
    code, out = run_binary(binary, args.workload, args.seed, args.seconds,
                           args.trace, spans)
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        log(f"benchmark exited with code {code}")
        return code or 1
    check_result(lines[-1], args.trace)
    sys.stdout.write(out)
    return 0


def self_test(args):
    binary = build()
    ok = True
    for workload in ([args.workload] if args.workload else WORKLOADS):
        exact = []
        for i in range(2):
            spans = span_file(workload, args.seed, f".selftest{i}")
            code, out = run_binary(binary, workload, args.seed,
                                   SELF_TEST_SECONDS, True, spans)
            if code != 0:
                log(f"{workload}: run {i} exited with code {code}")
                return 1
            check_result(out.rstrip("\n").split("\n")[-1], True)
            doc = json.loads(spans.read_text())
            if not doc["exact_consistent"]:
                log(f"{workload}: run {i}: exact counts differ between "
                    "the untraced and the traced pass")
                ok = False
            exact.append(doc["exact"])
        same = exact[0] == exact[1]
        ok = ok and same
        print(f"{workload}: exact counts "
              f"{'identical' if same else 'DIFFER'} across two runs: "
              f"{json.dumps(exact[0], sort_keys=True)}", flush=True)
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be a whole number")
    if args.self_test:
        return self_test(args)
    if args.workload is None or args.seconds is None:
        p.error("--workload and --seconds are required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return measure(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, OSError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
