#!/usr/bin/env python3
"""The repo benchmark: the served rings-of-neighbors oracle, end to end.

    python3 perfbench/run.py --workload W --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (Release) into .bench_build/ (or
$CARGO_TARGET_DIR); later runs only re-check the build.

For each workload the seed becomes a scenario spec, ron_oracle turns the
spec into a snapshot, ron_served (--threads 2, result cache off) serves it
and `ronbench load` drives it over loopback from one process, checking
every answer. Set-up (spec -> first answered frame) is repeated and the
median reported. --trace 1 makes one untraced load pass on the second
server, then runs the layer tour (`ronbench layers`, which on churn-dense
also runs the message-passing simulator) and a traced load pass on the
third, and reports per-layer metrics; spans land in .bench_build/runs/.

The last stdout line is one JSON object: correct, attempted, failed and
the metrics of the mode (end-to-end with --trace 0, per-layer with
--trace 1). Workload rationale and predictions: perfbench/NOTES.md.
"""

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up repetitions per run; setup_s is their median.
SETUPS = 3

# Workload table: the one definition of each workload. Sizes are fixed;
# only the seeds vary per run. Settings that every workload shares (2
# reader connections, churn-dense's rate and churn chunks) are constants
# in perfbench/src/load.cpp. A workload with "objects" serves an object
# directory for locate; one without serves a labeling oracle for estimate.
WORKLOADS = {
    "locate-sparse": {
        "spec": "metric=geoline,n=50000,base=1.0000001",
        "objects": 1024, "replicas": 3, "backend": "sparse",
        "frame": 64, "warmup": 2.0,
    },
    "churn-dense": {
        "spec": "metric=geoline,n=512",
        "objects": 64, "replicas": 3, "backend": "dense",
        "frame": 8, "warmup": 1.0,
    },
    "estimate-labels": {
        "spec": "metric=clustered,n=480,per_cluster=16",
        "frame": 64, "warmup": 1.0,
    },
}

# The traced run's in-process set-up (the sum of its build, snapshot and
# engine spans) must take between 1/SETUP_TOLERANCE and SETUP_TOLERANCE
# times the served set-up of the same run (median of SETUPS), or the run
# fails: the tour would not be timing the work the served set-up does.
# The factor is wide because one set-up of the same work varies by up to
# ±40 % between minutes on a shared host (perfbench/NOTES.md); a missing
# or doubled dominant stage still lands outside it.
SETUP_TOLERANCE = 2.0

END_TO_END = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
]
PER_LAYER = [
    ("build.metric_s", "s"),
    ("build.prox_s", "s"),
    ("build.structure_s", "s"),
    ("query.us_per_op", "us"),
    ("structure.bytes_per_node", "B"),
    ("wire.bytes_per_op", "B"),
    ("p99_ms", "ms"),
    ("frame.rtt_us.b1", "us"),
    ("trace.overhead_frac", "frac"),
]


class BenchError(Exception):
    """A failure that ends the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    """Configures once, then builds the three targets (a no-op when up to
    date). Output goes to a log file; stdout stays for results."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no repo sources next to perfbench/ "
                         "(run from the root of a checkout)")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    with open(logpath, "a") as out:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", bdir, "-j",
                      str(min(4, os.cpu_count() or 1)), "--target",
                      "ronbench", "ron_served", "ron_oracle"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                raise BenchError("build failed: %s (see %s)"
                                 % (" ".join(cmd), logpath))
    return bdir


def environment(bdir):
    """Stamps what the numbers were measured on; refuses builds whose
    timings would not describe the shipped program."""
    cache = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and ":" in line.split("=", 1)[0]:
                key, value = line.rstrip("\n").split("=", 1)
                cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True).stdout.strip()
    except OSError:
        commit = ""
    env = {
        "commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "compiler": version,
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "RON_SANITIZE": cache.get("RON_SANITIZE", ""),
        "RON_TELEMETRY": cache.get("RON_TELEMETRY", ""),
    }
    if env["build_type"] != "Release" or \
            env["RON_SANITIZE"].upper() not in ("OFF", "FALSE", "0"):
        raise BenchError("refusing to measure a %s build with RON_SANITIZE=%s"
                         % (env["build_type"], env["RON_SANITIZE"]))
    return env


def scenario(name, seed):
    """The workload's spec with the run's overlay seed (ring sampling and
    the synthetic publish). The metric instance is part of the workload
    and stays fixed: label sizes and ring shapes of one family differ
    between metric seeds by more than any bound could absorb. So does the
    churn plan (see perfbench/src/load.cpp). The run's seed also drives
    the query streams and the traced run's simulator schedules."""
    return "%s,overlay_seed=%d" % (WORKLOADS[name]["spec"],
                                   (seed * 7919 + 17) % (1 << 31))


def ping(port, timeout=60.0):
    """One framed kPing -> kPong round trip (served/protocol.h)."""
    payload = struct.pack("<BBQ", 1, 1, 1)
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(struct.pack("<I", len(payload)) + payload)
        buf = b""
        while len(buf) < 4 or len(buf) < 4 + struct.unpack("<I", buf[:4])[0]:
            chunk = s.recv(4096)
            if not chunk:
                raise BenchError("ron_served closed the connection on ping")
            buf += chunk
    if buf[5] != 65:
        raise BenchError("ron_served answered ping with type %d" % buf[5])


class Server:
    """A ron_served process: started on an ephemeral port, stopped with
    SIGTERM (graceful drain) and always waited for."""

    def __init__(self, bdir, snapshot, extra, errlog):
        cmd = [os.path.join(bdir, "ron", "tools", "ron_served"), snapshot,
               "--threads", "2", "--port", "0"] + extra
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=errlog, text=True)
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise BenchError("ron_served did not print its port")
        self.port = int(line)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for ron_served")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def oracle_args(w):
    """ron_oracle arguments that write workload `w`'s snapshot."""
    if "objects" in w:
        return ["publish", "--objects", str(w["objects"]), "--replicas",
                str(w["replicas"]), "--backend", w["backend"]]
    return ["build", "--kind", "oracle"]


def serve_args(w):
    """ron_served arguments beyond the snapshot, threads and port."""
    return ["--backend", w["backend"]] if "backend" in w else []


def served_setup(bdir, w, spec, snapshot, errlog):
    """Spec -> snapshot -> ron_served -> first answered frame; returns the
    seconds taken and the running server."""
    t0 = time.monotonic()
    cmd = [os.path.join(bdir, "ron", "tools", "ron_oracle")] + \
        oracle_args(w) + ["--scenario", spec, "--out", snapshot]
    if subprocess.run(cmd, stdout=subprocess.DEVNULL,
                      stderr=errlog).returncode != 0:
        raise BenchError("snapshot generation failed: " + " ".join(cmd))
    server = Server(bdir, snapshot, serve_args(w), errlog)
    try:
        ping(server.port)
    except Exception:
        server.stop()
        raise
    return time.monotonic() - t0, server


def ronbench(bdir, args, timeout):
    """Runs the harness and returns its JSON result line."""
    cmd = [os.path.join(bdir, "ronbench")] + [str(a) for a in args]
    res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         timeout=timeout)
    if res.returncode != 0:
        raise BenchError("ronbench failed (exit %d): %s"
                         % (res.returncode, " ".join(cmd)))
    return json.loads(res.stdout.strip().splitlines()[-1])


def run_served(bdir, name, seed, seconds, trace, outdir, errlog):
    w = WORKLOADS[name]
    spec = scenario(name, seed)
    snapshot = os.path.join(outdir, "%s.ron" % name)
    common = ["--workload", name, "--spec", spec, "--snapshot", snapshot,
              "--seed", seed, "--seconds", seconds, "--out-dir", outdir,
              "--frame", w["frame"], "--warmup", w["warmup"]]
    timeout = seconds + w["warmup"] + 90
    setups = []
    server = None
    plain = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            dt, server = served_setup(bdir, w, spec, snapshot, errlog)
            setups.append(dt)
            if trace and i == SETUPS - 2:
                # The untraced pass that prices the tracing, against a
                # fresh server in the same state as the traced pass's.
                plain = ronbench(bdir, ["load", "--port", server.port] +
                                 common, timeout)
        if trace:
            layout = []
            for key in ("objects", "replicas", "backend"):
                if key in w:
                    layout += ["--" + key, w[key]]
            res = ronbench(bdir, ["layers", "--port", server.port] +
                           common + layout, timeout + 3 * seconds)
        else:
            res = ronbench(bdir, ["load", "--port", server.port] + common,
                           timeout)
        res["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    res["setup_s"] = statistics.median(setups)
    res["setups_s"] = setups
    if trace:
        res["attempted"] += plain["attempted"] + 1
        res["failed"] += plain["failed"]
        res["p50_ms.untraced"] = plain["p50_ms"]
        res["trace.overhead_frac"] = res["p50_ms.traced"] / plain["p50_ms"] \
            - 1.0
        ratio = res["setup.spans_s"] / res["setup_s"]
        res["trace.setup_vs_served"] = ratio
        if not 1.0 / SETUP_TOLERANCE <= ratio <= SETUP_TOLERANCE:
            log("perfbench: FAIL setup_vs_served: traced set-up spans %.3f s"
                " against served set-up %.3f s (ratio %.3f, tolerance %.2fx)"
                % (res["setup.spans_s"], res["setup_s"], ratio,
                   SETUP_TOLERANCE))
            res["failed"] += 1
            res["fail.setup_vs_served"] = 1
    return res


def measure(name, seed, seconds, trace):
    bdir = build()
    env = environment(bdir)
    outdir = os.path.join(bdir, "runs")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "stderr.log"), "a") as errlog:
        res = run_served(bdir, name, seed, seconds, trace, outdir, errlog)
    res["env"] = env
    res["workload"] = name
    res["seed"] = seed
    res["trace"] = int(trace)
    record = os.path.join(outdir, "%s-seed%d-trace%d.json"
                          % (name, seed, int(trace)))
    with open(record, "w") as f:
        json.dump(res, f, indent=1, sort_keys=True)

    wanted = PER_LAYER if trace else END_TO_END
    metrics = {}
    for key, unit in wanted:
        value = res.get(key)
        if not isinstance(value, (int, float)):
            raise BenchError("workload %s did not measure %s" % (name, key))
        metrics[key] = {"value": value, "unit": unit}
    attempted = int(res["attempted"])
    failed = int(res["failed"])
    print("workload %s  seed %d  %s  (%s, %s, RON_SANITIZE=%s, "
          "RON_TELEMETRY=%s, nproc %s, commit %s)"
          % (name, seed, "traced" if trace else "untraced",
             env["compiler"], env["build_type"], env["RON_SANITIZE"],
             env["RON_TELEMETRY"], env["nproc"], env["commit"]))
    for key, unit in wanted:
        print("  %-28s %-12.6g %s" % (key, res[key], unit))
    print("  %-28s %-12.6g (%d of %d ops failed)"
          % ("failed_frac", failed / max(attempted, 1), failed, attempted))
    print("  detail:")
    for key, value in sorted(res.items()):
        if isinstance(value, (int, float)) and not isinstance(value, bool) \
                and key not in metrics:
            print("    %-26s %.6g" % (key, value))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def self_test():
    """Toy-size runs of the answer checks: clean runs pass, and a wrong
    holder or a wrong estimate injected into one answer is caught."""
    bdir = build()
    outdir = os.path.join(bdir, "selftest")
    os.makedirs(outdir, exist_ok=True)
    cases = [
        ("locate", "locate-sparse",
         {"spec": "metric=geoline,n=2000,seed=3,base=1.0000001",
          "objects": 32, "replicas": 3, "backend": "sparse"}),
        ("estimate", "estimate-labels",
         {"spec": "metric=clustered,n=64,seed=3,per_cluster=16"}),
    ]
    ok = True
    with open(os.path.join(outdir, "stderr.log"), "w") as errlog:
        for kind, workload, w in cases:
            snapshot = os.path.join(outdir, kind + ".ron")
            cmd = [os.path.join(bdir, "ron", "tools", "ron_oracle")] + \
                oracle_args(w) + ["--scenario", w["spec"], "--out", snapshot]
            subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=errlog,
                           check=True)
            server = Server(bdir, snapshot, serve_args(w), errlog)
            try:
                for inject in ("none", "holder" if kind == "locate"
                               else "estimate"):
                    res = ronbench(bdir, [
                        "load", "--workload", workload, "--spec", w["spec"],
                        "--snapshot", snapshot, "--port", server.port,
                        "--seed", 5, "--seconds", 1, "--frame", 16,
                        "--inject", inject], timeout=60)
                    caught = res["failed"] > 0
                    good = caught == (inject != "none")
                    ok = ok and good
                    print("self-test %-8s inject=%-8s failed=%d  %s"
                          % (kind, inject, res["failed"],
                             "ok" if good else "WRONG"))
            finally:
                server.stop()
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    # SIGTERM unwinds like an error, so the finally blocks stop ron_served.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")
        measure(args.workload, args.seed, args.seconds, args.trace == 1)
        return 0
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log("perfbench: " + str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
