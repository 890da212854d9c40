#!/usr/bin/env python3
"""End-to-end benchmark of the aprof pipeline: record -> replay -> fit ->
diff, and live ingest into the `aprof serve` daemon.

Run it from the root of a source checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 45 --trace 0

It builds the `aprof` command-line tool from source with dune, then

  set-up   records the workload's trace, profiles it with `aprof run`,
           fits a baseline cost-model store, renders the reference
           reports and starts the daemon.  Set-up runs SETUP_REPS times;
           its median is `setup_s`.
  measure  for --seconds, repeats rounds of what a user runs:

             record  aprof record           VM emit + ATRC v3 encode
             replay  aprof replay (R files) decode + drms profile + merge
             ingest  K clients -> serve     concurrent pushes (closed loop)
             fit     SNAPSHOT, aprof fit    cost models of the live profile
             diff    aprof diff             live models vs the baseline

Every output is checked against an independent path: the re-recorded
trace must be byte-identical to the set-up one; the replay report and
the report of the daemon's snapshot must equal `aprof merge` of as many
copies of the profile `aprof run` computed from the materialized trace;
the daemon's counters must account for every pushed trace and event; the
models fitted from the snapshot must diff clean against the baseline.
One untimed warm-up round runs first.

Timings are the FAST_QUANTILE (10th percentile) of a run's samples, not
the median: the shared host slows every CPU-bound process by up to 1.5x
for seconds at a time, and the fast tail is what the program itself
costs.  Counts are medians.

With --trace 0 the last line of stdout is a JSON object holding the
end-to-end metrics; with --trace 1 it holds the per-layer metrics, taken
from spans recorded around each call into a layer, plus extra calls that
isolate process start, the VM and parallel replay.  All spans are
written to .perfbench_run/spans.json.
"""

import argparse
import json
import os
import re
import shutil
import socket
import subprocess
import sys
import threading
import time

# name -> (VM program, scale, replayed copies R, ingest clients K).
# Each program's trace length does not depend on the seed, so runs with
# different seeds do the same amount of work.
WORKLOADS = {
    # Pipelined compressor with ten routines over many distinct input
    # sizes: the penalized fit and its bootstrap dominate.
    "fit": ("dedup", 400, 8, 8),
    # Many small streams at once: per-connection daemon costs (accept,
    # reader thread, inbox, per-stream profiler, fold) dominate ingest.
    "fleet": ("bodytrack", 600, 16, 32),
}

THREADS = 4
# Bootstrap resamples per fit (the CLI default is 120): fit time is linear
# in them, and 40 keeps a fit short enough for a run to hold dozens.
BOOTSTRAP = 40
SETUP_REPS = 7
MIN_ROUNDS = 3
FAST_QUANTILE = 0.1
WORK_DIR = ".perfbench_run"
APROF = os.path.join("_build", "default", "bin", "aprof.exe")
SOCK = "serve.sock"
CALL_TIMEOUT = 60.0
RATE_LINE = rb"(?:recorded|replayed) (\d+) events in [\d.]+ s \(([\d.]+)M events/s\)"


class BenchError(Exception):
    pass


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def quantile(xs, q):
    """Linear-interpolated quantile; 0 for no samples (a failed run)."""
    if not xs:
        return 0.0
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    i = int(pos)
    j = min(i + 1, len(xs) - 1)
    return xs[i] + (xs[j] - xs[i]) * (pos - i)


class Bench:
    def __init__(self, workload, seed, trace):
        self.program, self.scale, self.copies, self.clients = WORKLOADS[workload]
        self.seed = seed
        self.trace = trace
        self.t0 = time.perf_counter()
        self.spans = []  # (name, start, end, round); round -1 = untimed
        self.round = -1
        self.samples = {}  # in-program instruments and counts, timed rounds
        self.attempted = 0
        self.errors = []
        self.daemon = None

    # --- bookkeeping ---

    def span(self, name, start, end):
        self.spans.append((name, start - self.t0, end - self.t0, self.round))

    def durations(self, name):
        """Durations of the [name] spans in timed rounds."""
        return [e - s for (n, s, e, r) in self.spans if n == name and r >= 0]

    def fast(self, name):
        return max(quantile(self.durations(name), FAST_QUANTILE), 1e-9)

    def sample(self, name, value):
        if self.round >= 0:
            self.samples.setdefault(name, []).append(value)

    def outcome(self, ok, what, ops=1):
        """Count [ops] attempted operations, all failed unless [ok]."""
        self.attempted += ops
        if not ok:
            self.errors.append((ops, what))
        return ok

    # --- the program ---

    def aprof(self, name, args):
        """Run one aprof command as span [name]; returns (ok, stdout, stderr)
        and leaves counting the operation to the caller's checks."""
        start = time.perf_counter()
        try:
            p = subprocess.run([os.path.join("..", APROF)] + args, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, timeout=CALL_TIMEOUT)
        except subprocess.TimeoutExpired:
            return (False, b"", b"%s timed out" % name.encode())
        self.span(name, start, time.perf_counter())
        return (p.returncode == 0, p.stdout, p.stderr)

    def vm_args(self):
        return [self.program, "-j", str(THREADS), "-s", str(self.scale), "--seed", str(self.seed)]

    def fit_args(self, profile, store):
        return ["fit", "--profile", profile, "--store", store, "--seed", str(self.seed),
                "--bootstrap", str(BOOTSTRAP)]

    def rate(self, name, err, events):
        """The program's own throughput line (stderr), if it counts [events]."""
        m = re.search(RATE_LINE, err)
        if m is None or int(m.group(1)) != events:
            return False
        self.sample(name, float(m.group(2)))
        return True

    # --- the daemon ---

    def control(self, cmd):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(CALL_TIMEOUT)
            s.connect(SOCK)
            s.sendall((cmd + "\n").encode())
            reply = []
            while True:
                b = s.recv(4096)
                if not b:
                    return b"".join(reply).decode()
                reply.append(b)

    def stats(self):
        reply = self.control("STATS")
        if not reply.startswith("OK "):
            raise BenchError("bad STATS reply %r" % reply)
        return {k: int(v) for k, v in (kv.split("=") for kv in reply.split()[1:])}

    def proc(self, name):
        try:
            with open("/proc/%d/%s" % (self.daemon.pid, name)) as f:
                return f.read()
        except OSError:
            return ""

    def daemon_cpu(self):
        """Seconds of CPU the daemon has used so far, or None off Linux."""
        fields = self.proc("stat").rsplit(")", 1)[-1].split()
        if len(fields) < 13:
            return None
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def daemon_rss(self):
        """The daemon's resident set in bytes, or 0 off Linux."""
        m = re.search(r"VmRSS:\s+(\d+) kB", self.proc("status"))
        return int(m.group(1)) * 1024 if m else 0

    def start_daemon(self):
        # A graceful STOP waits out the daemon's 0.2 s accept poll; the
        # snapshot the round needs is already on disk, so kill it.
        self.stop_daemon(graceful=False)
        if os.path.exists(SOCK):
            os.remove(SOCK)
        with open("serve.log", "w") as log:
            self.daemon = subprocess.Popen(
                [os.path.join("..", APROF), "serve", "--unix", SOCK, "-o", "snap.csv", "-j", "2", "-q"],
                stdout=log, stderr=log)
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            if self.daemon.poll() is not None:
                raise BenchError("daemon exited with %d" % self.daemon.returncode)
            try:
                if self.control("PING") == "PONG\n":
                    return
            except OSError:
                pass
            time.sleep(0.002)
        raise BenchError("daemon did not answer PING")

    def stop_daemon(self, graceful=True):
        d, self.daemon = self.daemon, None
        if d is None:
            return
        try:
            if d.poll() is None and graceful:
                try:
                    self.control("STOP")
                except OSError:
                    d.terminate()
                d.wait(timeout=20)
        except subprocess.TimeoutExpired:
            pass
        d.kill()
        d.wait()

    # --- set-up ---

    def setup(self):
        """Inputs every round reuses, made from the seed alone."""
        steps = [
            ["record"] + self.vm_args() + ["--trace-format", "3", "-o", "trace.atrc"],
            ["run"] + self.vm_args() + ["-o", "base.csv"],
            ["merge"] + ["base.csv"] * self.copies,
            ["merge"] + ["base.csv"] * self.clients,
            self.fit_args("base.csv", "base.model"),
            ["diff", "base.model", "base.model", "--ignore-meta"],
        ]
        outs = []
        for args in steps:
            ok, out, err = self.aprof("setup", args)
            if not ok:
                raise BenchError("set-up `aprof %s` failed: %r" % (args[0], err[-300:]))
            outs.append((out, err))
        m = re.search(RATE_LINE, outs[0][1])
        if m is None or b"clean: no findings" not in outs[5][0]:
            raise BenchError("set-up outputs are malformed")
        self.events = int(m.group(1))
        with open("trace.atrc", "rb") as f:
            self.trace_bytes = f.read()
        self.replay_reference = outs[2][0]
        self.ingest_reference = outs[3][0]
        self.diff_reference = outs[5][0]
        self.start_daemon()

    # --- one round ---

    def record(self):
        ok, _, err = self.aprof("record", ["record"] + self.vm_args() + ["--trace-format", "3", "-o", "rec.atrc"])
        if ok:
            with open("rec.atrc", "rb") as f:
                ok = f.read() == self.trace_bytes
            ok = ok and self.rate("record_inproc", err, self.events)
        self.outcome(ok, "record: failed or not byte-identical to the set-up trace")

    def replay(self, name="replay", jobs=1):
        ok, out, err = self.aprof(name, ["replay", "-j", str(jobs)] + ["trace.atrc"] * self.copies)
        ok = ok and out == self.replay_reference
        if ok and jobs == 1:
            ok = self.rate("replay_inproc", err, self.events * self.copies)
        self.outcome(ok, "%s: failed or report differs from the merged run profile" % name)

    def push(self, errors):
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
                s.settimeout(CALL_TIMEOUT)
                s.connect(SOCK)
                s.sendall(self.trace_bytes)
                s.shutdown(socket.SHUT_WR)
                while s.recv(4096):  # the daemon closes once the stream is folded
                    pass
        except OSError as e:
            errors.append(str(e))

    def ingest(self):
        """K clients each stream the trace once over their own connection
        to a freshly started daemon; the round ends when the daemon has
        folded every stream."""
        # Finished connections keep their profiler state in the daemon,
        # so its heap, and with it the cost of every later stream, grows
        # by megabytes per stream.  A fresh daemon per round keeps both
        # the memory and the measured conditions the same in every round.
        start = time.perf_counter()
        self.start_daemon()
        self.span("daemon_start", start, time.perf_counter())
        before, cpu0, rss0 = self.stats(), self.daemon_cpu(), self.daemon_rss()
        errors = []
        threads = [threading.Thread(target=self.push, args=(errors,)) for _ in range(self.clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.span("ingest", start, time.perf_counter())
        after, cpu1, rss1 = self.stats(), self.daemon_cpu(), self.daemon_rss()
        d = {k: after[k] - before[k] for k in ("traces", "events", "drops", "folds")}
        ok = (not errors and d["traces"] == self.clients and d["drops"] == 0
              and d["events"] == self.clients * self.events)
        self.outcome(ok, "ingest: %s, daemon counted %s" % (errors[:1], d), ops=self.clients)
        self.sample("ingest_folds", d["folds"])
        self.sample("ingest_rss_per_stream", (rss1 - rss0) / self.clients)
        if cpu0 is not None and cpu1 is not None:
            self.sample("ingest_cpu", cpu1 - cpu0)

    def fit(self):
        start = time.perf_counter()
        reply = self.control("SNAPSHOT")
        self.span("snapshot", start, time.perf_counter())
        ok = reply == "OK\n"
        if ok:
            ok, out, _ = self.aprof("verify", ["report", "snap.csv"])
            ok = ok and out == self.ingest_reference
        self.outcome(ok, "snapshot: failed or differs from the merged run profile")
        ok, _, _ = self.aprof("fit", self.fit_args("snap.csv", "live.model"))
        self.outcome(ok, "fit: fit of the live profile failed")

    def diff(self):
        ok, out, _ = self.aprof("diff", ["diff", "base.model", "live.model", "--ignore-meta"])
        self.outcome(ok and out == self.diff_reference, "diff: live models differ from the baseline: %r" % out[-200:])

    def run_round(self):
        self.record()
        # Replay is the shortest stage, so it is the one a noisy host
        # disturbs most: two samples a round.
        self.replay()
        self.replay()
        self.ingest()
        self.fit()
        self.diff()
        if self.trace:
            ok, _, _ = self.aprof("cli_start", ["--version"])
            self.outcome(ok, "aprof --version failed")
            ok, _, err = self.aprof("vm", ["trace"] + self.vm_args() + ["--limit", "0"])
            self.outcome(ok and b"(%d more events)" % self.events in err, "vm: event count differs")
            self.replay("replay_j2", jobs=2)

    # --- metrics ---

    def end_to_end(self, setup_times):
        return {
            "pipeline_ms": (sum(self.fast(n) for n in ("record", "replay", "fit", "diff")) * 1e3, "ms"),
            "replay_mev_s": (self.copies * self.events / self.fast("replay") / 1e6, "Mev/s"),
            "ingest_mev_s": (self.clients * self.events / self.fast("ingest") / 1e6, "Mev/s"),
            "setup_s": (quantile(setup_times, 0.5), "s"),
        }

    def per_layer(self):
        ms = lambda n: (self.fast(n) * 1e3, "ms")
        med = lambda n, scale=1: quantile(self.samples.get(n, []), 0.5) * scale
        layers = {
            "cli_start_ms": ms("cli_start"),
            "daemon_start_ms": ms("daemon_start"),
            "vm_ms": ms("vm"),
            "record_ms": ms("record"),
            "record_inproc_mev_s": (med("record_inproc"), "Mev/s"),
            "trace_bytes_per_event": (len(self.trace_bytes) / self.events, "B/event"),
            "replay_ms": ms("replay"),
            "replay_inproc_mev_s": (med("replay_inproc"), "Mev/s"),
            "replay_j2_ms": ms("replay_j2"),
            "ingest_ms": ms("ingest"),
            "ingest_folds": (med("ingest_folds"), "count"),
            "ingest_kib_per_stream": (med("ingest_rss_per_stream", 1 / 1024), "KiB"),
            "snapshot_ms": ms("snapshot"),
            "fit_ms": ms("fit"),
            "diff_ms": ms("diff"),
        }
        if "ingest_cpu" in self.samples:
            layers["ingest_cpu_ns_per_event"] = (med("ingest_cpu", 1e9 / (self.clients * self.events)), "ns/event")
        return layers


def build():
    if not (os.path.isfile("dune-project") and os.path.isfile(os.path.join("bin", "aprof.ml"))):
        fail("run from the root of an aprof source checkout (no dune-project or bin/aprof.ml here)")
    if shutil.which("dune") is None:
        fail("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        p = subprocess.run(["dune", "build", "--root", ".", "--display", "quiet", "./bin/aprof.exe"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env, timeout=850)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if p.returncode != 0 or not os.path.isfile(APROF):
        sys.stderr.write(p.stdout.decode(errors="replace")[-4000:])
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description="Benchmark the aprof record/replay/fit/diff pipeline and live ingest.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    os.makedirs(WORK_DIR)
    os.chdir(WORK_DIR)

    b = Bench(args.workload, args.seed, args.trace == 1)
    rounds = 0
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            b.setup()
            setup_times.append(time.perf_counter() - start)
        b.run_round()  # warm-up
        deadline = time.monotonic() + args.seconds
        while rounds < MIN_ROUNDS or time.monotonic() < deadline:
            b.round = rounds
            b.run_round()
            rounds += 1
    except (BenchError, OSError) as e:
        fail(str(e), 1)
    finally:
        b.stop_daemon()

    with open("spans.json", "w") as f:
        json.dump([{"name": n, "start": s, "end": e, "round": r} for (n, s, e, r) in b.spans], f)
    for _, e in b.errors[:10]:
        print("perfbench: check failed: " + e, file=sys.stderr)
    failed = sum(ops for ops, _ in b.errors)
    metrics = b.per_layer() if b.trace else b.end_to_end(setup_times)
    print("workload %s (%s, %d events): %d timed rounds, %d operations, %d failed"
          % (args.workload, b.program, b.events, rounds, b.attempted, failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": b.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
