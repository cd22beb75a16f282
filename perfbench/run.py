#!/usr/bin/env python3
"""Benchmark of the nfc verifier: one named workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script builds the verifier
(`dune build`), measures the workload for about S seconds, checks every
output, and prints as its last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones.  See perfbench/README.md for the workloads,
the metrics and how to read them.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import mix  # noqa: E402

NFC = "_build/default/bin/nfc.exe"
PROBE = "_build/default/perfbench/probe/probe.exe"
SPECS = ["examples/specs/" + f for f in (
    "alternating_bit.nfc", "bounded_counter.nfc", "flooding_counter.nfc",
    "pumped_counter.nfc", "stop_and_wait.nfc")]
REGISTRY = ["stop-and-wait", "altbit", "stab-arq", "stenning", "gbn", "sr", "flood", "afek3"]
WORK = ".bench_tmp"
OP_TIMEOUT = 150.0
SETUP_BATCH = 20
SERVER_SETUP_BATCH = 11
# The service loop runs this many rounds per second of --seconds (30
# rounds at 20 s take 13-20 s on the reference machine).  A fixed amount of
# work, not a fixed time: resident state grows with every round, and the
# server's peak RSS should follow the work, not the host's speed.
ROUNDS_PER_SECOND = 1.5
# A traced run of a CLI workload: one CLI pass for the output checks, then
# this many pairs of untraced and traced probe passes, then a service loop
# of TRACE_ROUNDS rounds for the serve.* layer.  Fixed counts, so a traced
# run attempts the same operations whatever its speed.
TRACE_PAIRS = 4
TRACE_ROUNDS = 8
# Host-speed calibration: `probe calibrate CAL_N` does fixed work that calls
# nothing of the verifier.  A shared host's speed drifts, by a fifth over
# minutes on the reference machine, and the verifier's times and the
# calibration's move together (see README, "Host speed").  Every timing but setup_s is
# reported at the reference speed, at which the calibration takes
# REFERENCE_CAL_S: measured * REFERENCE_CAL_S / (mean calibration of the
# run).  A sample runs as many calibrations at once as the workload keeps
# cores busy: two for stab-recovery's two engine domains and for the
# service, whose worker and client run side by side.  The service loop
# takes a sample every CAL_EVERY_ROUNDS rounds.
CAL_N = 400000
REFERENCE_CAL_S = 0.4
CAL_EVERY_ROUNDS = 3
SERVICE_CAL_WIDTH = 2

# ------------------------------------------------------------ workloads

# lint-registry: the registry at 30k nodes with the complete tier at a 2k
# cover budget (at the 200k default the diverging covers of flood and
# afek3 take most of the time), then each example spec with refinement.
LINT_NODES = 30000
LINT_COVER_NODES = 2000
LINT_REFINE = 4

# boundness-probe: (protocol, nodes); probes are over 90% of the time.
BOUNDNESS = [("altbit", 6000), ("stop-and-wait", 12000),
             ("file:examples/specs/alternating_bit.nfc", 6000)]

# stab-recovery: (protocol, capacity, nodes, recovery nodes, starts,
# expected SS1 verdict, expected SS1 bound or None), at 2 engine domains.
STAB_DOMAINS = 2
STAB = [("stab-arq:2", 2, 100000, 300000, 120000, "pass", 12),
        ("altbit", 1, 8000, 100000, 60000, "fail", None),
        ("stop-and-wait", 1, 8000, 100000, 60000, "fail", None)]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


class Tally:
    """Operations attempted and failed; each failure is reported on stderr.
    [known] counts the failures of operations marked as hitting a known
    fault of the program (see mix.py); any other failure makes the run
    incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = 0
        self.lock = threading.Lock()

    def record(self, ok, what, known=False):
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.known += known
                print(f"perfbench: FAILED {'(known fault) ' if known else ''}{what}", file=sys.stderr)


def quantile(values, q):
    """Linear-interpolation quantile, as statistics.quantiles(method='inclusive')."""
    s = sorted(values)
    if len(s) == 1:
        return s[0]
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def spawn(argv, out_path=None, timeout=OP_TIMEOUT):
    """Run one process; return (seconds, peak RSS in MB, exit code, stdout).
    A process still running after [timeout] seconds is killed, and its exit
    code is None."""
    out = open(out_path, "wb") if out_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL)
        killer = threading.Timer(timeout, p.kill)
        killer.daemon = True
        killer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            killer.cancel()
        dt = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    finally:
        if out_path:
            out.close()
    code = None if dt >= timeout else p.returncode
    text = b""
    if out_path:
        with open(out_path, "rb") as f:
            text = f.read()
    return dt, ru.ru_maxrss / 1024, code, text


def build():
    for need in ("dune-project", "bin/nfc.ml", "lib", *SPECS):
        if not os.path.exists(need):
            die(f"{need} not found: run from the root of a source checkout")
    dune = shutil.which("dune")
    cmd = [dune] if dune else (["opam", "exec", "--", "dune"] if shutil.which("opam") else None)
    if cmd is None:
        die("dune not found on PATH")
    r = subprocess.run(cmd + ["build", "--root", ".", NFC.replace("_build/default/", ""),
                              PROBE.replace("_build/default/", "")],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        die("build failed")


def calibration_sample(width=1):
    """Seconds of the slowest of [width] `probe calibrate` runs started
    together, each timed inside its process."""
    outs = [None] * width

    def one(i):
        outs[i] = spawn([PROBE, "calibrate", str(CAL_N)], os.path.join(WORKDIR, f"cal{i}.json"))

    threads = [threading.Thread(target=one, args=(i,)) for i in range(width)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    times = []
    for _, _, code, text in outs:
        if code != 0:
            die("calibration process failed")
        times.append(json.loads(text)["calibration_s"])
    return max(times)


def speed_scale(cal):
    """Factor that takes a time measured beside the calibration samples
    [cal] to the reference speed."""
    c = statistics.mean(cal)
    print(f"perfbench: calibration mean {c:.4f} s over {len(cal)} samples", file=sys.stderr)
    return REFERENCE_CAL_S / c


def setup_samples(protos, n):
    """Wall-clock of [n] fresh processes that each start the runtime,
    resolve the workload's protocols and compile its .nfc specs."""
    times = []
    for _ in range(n):
        dt, _, code, _ = spawn([PROBE, "setup", *protos])
        if code != 0:
            die("set-up process failed")
        times.append(dt)
    return times


# ------------------------------------------------------------ CLI runs

class Op:
    """One CLI call of a pass: argv, accepted exit codes, and a validator
    of its stdout returning None or the reason it is wrong."""

    def __init__(self, name, argv, codes=(0,), validate=None):
        self.name, self.argv, self.codes, self.validate = name, argv, codes, validate


def run_passes(ops, seed, seconds, tally, min_passes=3, setup=None, cal_width=1):
    """Timed passes of fresh `nfc` processes until [seconds] are spent.
    Each pass runs every op once, in a seeded order.  With [setup] (a
    protocol list), a batch of SETUP_BATCH set-up samples and one
    calibration sample of [cal_width] are taken before every pass, and one
    more after the last, so both span the run.  Returns the pass times,
    each op's times, the highest peak RSS, each op's first output, the
    set-up batches and the calibration samples."""
    rng = random.Random(f"order-{seed}")
    pass_times, op_times, rss, first, setup_batches, cal = [], {}, 0.0, {}, [], []
    start = time.perf_counter()
    while len(pass_times) < min_passes or time.perf_counter() - start < seconds:
        if setup:
            setup_batches.append(setup_samples(setup, SETUP_BATCH))
            cal.append(calibration_sample(cal_width))
        order = list(ops)
        rng.shuffle(order)
        total = 0.0
        for op in order:
            out = os.path.join(WORKDIR, "out.txt")
            dt, mb, code, text = spawn([NFC, *op.argv], out)
            total += dt
            rss = max(rss, mb)
            why = None
            if code not in op.codes:
                why = f"exit code {code}"
            elif op.name not in first:
                first[op.name] = text
                try:
                    why = op.validate(text) if op.validate else None
                except (ValueError, KeyError, TypeError) as e:
                    why = f"unreadable output: {e!r}"
            elif text != first[op.name]:
                why = "output differs from the first pass"
            tally.record(why is None, f"{op.name}: {why}")
            if why is None:
                op_times.setdefault(op.name, []).append(dt)
        pass_times.append(total)
    if setup:
        cal.append(calibration_sample(cal_width))
    return pass_times, op_times, rss, first, setup_batches, cal


def cli_metrics(setup_batches, cal, pass_times, op_times, rss):
    """verdict_s is the mean pass.  A call's latency is its mean over the
    passes, and the percentiles run over the calls: pooling every pass's
    calls would put the median on the boundary between two kinds of call.
    Every timing but setup_s is taken to the reference speed."""
    k = speed_scale(cal)
    verdict = k * statistics.mean(pass_times)
    calls = sorted(k * statistics.mean(ts) for ts in op_times.values())
    return {
        "setup_s": (statistics.median([t for b in setup_batches for t in b]), "s"),
        "verdict_s": (verdict, "s"),
        "peak_rss_mb": (rss, "MB"),
        "jobs_per_s": (len(calls) / verdict, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(calls), "ms"),
        "latency_p95_ms": (1000 * quantile(calls, 0.95), "ms"),
    }


def jsonl(text):
    return [json.loads(line) for line in text.decode().splitlines() if line.strip()]


def check_certificates(text):
    """Theorem 2.1 (measured boundness <= k_t*k_r) and the header census
    (|P| <= declared headers) on every lint line."""
    lines = jsonl(text)
    if not lines:
        return "no output"
    for line in lines:
        c = line["certificate"]
        b = c["measured_boundness"]
        if b is not None and b > c["state_product"]:
            return f"{c['protocol']}: boundness {b} > k_t*k_r {c['state_product']}"
        if c["declared_header_bound"] is not None and c["alphabet_size"] > c["declared_header_bound"]:
            return f"{c['protocol']}: {c['alphabet_size']} packets > {c['declared_header_bound']} declared"
    return None


def check_boundness_report(text):
    r = json.loads(text)
    if r["boundness"] is None or r["probes_exhausted"] or r["probes_skipped"]:
        return f"inconclusive measurement {r}"
    if r["boundness"] > r["state_product"]:
        return f"boundness {r['boundness']} > k_t*k_r {r['state_product']}"
    return None


def probe_checks(args, tally):
    """Run a probe check mode; every check it reports is one operation."""
    _, _, code, text = spawn([PROBE, *args], os.path.join(WORKDIR, args[0] + ".json"))
    try:
        checks = json.loads(text)["checks"] if code == 0 else None
    except (ValueError, KeyError):
        checks = None
    if checks is None:
        tally.record(False, f"probe {args[0]}: exit code {code}, output {text[:200]!r}")
        return
    for c in checks:
        tally.record(c["ok"], f"{c['name']}: {c['detail']}")


def spec_arg(proto):
    return ["--spec", proto[5:]] if proto.startswith("file:") else ["-p", proto]


# lint-registry ---------------------------------------------------------

def lint_ops():
    ops = [Op("lint-registry", ["lint", "--json", "--nodes", str(LINT_NODES), "--complete",
                                "--cover-nodes", str(LINT_COVER_NODES)], validate=check_certificates)]
    for spec in SPECS:
        ops.append(Op(spec, ["lint", "--json", "--nodes", str(LINT_NODES), "--spec", spec,
                             "--refine", str(LINT_REFINE)], validate=check_certificates))
    return ops


def lint_checks(first, tally):
    # Hand-written vs PDL-compiled: the spec's exploration certificate must
    # equal the registry protocol's.
    registry = {l["certificate"]["protocol"]: l["certificate"] for l in jsonl(first["lint-registry"])}
    fields = ["k_t", "k_r", "state_product", "measured_boundness", "alphabet_tr",
              "alphabet_rt", "configs_explored", "probes_exhausted", "truncated"]
    for spec, name in (("examples/specs/alternating_bit.nfc", "alternating-bit"),
                       ("examples/specs/stop_and_wait.nfc", "stop-and-wait")):
        compiled = jsonl(first[spec])[0]["certificate"]
        same = all(compiled[f] == registry[name][f] for f in fields)
        tally.record(same, f"hand-vs-pdl {name}: certificates differ")
    # The alternating-bit phantom: found, saved, and re-judged apart.
    trace = os.path.join(WORKDIR, "altbit.trace")
    _, _, code, _ = spawn([NFC, "mcheck", "-p", "altbit", "--save", trace])
    tally.record(code == 2 and os.path.exists(trace), f"mcheck altbit: exit {code}, expected a phantom")
    _, _, code, text = spawn([NFC, "replay", trace], os.path.join(WORKDIR, "replay.txt"))
    tally.record(code == 2 and b"DL1: VIOLATED" in text, f"replay altbit trace: exit {code}")
    probe_checks(["check-trace", trace], tally)
    _, _, code, text = spawn([NFC, "mcheck", "-p", "stenning", "--nodes", "20000"],
                             os.path.join(WORKDIR, "stenning.txt"))
    tally.record(code == 0 and b"no violation" in text, f"mcheck stenning: exit {code}, expected no phantom")
    probe_checks(["check-reference", "lint", "2000", *REGISTRY,
                  "file:examples/specs/alternating_bit.nfc", "file:examples/specs/stop_and_wait.nfc"], tally)


# boundness-probe -------------------------------------------------------

def boundness_ops():
    return [Op(f"boundness {p}", ["boundness", "--json", "--nodes", str(n), *spec_arg(p)],
               validate=check_boundness_report) for p, n in BOUNDNESS]


def boundness_checks(first, tally):
    hand = first["boundness altbit"]
    pdl = first["boundness file:examples/specs/alternating_bit.nfc"]
    tally.record(hand == pdl, "hand-vs-pdl boundness: reports differ")
    probe_checks(["check-reference", "boundness", "2000",
                  *[p for p, _ in BOUNDNESS]], tally)


# stab-recovery ---------------------------------------------------------

def stab_validator(verdict, bound):
    def validate(text):
        r = json.loads(text)
        if r["ss1"] != verdict:
            return f"SS1 {r['ss1']}, expected {verdict}: {r['ss1_reason']}"
        if bound is not None and r["convergence_bound"] != bound:
            return f"SS1 bound {r['convergence_bound']}, expected {bound}"
        return None
    return validate


def stab_ops():
    ops = []
    for p, cap, nodes, rec, starts, verdict, bound in STAB:
        ops.append(Op(f"stab {p}", ["stab", "--json", "-p", p, "--capacity", str(cap), "--nodes", str(nodes),
                                    "--recovery-nodes", str(rec), "--starts", str(starts),
                                    "--engine-domains", str(STAB_DOMAINS)],
                      codes=(0,) if verdict == "pass" else (2,), validate=stab_validator(verdict, bound)))
    return ops


def stab_checks(first, tally):
    p, cap, nodes, _, _, _, _ = STAB[0]
    report = os.path.join(WORKDIR, "stab.json")
    with open(report, "wb") as f:
        f.write(first[f"stab {p}"])
    probe_checks(["check-witness", p, str(cap), "2",
                  str(nodes), report], tally)


def stab_trace_args():
    return ["trace-stab", str(STAB_DOMAINS),
            *[f"{p}:{cap}:{n}:{rec}:{st}" for p, cap, n, rec, st, _, _ in STAB]]


CLI = {
    "lint-registry": dict(
        ops=lint_ops, checks=lint_checks,
        setup=REGISTRY + ["file:" + s for s in SPECS],
        trace=lambda: ["trace-lint", str(LINT_NODES), str(LINT_COVER_NODES), str(LINT_REFINE), *SPECS]),
    "boundness-probe": dict(
        ops=boundness_ops, checks=boundness_checks,
        setup=[p for p, _ in BOUNDNESS],
        trace=lambda: ["trace-boundness", *[f"{p}:{n}" for p, n in BOUNDNESS]]),
    "stab-recovery": dict(
        ops=stab_ops, checks=stab_checks,
        setup=[p for p, *_ in STAB], cal_width=STAB_DOMAINS,
        trace=stab_trace_args),
}


def run_cli(name, seed, seconds, tally):
    w = CLI[name]
    pass_times, op_times, rss, first, setup, cal = run_passes(
        w["ops"](), seed, seconds, tally, setup=w["setup"], cal_width=w.get("cal_width", 1))
    run_checks(name, first, tally)
    if not op_times:
        die(f"{name}: no operation succeeded")
    return cli_metrics(setup, cal, pass_times, op_times, rss)


def run_checks(name, first, tally):
    """The workload's global checks, on the first output of each op."""
    w = CLI[name]
    if len(first) == len(w["ops"]()):
        w["checks"](first, tally)
    else:
        tally.record(False, f"{name}: checks skipped, some operation never succeeded")


def traced_pass(name, traced=True):
    """One pass in a fresh probe process: (pass seconds, metrics).  An
    untraced pass makes the same calls with spans and counters off and
    reports no metrics."""
    mode, *args = CLI[name]["trace"]()
    argv = [PROBE, mode, *([] if traced else ["--untraced"]), *args]
    dt, _, code, text = spawn(argv, os.path.join(WORKDIR, "trace.json"))
    if code != 0:
        die(f"{'traced' if traced else 'untraced'} pass of {name} failed")
    t = json.loads(text)
    return t["pass_s"], t.get("metrics", {})


# ------------------------------------------------------------ service

class Server:
    """`nfc serve --jobs 1` on an ephemeral port, at the default result TTL."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen([NFC, "serve", "--port", "0", "--jobs", "1"],
                                     stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        line = self.proc.stdout.readline().decode()
        m = re.search(r"listening on [0-9.]+:([0-9]+)", line)
        if not m:
            self.stop()
            die(f"server did not start: {line!r}")
        self.port = int(m.group(1))
        while True:
            try:
                c = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                c.request("GET", "/healthz")
                ok = c.getresponse().status == 200
                c.close()
                if ok:
                    break
            except OSError:
                pass
            if time.perf_counter() - self.t0 > 30:
                self.stop()
                die("server never answered /healthz")
            time.sleep(0.001)
        self.ready_s = time.perf_counter() - self.t0

    def stop(self, sig=signal.SIGTERM):
        """Signal the server and wait for it; returns its peak RSS in MB."""
        self.proc.send_signal(sig)
        try:
            _, _, ru = os.wait4(self.proc.pid, 0)
        except ChildProcessError:
            return 0.0
        self.proc.returncode = 0
        self.proc.stdout.close()
        return ru.ru_maxrss / 1024


class Session:
    """One client session: a keep-alive connection that runs sequences."""

    POLL = 0.002

    def __init__(self, port):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=OP_TIMEOUT)

    def call(self, method, path, body=None):
        self.conn.request(method, path, body=None if body is None else json.dumps(body),
                          headers={"content-type": "application/json"})
        r = self.conn.getresponse()
        return r.status, r.read()

    def reconnect(self):
        self.conn.close()
        self.conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=OP_TIMEOUT)


def server_setup_batch():
    """Launch-to-healthy times of SERVER_SETUP_BATCH fresh servers."""
    times = []
    for _ in range(SERVER_SETUP_BATCH):
        s = Server()
        times.append(s.ready_s)
        s.stop(signal.SIGKILL)
    return times


def pdl_handle(source):
    return "pdl:" + hashlib.md5(source.encode()).hexdigest()


def run_service(seed, rounds, tally, traced):
    """A batch of launch-to-healthy set-up samples, [rounds] rounds of the
    seeded stream on 2 sessions, another set-up batch, then the output
    checks.  A round starts when the previous one has ended; with [traced]
    the client scrapes /metrics after every round.  A calibration sample is
    taken before every CAL_EVERY_ROUNDS-th round, outside the round times."""
    setup = [server_setup_batch()]
    server = Server()
    lock = threading.Lock()
    latencies, polls, register_ms, results, round_times, scrapes, cal = [], [], [], [], [], [], []

    def run_job(sess, op):
        t0 = time.perf_counter()
        status, body = sess.call("POST", "/v1/" + op["endpoint"], op["body"])
        if status == 429:
            tally.record(True, "refused with 429")
            return
        if status != 202:
            tally.record(False, f"{op['endpoint']}: submit answered {status} {body[:200]!r}")
            return
        job = json.loads(body)["id"]
        n = 0
        while True:
            status, body = sess.call("GET", f"/v1/jobs/{job}")
            n += 1
            st = json.loads(body).get("state") if status == 200 else None
            if st in ("done", "failed", "cancelled"):
                break
            if status != 200 or time.perf_counter() - t0 > OP_TIMEOUT:
                tally.record(False, f"{op['endpoint']}: poll answered {status}")
                return
            time.sleep(Session.POLL)
        latency = time.perf_counter() - t0
        if st != "done":
            tally.record(False, f"{op['endpoint']}: job ended {st}")
            return
        status, doc = sess.call("GET", f"/v1/jobs/{job}/result")
        if status != 200:
            tally.record(False, f"{op['endpoint']}: result answered {status}")
            return
        with lock:
            latencies.append(latency)
            polls.append(n)
            results.append((op, doc))

    def run_register(sess, op):
        t0 = time.perf_counter()
        status, body = sess.call("POST", "/v1/protocols", {"spec": op["source"], "refine": 2})
        dt = time.perf_counter() - t0
        want = pdl_handle(op["source"])
        ok = status in (200, 201) and json.loads(body).get("handle") == want
        tally.record(ok, f"register: answered {status}, expected handle {want}")
        if ok:
            with lock:
                register_ms.append(1000 * dt)

    def worker(sess, queue):
        while True:
            with lock:
                if not queue:
                    return
                seq = queue.pop(0)
            try:
                for op in seq:
                    (run_register if op["op"] == "register" else run_job)(sess, op)
            except (OSError, http.client.HTTPException, ValueError, KeyError) as e:
                tally.record(False, f"session error: {e!r}")
                sess.reconnect()

    sessions = [Session(server.port) for _ in range(2)]
    try:
        for r in range(rounds):
            if r % CAL_EVERY_ROUNDS == 0:
                cal.append(calibration_sample(SERVICE_CAL_WIDTH))
            queue = mix.round_ops(seed, r, pdl_handle)
            t0 = time.perf_counter()
            threads = [threading.Thread(target=worker, args=(sess, queue)) for sess in sessions]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            round_times.append(time.perf_counter() - t0)
            if traced:
                status, text = sessions[0].call("GET", "/metrics")
                if status != 200:
                    die(f"/metrics answered {status}")
                scrapes.append(text)
        cal.append(calibration_sample(SERVICE_CAL_WIDTH))
    finally:
        for sess in sessions:
            sess.conn.close()
        rss = server.stop()
    setup.append(server_setup_batch())
    layer = service_layers(scrapes[-1].decode(), polls, register_ms) if scrapes else {}
    check_service(results, tally)
    if not latencies:
        die("no service job completed")
    k = speed_scale(cal)
    e2e = {
        "setup_s": (statistics.median(setup[0] + setup[1]), "s"),
        "verdict_s": (k * statistics.mean(round_times), "s"),
        "peak_rss_mb": (rss, "MB"),
        "jobs_per_s": (len(latencies) / (k * sum(round_times)), "1/s"),
        "latency_p50_ms": (k * 1000 * statistics.median(latencies), "ms"),
        "latency_p95_ms": (k * 1000 * quantile(latencies, 0.95), "ms"),
    }
    return e2e, layer


def prom(text, name, labels=None):
    """Sum of the samples of [name] whose labels include [labels]."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(name + "{") or line.startswith(name + " "):
            if labels and not all(f'{k}="{v}"' in line for k, v in labels.items()):
                continue
            total += float(line.rsplit(" ", 1)[1])
    return total


def service_layers(text, polls, register_ms):
    out = {}
    wait_n = prom(text, "nfc_job_queue_wait_seconds_count")
    out["serve.queue_wait_s"] = (prom(text, "nfc_job_queue_wait_seconds_sum") / max(wait_n, 1), "s")
    for kind in ("lint", "boundness", "cover", "simulate", "fuzz"):
        n = prom(text, "nfc_job_run_seconds_count", {"kind": kind})
        out[f"serve.run_s.{kind}"] = (prom(text, "nfc_job_run_seconds_sum", {"kind": kind}) / max(n, 1), "s")
    hit = prom(text, "nfc_cache_requests_total", {"result": "hit"})
    miss = prom(text, "nfc_cache_requests_total", {"result": "miss"})
    out["serve.cache_hit_ratio"] = (hit / max(hit + miss, 1), "ratio")
    out["serve.register_ms"] = (statistics.median(register_ms), "ms")
    out["serve.polls_per_job"] = (statistics.mean(polls), "count")
    out["serve.protocols_resident"] = (prom(text, "nfc_protocols_resident"), "count")
    return out


FUZZ_ELAPSED = re.compile(rb'"elapsed_s":[-0-9.eE+]+,')


def check_service(results, tally):
    """Every served result equals a cold in-process computation of the same
    request.  Fuzz results carry their own wall-clock (elapsed_s), which is
    removed on both sides before the byte comparison."""
    distinct = {}
    for op, _ in results:
        distinct.setdefault(json.dumps([op["endpoint"], op["body"]], sort_keys=True), op)
    keys = list(distinct)
    path = os.path.join(WORKDIR, "requests.jsonl")
    with open(path, "w") as f:
        for k in keys:
            op = distinct[k]
            f.write(json.dumps({"endpoint": op["endpoint"], "body": op["body"], "source": op["source"]}) + "\n")
    _, _, code, text = spawn([PROBE, "cold", path], os.path.join(WORKDIR, "cold.json"))
    if code != 0:
        tally.record(False, f"probe cold: exit code {code}")
        return
    cold = dict(zip(keys, (r.encode() for r in json.loads(text)["results"])))
    for op, doc in results:
        want = cold[json.dumps([op["endpoint"], op["body"]], sort_keys=True)]
        got = doc[:-1] if doc.endswith(b"\n") else doc
        if op["endpoint"] == "fuzz":
            want, got = FUZZ_ELAPSED.sub(b"", want), FUZZ_ELAPSED.sub(b"", got)
        tally.record(got == want, f"{op['endpoint']} {op['body']}: served result differs from a cold call",
                     known=op["known_fault"])


# ------------------------------------------------------------ main

WORKLOADS = ["lint-registry", "boundness-probe", "stab-recovery", "service-mix"]
WORKDIR = None


def service_rounds(seconds):
    return max(2, round(ROUNDS_PER_SECOND * seconds))


def traced_run(name, seed, seconds, tally):
    """Per-layer metrics.  The named workload runs untraced and traced
    passes of the same calls.  A CLI workload runs one CLI pass for the
    output checks, then TRACE_PAIRS pairs of untraced and traced probe
    passes, in alternating order within the pairs; trace.overhead_share is
    the median over the pairs of traced / untraced - 1, so a change of the
    host's speed between pairs cancels.  Service-mix runs an
    untraced loop, then a loop that scrapes /metrics after every round, of
    half the rounds each, and its pass is a round.  Every other workload
    then runs one traced pass, so each traced run reports every layer."""
    layer = {"host.calibration_s": (statistics.mean(calibration_sample() for _ in range(3)), "s")}
    samples = {}

    def traced(other):
        pass_s, m = traced_pass(other)
        for k, v in m.items():
            samples.setdefault(k, []).append(v)
        return pass_s

    def overhead(u, t):
        layer["trace.untraced_pass_s"] = (statistics.median(u), "s")
        layer["trace.pass_s"] = (statistics.median(t), "s")
        layer["trace.overhead_share"] = (statistics.median(b / a - 1 for a, b in zip(u, t)), "ratio")

    if name in CLI:
        _, _, _, first, _, _ = run_passes(CLI[name]["ops"](), seed, 0, tally, min_passes=1)
        run_checks(name, first, tally)
        untraced, with_spans = [], []
        for i in range(TRACE_PAIRS):
            if i % 2 == 0:
                untraced.append(traced_pass(name, traced=False)[0])
                with_spans.append(traced(name))
            else:
                with_spans.append(traced(name))
                untraced.append(traced_pass(name, traced=False)[0])
        overhead(untraced, with_spans)
    for other in CLI:
        if other != name:
            traced(other)
    for k, vs in samples.items():
        layer[k] = (statistics.median(vs), unit_of(k))
    if name == "service-mix":
        half = max(1, service_rounds(seconds) // 2)
        plain, _ = run_service(seed, half, tally, traced=False)
        scraped, serve = run_service(seed, half, tally, traced=True)
        overhead([plain["verdict_s"][0]], [scraped["verdict_s"][0]])
    else:
        _, serve = run_service(seed, TRACE_ROUNDS, tally, traced=True)
    layer.update(serve)
    return layer


def unit_of(name):
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("share"):
        return "ratio"
    return "count"


def main():
    global WORKDIR
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    build()
    WORKDIR = os.path.join(WORK, f"{a.workload}-{os.getpid()}")
    os.makedirs(WORKDIR, exist_ok=True)
    tally = Tally()
    try:
        if a.trace:
            metrics = traced_run(a.workload, a.seed, a.seconds, tally)
        elif a.workload == "service-mix":
            metrics, _ = run_service(a.seed, service_rounds(a.seconds), tally, traced=False)
        else:
            metrics = run_cli(a.workload, a.seed, a.seconds, tally)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    print(json.dumps({
        "correct": tally.failed == tally.known,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }))


if __name__ == "__main__":
    main()
