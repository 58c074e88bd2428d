#!/usr/bin/env python3
"""The reproduction's benchmark: four workloads behind one command.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                           [--out FILE] [--build-dir DIR]
  python3 perfbench/run.py --smoke [--build-dir DIR]
  python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

The first call builds the program from the repository's sources (CMake,
Release) into --build-dir: by default $CARGO_TARGET_DIR, else
.bench_build, relative to the repository root. Later calls only check
that the build is current. A run works in a fresh directory under the
build directory and removes it when it ends.

Workloads (BENCHMARK.json says why each was chosen):
  repro         seven figure binaries from an empty store (cold pass),
                then again on the store they left (warm pass)
  advise-mixed  the advisor daemon under warm queries and cold fills
                (in-process, ebm_bench)
  simloop       Gpu::run on the standard machine (in-process, ebm_bench)
  fill-shared   two fig01 processes fill one store through shard claims,
                then ebm_bench reads it

A run prints `metric workload value unit` per metric and, as its last
line, one JSON object {"correct", "attempted", "failed", "metrics"}.
Each timing is the trimmed mean of its repetitions in the run, each in
reference seconds: its seconds scaled by the host's speed, read from a
fixed loop in ebm_bench.cpp just before and after it (kNominalS there
says why). The advisor's warm round trips are the exception: their
median, scaled by bare socket round trips taken beside them
(kNominalEchoS).
--trace 0 reports the end-to-end metrics. --trace 1 runs the workload
with spans on, reports the per-layer metrics and writes a Chrome trace
to <build>/traces/. The exit code is 1 when an output check fails and 2
when the program cannot be built or run.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the source tree free of caches
from compare import compare  # noqa: E402
from spans import Spans, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"

# The job count of every child process, so that hosts with more cores
# still compare.
JOBS = 4
# Kill whatever still runs after this long; a run must end within 180 s.
RUN_BUDGET_S = 170.0
# Set-ups per unit of work in `repro` and `fill-shared`.
SETUPS = 5
# Cold passes per `repro` run.
COLD_PASSES = 2
# Seconds of warm reads after each fill in `fill-shared`.
READ_SECONDS = 0.25

# The figure binaries that finish a cold pass within seconds: together
# they sweep (fig01, fig07), profile every app (fig02, fig03, fig05,
# tab04), run PBS(Offline) (fig07) and an online PBS timeline (fig11).
# The other eight need the ten representative sweeps (12 s cold) or
# spend 5-15 s per pass in serial online-policy runs; with them one pass
# takes over a minute, too long to repeat within a run, and a single
# pass varied by 13% between runs on a shared host.
REPRO = [
    "fig01_motivation", "fig02_tlp_effects", "fig03_eb_hierarchy",
    "fig05_alone_ratios", "fig07_patterns_fi_hs", "fig11_tlp_timeline",
    "tab04_app_table",
]
SMOKE_REPRO = REPRO[:3]
FILL = "fig01_motivation"
SMOKE_SECONDS = {"advise-mixed": 2.0, "simloop": 1.0}

# Lines that report progress rather than the figure.
STATUS_PREFIXES = ("sweep status", "cache persist", "warn:", "info:")
SWEEP_RE = re.compile(
    r"sweep status: (\d+) combos \((\d+) from cache, (\d+) simulated, "
    r"(?:(\d+) from peers, )?(\d+) retried, (\d+) skipped\)")
FSCK_RE = re.compile(r"fsck: clean \((\d+) frames, (\d+) unique keys")
SWEEP_FIELDS = ("rows_requested", "rows_from_cache", "rows_simulated",
                "rows_from_peers", "rows_retried", "rows_skipped")

_live = set()  # started processes not yet reaped
_live_lock = threading.Lock()
_expired = threading.Event()  # the run's time budget ran out


class BenchError(Exception):
    """The program could not be built or run; no result is printed."""


def kill_children():
    with _live_lock:
        for p in _live:
            p.kill()


def expire():
    """The watchdog: end the run's children; the main thread reaps them."""
    _expired.set()
    kill_children()


def stop_children():
    kill_children()
    for p in list(_live):
        reap(p)


def spawn(argv, cwd, env, stem):
    with _live_lock:
        if _expired.is_set():
            raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s")
        with open(f"{stem}.out", "w") as out, \
                open(f"{stem}.err", "w") as err:
            p = subprocess.Popen([str(a) for a in argv], cwd=cwd, env=env,
                                 stdout=out, stderr=err)
        _live.add(p)
    return p


def reap(p):
    """Wait for `p`; return its peak resident set in MiB."""
    _, status, usage = os.wait4(p.pid, 0)
    with _live_lock:
        p.returncode = os.waitstatus_to_exitcode(status)
        _live.discard(p)
    return usage.ru_maxrss / 1024.0


def child_env(store, **extra):
    """The caller's environment without EBM_* knobs, plus the pinned ones."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("EBM_")}
    env.update({"EBM_JOBS": str(JOBS), "EBM_CACHE_DIR": str(store),
                **extra})
    return env


def trimmed_mean(values):
    """The mean without the lowest and highest tenth. Times scaled to
    reference seconds one by one repeated better across runs as this
    mean than as their median."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def figure_lines(text):
    return [ln for ln in text.splitlines()
            if not ln.startswith(STATUS_PREFIXES)]


def sweep_counts(text):
    counts = dict.fromkeys(SWEEP_FIELDS, 0)
    for m in SWEEP_RE.finditer(text):
        for field, value in zip(SWEEP_FIELDS, m.groups()):
            counts[field] += int(value or 0)
    return counts


class Run:
    """One benchmark run: its settings, sandbox, spans and tallies."""

    def __init__(self, args, build_dir, workload, seconds):
        self.args = args
        self.build_dir = build_dir
        self.workload = workload
        self.seconds = seconds
        self.smoke = args.smoke
        self.spans = Spans(args.trace == 1)
        self.attempted = 0
        self.failed = 0
        self.end_to_end = {}
        self.per_layer = {}
        self.peak_rss_mib = 0.0
        self.readings = []  # host readings, seconds of the reference loop
        self.nominal = 0.0  # the reading that reference seconds assume
        self.setup_times = []
        self.expected_lines = {}
        tmp = build_dir / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.sandbox = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=tmp))
        self._children = 0

    def binary(self, name):
        if name == "store_fsck":
            return self.build_dir / "ebm" / "examples" / name
        return self.build_dir / "ebm" / "bench" / name

    def expected(self, name):
        """The lines `name` must print, as the last set-up read them."""
        return self.expected_lines[name]

    def fresh_dir(self, name):
        return Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.sandbox))

    def start(self, argv, cwd, env, name):
        self._children += 1
        stem = self.sandbox / f"{self._children:03d}-{name}"
        return spawn(argv, cwd, env, stem), stem

    def finish(self, p, stem, name, key, start_ns):
        """Reap `p`; return its exit code and stdout."""
        self.peak_rss_mib = max(self.peak_rss_mib, reap(p))
        self.spans.record(name, key, start_ns, time.monotonic_ns(), pid=p.pid)
        out = Path(f"{stem}.out").read_text()
        if p.returncode != 0:
            err = Path(f"{stem}.err").read_text()[-2000:]
            print(f"{name} ({key}) exited {p.returncode}:\n{err}",
                  file=sys.stderr)
        return p.returncode, out

    def figure(self, name, store, key):
        """Run one figure binary on `store`; return (seconds, ok, stdout)."""
        start_ns = time.monotonic_ns()
        t0 = time.perf_counter()
        p, stem = self.start([self.binary(name)], store, child_env(store),
                             name)
        rc, out = self.finish(p, stem, name, key, start_ns)
        seconds = time.perf_counter() - t0
        ok = rc == 0 and figure_lines(out) == self.expected(name)
        if rc == 0 and not ok:
            print(f"{name} ({key}): output differs from expected/{name}.txt",
                  file=sys.stderr)
        return seconds, ok, out

    def check(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def fsck(self, store):
        """(frames, unique keys) of a clean store, or None."""
        start_ns = time.monotonic_ns()
        p, stem = self.start([self.binary("store_fsck"),
                              store / "ebm_results.cache"],
                             store, child_env(store), "store_fsck")
        rc, out = self.finish(p, stem, "store_fsck", "", start_ns)
        m = FSCK_RE.search(out)
        return (int(m.group(1)), int(m.group(2))) if rc == 0 and m else None

    def host_reading(self, threads):
        """One host reading (seconds of the reference loop) with
        `threads` threads at once, taken by `ebm_bench --reference`."""
        start_ns = time.monotonic_ns()
        p, stem = self.start([self.build_dir / "ebm_bench", "--reference",
                              "--threads", threads],
                             self.sandbox, child_env(self.sandbox),
                             "reference")
        reap(p)
        self.spans.record("host_reading", str(threads), start_ns,
                          time.monotonic_ns(), pid=p.pid)
        if p.returncode != 0:
            raise BenchError(f"ebm_bench --reference exited {p.returncode}")
        reading, self.nominal = map(float,
                                    Path(f"{stem}.out").read_text().split())
        self.readings.append((threads, reading))
        return reading

    def scaled(self, call, threads):
        """Call `call`; return its result, its time in reference seconds
        and the factor from measured to reference seconds, from the host
        readings just before and after the call. The readings run
        `threads` threads at once: 1 for serial work, JOBS for work
        spread over the program's job threads, which a serial reading
        tracked half as well."""
        last = self.readings[-1] if self.readings else None
        before = (last[1] if last and last[0] == threads
                  else self.host_reading(threads))
        t0 = time.perf_counter()
        result = call()
        seconds = time.perf_counter() - t0
        scale = self.nominal / (0.5 * (before + self.host_reading(threads)))
        return result, seconds * scale, scale

    def set_up(self, prepare):
        """Call `prepare`, the set-up of one unit of work, SETUPS times
        and keep their times for setup_s.

        A unit sets up before it starts, so the set-ups spread over the
        run: their time drifts over seconds, and a run's median varied
        by 30-50% when all of them ran at its start, by 15% when spread.
        """
        for _ in range(SETUPS):
            with self.spans.span("setup", str(len(self.setup_times))):
                t0 = time.perf_counter()
                prepare()
                self.setup_times.append(time.perf_counter() - t0)

    def median_reading(self):
        return statistics.median(r for _, r in self.readings)

    def setup_s(self):
        """The median set-up, in reference seconds at the run's median
        host reading."""
        return (statistics.median(self.setup_times) * self.nominal /
                self.median_reading())

    def repeat(self, unit):
        """Call `unit` until another call would overrun the run's seconds.

        Workloads report the trimmed mean of repetitions of identical
        work, each scaled by the host's speed around it: the host drifts
        by 10-40% over tens of seconds to minutes, and it has short fast
        spells, so a run's fastest repetition varied far more between
        runs than its median, and its median more than its mean.
        """
        t0 = time.perf_counter()
        while True:
            u0 = time.perf_counter()
            unit()
            last = time.perf_counter() - u0
            if time.perf_counter() - t0 + last > self.seconds:
                return


def prepare_inputs(run, binaries):
    """What a child-process workload sets up: it checks the binaries it
    will start and reads what they must print. The program itself does
    no set-up work in these workloads. Set-up writes nothing: beside the
    fills' fsyncs, a directory made and removed took 0.3-1.3 ms."""
    def prepare():
        for b in binaries:
            if not os.access(run.binary(b), os.X_OK):
                raise BenchError(f"{run.binary(b)} is not built")
            path = EXPECTED / f"{b}.txt"
            if path.is_file():
                run.expected_lines[b] = path.read_text().splitlines()
    return prepare


def repro(run):
    binaries = SMOKE_REPRO if run.smoke else REPRO
    prepare = prepare_inputs(run, binaries)
    passes = {"cold": [], "warm": []}
    per_binary = {(b, p): [] for b in binaries for p in passes}

    def one_pass(store, phase):
        """Run every binary once; return the seconds of each and the
        sweep rows. A cold pass takes seconds, so each binary in it is
        scaled to reference seconds by the readings around it."""
        seconds, rows = {}, dict.fromkeys(SWEEP_FIELDS, 0)
        for b in binaries:
            if phase == "cold":
                (s, ok, out), _, scale = run.scaled(
                    lambda: run.figure(b, store, phase), JOBS)
                seconds[b] = s * scale
            else:
                seconds[b], ok, out = run.figure(b, store, phase)
            sweep = sweep_counts(out)
            for field in SWEEP_FIELDS:
                rows[field] += sweep[field]
            # A warm pass finds every row in the store.
            run.check(ok and (phase == "cold" or
                              sweep["rows_simulated"] == 0))
        return seconds, rows

    def timed_pass(store, phase):
        """One pass; return its sweep rows. A warm pass, about 0.5 s, is
        scaled to reference seconds as a whole."""
        run.set_up(prepare)
        with run.spans.span(f"{phase}_pass"):
            if phase == "cold":
                seconds, rows = one_pass(store, phase)
            else:
                (seconds, rows), _, scale = run.scaled(
                    lambda: one_pass(store, phase), 1)
                seconds = {b: s * scale for b, s in seconds.items()}
        passes[phase].append(sum(seconds.values()))
        for b, s in seconds.items():
            per_binary[b, phase].append(s)
        return rows

    # Each cold pass fills a fresh store in an equal share of the run;
    # warm passes read that store for the rest of the share.
    share = run.seconds / COLD_PASSES
    for _ in range(COLD_PASSES):
        t0 = time.perf_counter()
        store = run.fresh_dir("store")
        rows = [timed_pass(store, "cold")]
        while True:
            w0 = time.perf_counter()
            rows.append(timed_pass(store, "warm"))
            now = time.perf_counter()
            if now - t0 + (now - w0) > share:
                break
        # The counts of the cold pass and the first warm pass.
        store_counts(run, store,
                     {k: rows[0][k] + rows[1][k] for k in SWEEP_FIELDS})

    run.end_to_end["cold_s"] = trimmed_mean(passes["cold"])
    run.end_to_end["warm_s"] = trimmed_mean(passes["warm"])
    run.end_to_end["peak_rss_mib"] = run.peak_rss_mib
    run.end_to_end["setup_s"] = run.setup_s()
    for (b, phase), times in per_binary.items():
        run.per_layer[f"fig.{b}.{phase}_s"] = trimmed_mean(times)


def store_counts(run, store, rows):
    """Per-layer counts of one unit: sweep rows and the store it left."""
    run.per_layer.update({f"harness.sweep.{k}": v for k, v in rows.items()})
    run.per_layer["harness.store.bytes_written"] = (
        store / "ebm_results.cache").stat().st_size
    clean = run.fsck(store)
    run.check(clean is not None)
    if clean:
        run.per_layer["harness.store.entries_appended"] = clean[0]
        run.per_layer["harness.sweep.rows_duplicated"] = clean[0] - clean[1]


def fill_shared(run):
    prepare = prepare_inputs(run, [FILL, "store_fsck"])
    # The seed staggers the second process's start by up to 20 ms, so
    # the peers meet each other's claims at different rows each time.
    rng = random.Random(run.args.seed)
    fills, warms = [], []

    def fill(store):
        env = child_env(store, EBM_SWEEP_SHARD="1", EBM_JOBS="2")
        procs = []
        for i in range(2):
            if i:
                time.sleep(rng.uniform(0.0, 0.02))
            procs.append((time.monotonic_ns(),
                          *run.start([run.binary(FILL)], store, env, FILL)))
        rows = dict.fromkeys(SWEEP_FIELDS, 0)
        for i, (start_ns, p, stem) in enumerate(procs):
            rc, out = run.finish(p, stem, FILL, f"peer{i}", start_ns)
            run.check(rc == 0 and figure_lines(out) == run.expected(FILL))
            for field, value in sweep_counts(out).items():
                rows[field] += value
        return rows

    def unit():
        run.set_up(prepare)
        store = run.fresh_dir("store")
        with run.spans.span("cooperative_fill"):
            # Two processes of two job threads each.
            rows, fill_s, _ = run.scaled(lambda: fill(store), JOBS)
        fills.append(fill_s)
        store_counts(run, store, rows)
        # The warm read, in-process: a fig01 process reading the store
        # takes about 3 ms, most of it process start.
        result = ebm_bench(run, "read-store",
                           "--store", store / "ebm_results.cache",
                           "--seconds", READ_SECONDS)
        warms.append(result["end_to_end"]["warm_s"])

    run.repeat(unit)
    run.end_to_end["cold_s"] = trimmed_mean(fills)
    run.end_to_end["warm_s"] = trimmed_mean(warms)
    run.end_to_end["peak_rss_mib"] = run.peak_rss_mib
    run.end_to_end["setup_s"] = run.setup_s()


def ebm_bench(run, workload, *args):
    """Run `workload` in ebm_bench with `args` added; return its result
    object, whose checks count toward the run's."""
    argv = [run.build_dir / "ebm_bench", "--workload", workload,
            "--seed", run.args.seed, "--sandbox", run.sandbox,
            "--expected", EXPECTED, *args]
    trace = None
    if run.spans.enabled:
        fd, trace = tempfile.mkstemp(suffix=".json", dir=run.sandbox)
        os.close(fd)
        argv += ["--trace", trace]
    start_ns = time.monotonic_ns()
    p, stem = run.start(argv, run.sandbox, child_env(run.sandbox),
                        "ebm_bench")
    rc, out = run.finish(p, stem, "ebm_bench", workload, start_ns)
    if rc != 0:
        raise BenchError(f"ebm_bench {workload} exited {rc}")
    result = json.loads(out.splitlines()[-1])
    run.attempted += result["attempted"]
    run.failed += result["failed"]
    if trace:
        # Under the span finish() just recorded for this process.
        run.spans.merge(trace, run.spans.events[-1]["args"]["id"])
    return result


def in_process(run):
    args = ["--seconds", run.seconds] + (["--smoke"] if run.smoke else [])
    result = ebm_bench(run, run.workload, *args)
    run.end_to_end.update(result["end_to_end"])
    run.per_layer.update(result["per_layer"])


WORKLOADS = {"repro": repro, "advise-mixed": in_process,
             "simloop": in_process, "fill-shared": fill_shared}


def execute(spec, args, build_dir, workload, seconds):
    """Run one workload; return the Run with every metric filled in."""
    run = Run(args, build_dir, workload, seconds)
    timer = threading.Timer(RUN_BUDGET_S, expire)
    timer.start()
    span_cost = run.spans.calibrate() if run.spans.enabled else 0.0
    t0 = time.perf_counter()
    try:
        with run.spans.span(workload):
            WORKLOADS[workload](run)
    finally:
        timer.cancel()
        stop_children()
        shutil.rmtree(run.sandbox, ignore_errors=True)
    if _expired.is_set():
        raise BenchError(f"run exceeded {RUN_BUDGET_S:.0f} s")
    _expired.clear()
    wall = time.perf_counter() - t0
    run.per_layer["host.nproc"] = len(os.sched_getaffinity(0))
    if run.readings:
        run.per_layer["host.ref_ms"] = run.median_reading() * 1e3
    if run.spans.enabled:
        own = len(run.spans.events) - run.per_layer.get("trace.spans", 0)
        run.per_layer["trace.spans"] = len(run.spans.events)
        run.per_layer["trace.overhead_frac"] = (
            run.per_layer.get("trace.overhead_frac", 0.0) +
            own * span_cost / wall)
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        path = traces / f"{workload}-seed{args.seed}.json"
        run.spans.write(path, {"workload": workload, "seed": args.seed,
                               "nproc": run.per_layer["host.nproc"]})
        for name, secs in sorted(self_times(run.spans.events).items(),
                                 key=lambda kv: -kv[1]):
            print(f"self_time {name} {secs:.6f} s")
        print(f"trace written to {path}")
    known = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = (set(run.end_to_end) | set(run.per_layer)) - known
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {unknown}")
    return run


def result_line(spec, run, trace):
    """The run's result object, every metric of the chosen kind."""
    source = run.per_layer if trace else run.end_to_end
    metrics = {m["name"]: {"value": source.get(m["name"], 0),
                           "unit": m["unit"]}
               for m in spec["per_layer" if trace else "end_to_end"]}
    return {"correct": run.failed == 0 and run.attempted > 0,
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def build(build_dir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no repository sources next to {HERE}")
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = [["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", str(JOBS)]]
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", HERE, "-B", build_dir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    log = build_dir / "build.log"
    with open(log, "w") as f:
        for step in steps:
            if subprocess.run([str(a) for a in step], stdout=f,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"build failed, see {log}:\n" +
                                 log.read_text()[-3000:])


def smoke(spec, args, build_dir):
    """Every workload at toy size: each metric reported, every check passed."""
    ok = True
    layer_seen = set()
    e2e = {m["name"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        t0 = time.perf_counter()
        run = execute(spec, args, build_dir, w["name"],
                      SMOKE_SECONDS.get(w["name"], 1.0))
        layer_seen |= set(run.per_layer)
        missing = e2e - set(run.end_to_end)
        passed = run.failed == 0 and run.attempted > 0 and not missing
        ok &= passed
        print(f"smoke {w['name']}: {'ok' if passed else 'FAILED'} "
              f"({run.attempted} checks, {run.failed} failed, "
              f"missing {sorted(missing)}, {time.perf_counter() - t0:.1f} s)")
    # The toy repro runs only SMOKE_REPRO's binaries.
    layer_seen |= {f"fig.{b}.{phase}_s" for b in REPRO
                   for phase in ("cold", "warm")}
    never = {m["name"] for m in spec["per_layer"]} - layer_seen
    if never:
        print(f"smoke: per-layer metrics no workload reports: {sorted(never)}")
    return 0 if ok and not never else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the result record to FILE")
    parser.add_argument("--build-dir")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        return compare(spec, *args.compare)
    args.seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if not args.smoke and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    build_dir = Path(args.build_dir or os.environ.get("CARGO_TARGET_DIR")
                     or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        build(build_dir)
        if args.smoke:
            args.trace = 1
            return smoke(spec, args, build_dir)
        run = execute(spec, args, build_dir, args.workload, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        stop_children()
    result = result_line(spec, run, args.trace == 1)
    for name, m in result["metrics"].items():
        print(f"{name} {args.workload} {m['value']} {m['unit']}")
    if args.out:
        with open(args.out, "a") as f:
            record = {"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, **result}
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
