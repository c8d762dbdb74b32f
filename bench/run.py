"""Closed-loop benchmark of the mnseries engine.

Run from the repository root:

    python3 bench/run.py --workload ct3 --seed 1 --seconds 25 --trace 0

One process, one thread: the next instance starts only after the previous
one has been checked.  A run makes one warm-up pass, then repeats the
workload's pass until ``--seconds`` have elapsed since the warm-up began.
Between instances, about every ``PROBE_EVERY`` seconds, it starts a fresh
interpreter that imports ``mnseries`` and ``mnseries.cli`` and builds the
workload's inputs (the set-up a user of ``mn`` pays).

``--trace 0`` reports the end-to-end metrics with no tracing installed.
``--trace 1`` spends the first half of the time untraced and the second half
traced (see ``tracing.py``), reports the per-layer metrics of the traced passes,
and writes every span to ``bench/out/spans-<workload>.tsv``.

Times are in seconds at reference speed.  On a shared host the speed at which
this process runs Python drifts by tens of percent within seconds and by as
much again from one minute to the next, so neither the fastest nor the median
wall time of a run repeats from run to run.  The run therefore also times a
fixed pure-Python kernel (``reference_kernel``: sparse products of
dictionaries of ``Fraction``, the engine's own kind of work) every
``GAUGE_EVERY`` seconds of CPU time, wherever the run is (``SpeedGauge``),
leaves the kernel's time out of the instances' times, and scales every time
it reports by ``REFERENCE_S / (mean kernel time)``: a time is what it would
have been had the kernel taken ``REFERENCE_S``, a round figure within the
17 to 34 ms the kernel took on a shared 2-core host.  A change to the engine
moves the engine's time and not the kernel's, so it shows in full.

``solve_s`` is the mean time of a pass; ``instance_p50_ms`` and
``instance_p90_ms`` are the median and 90th percentile over the instances of
each instance's mean time, as the Harrell-Davis estimator gives them.
``setup_s`` is the median of the set-ups, scaled the same way.

``engine_rss_mb`` is the process's peak resident set at the end of the run
minus the peak before ``mnseries`` was imported: the engine's modules, its
inputs and, at the largest, the series of the biggest instance.  The bare
interpreter, about 19 MiB of the process, is left out, as it would hide
the engine.  The runner allocates its own bookkeeping before the first pass,
so repeating passes does not add to it.  It moves in coarse steps, as the
allocator grows its heap in blocks.

Per-layer counts are exact per pass, and a traced run whose passes disagree
on any count is reported as not correct; per-layer times are the self times
of the fastest traced pass (``trace.solve_s``, unscaled wall time), and
``trace.overhead_frac`` compares the mean traced and untraced pass.
``failed_frac`` (failed over attempted instances) is printed with the
metrics; a run with a failure is reported as not correct.
Progress goes to stderr; stdout ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PROBE_EVERY = 2.0       # seconds between set-up probes
GAUGE_EVERY = 0.2       # seconds of CPU time between two timings of the kernel
REFERENCE_S = 0.025     # the kernel time that reported times are scaled to


def _load_engine():
    """Import mnseries from this checkout's src/, never from elsewhere."""
    if not (SRC / "mnseries" / "__init__.py").is_file():
        sys.exit(f"error: no engine source at {SRC / 'mnseries'}")
    sys.path.insert(0, str(SRC))
    import mnseries
    import mnseries.cli  # noqa: F401

    if Path(mnseries.__file__).resolve().parent != SRC / "mnseries":
        sys.exit(f"error: imported mnseries from {mnseries.__file__}, not {SRC}")
    return mnseries


def setup_probe(workload, seed):
    """Seconds a fresh interpreter takes to import the engine and build the inputs.

    The child times itself from before ``import mnseries`` to the built
    instances, so the interpreter's own start-up, which is the noisiest part
    and not the engine's, is left out.
    """
    code = "\n".join([
        "import sys, time",
        "start = time.perf_counter()",
        f"sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]",
        "import mnseries, mnseries.cli, workloads",
        f"workloads.build({workload!r}, {seed})",
        "print(time.perf_counter() - start)",
    ])
    proc = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True)
    return float(proc.stdout)


def reference_kernel():
    """A fixed piece of the engine's kind of work: a sparse bivariate product."""
    factor = {(i, j): Fraction(i + 1, j + 2) for i in range(9) for j in range(9)}
    product = {}
    for (i, j), a in factor.items():
        for (k, l), b in factor.items():
            key = (i + k, j + l)
            product[key] = product.get(key, 0) + a * b
    return product


class SpeedGauge:
    """Times ``reference_kernel`` at even steps of the process's CPU time.

    Inside ``with gauge:`` a profiling timer interrupts the process every
    ``GAUGE_EVERY`` seconds of its CPU time, wherever it is, inside an
    instance as well as between two, and times the kernel there, so the
    kernel samples every stretch of the run in proportion to the work done in
    it, even within one instance that lasts seconds.  ``clock()`` is
    ``time.perf_counter()`` less the kernel's time, so an instance timed with
    it does not include the kernel.
    """

    def __init__(self):
        reference_kernel()      # warm-up, not counted
        self.samples = []
        self.paused = 0.0
        self.busy = False

    def clock(self):
        return time.perf_counter() - self.paused

    def sample(self, *signal_args):
        if self.busy:           # a tick that falls inside the kernel itself
            return
        self.busy = True
        began = time.perf_counter()
        reference_kernel()
        took = time.perf_counter() - began
        self.samples.append(took)
        self.paused += took
        self.busy = False

    def __enter__(self):
        self.previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, GAUGE_EVERY, GAUGE_EVERY)
        return self

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self.previous)
        self.sample()           # at least one sample, however short the run

    @contextlib.contextmanager
    def held(self):
        """Defer the timer's ticks, so that no kernel runs beside a child process."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGPROF})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGPROF})

    def scale(self):
        """The factor that turns a time of this run into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.samples)


def line_counts():
    counts = {f"loc.{path.stem}": len(path.read_text(encoding="utf-8").splitlines())
              for path in sorted((SRC / "mnseries").glob("*.py"))}
    counts["loc.total"] = sum(counts.values())
    return counts


class Runner:
    """Runs passes over one workload's instances, checking every answer."""

    def __init__(self, instances, errors, tracer=None, clock=time.perf_counter):
        self.instances = instances
        self.errors = errors          # exceptions that count as a failed instance
        self.tracer = tracer
        self.clock = clock            # what instances are timed with
        self.attempted = 0
        self.failures = []

    def run_pass(self, spent, between=None):
        """Run each instance once and return the pass time.

        Instance i's time is added to ``spent[i]``, so the runner holds no
        more per pass than one float, and the memory it takes is allocated
        before the first pass.  ``between`` is called after each instance,
        outside its time.
        """
        gc.collect()
        total = 0.0
        for index, instance in enumerate(self.instances):
            if self.tracer is not None:
                self.tracer.instance = self.attempted
            self.attempted += 1
            began = self.clock()
            try:
                instance.check()
            except self.errors as exc:
                self.failures.append(f"{instance.label}: {type(exc).__name__}: {exc}")
            took = self.clock() - began
            spent[index] += took
            total += took
            if between is not None:
                between()
        return total

    def run_for(self, seconds, after_pass=None, between=None):
        """Passes until ``seconds`` have elapsed (at least one).

        Returns each instance's time summed over the passes, and each
        pass's time.
        """
        spent = [0.0] * len(self.instances)
        totals = []
        deadline = time.perf_counter() + seconds
        while not totals or time.perf_counter() < deadline:
            totals.append(self.run_pass(spent, between))
            if after_pass is not None:
                after_pass()
        return spent, totals


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _betainc(a, b, x):
    """The regularized incomplete beta function I_x(a, b), by its continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _betainc(b, a, 1.0 - x)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(400):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2 == 0:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        else:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(values, share):
    """The Harrell-Davis estimate of a quantile: a beta-weighted mean of all values.

    Where the instances' times have gaps, the nearest-rank quantile jumps
    from one instance to the next as noise reorders them; this estimate
    moves smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = share * (n + 1), (1 - share) * (n + 1)
    cdf = [_betainc(a, b, i / n) for i in range(n + 1)]
    return math.fsum((cdf[i + 1] - cdf[i]) * ordered[i] for i in range(n))


def peak_rss_mib():
    """The process's peak resident set (Linux ``VmHWM``), in MiB.

    Not ``getrusage``: its ``ru_maxrss`` carries over the peak of the process
    that started this one, which can be far larger than this one's own.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024


def end_to_end(runner, seconds, workload, seed, rss_at_start):
    setups = []
    due = 0.0
    gauge = SpeedGauge()
    runner.clock = gauge.clock

    def probe_when_due():
        nonlocal due
        if time.perf_counter() >= due:
            with gauge.held():
                setups.append(setup_probe(workload, seed))
            due = time.perf_counter() + PROBE_EVERY

    began = time.perf_counter()
    with gauge:
        runner.run_pass([0.0] * len(runner.instances))      # warm-up, within the run's time
        spent, totals = runner.run_for(seconds - (time.perf_counter() - began),
                                       between=probe_when_due)
    scale = gauge.scale()
    mean = [scale * took / len(totals) for took in spent]
    print(f"passes={len(totals)} instances={len(mean)} setups={len(setups)} "
          f"kernels={len(gauge.samples)} scale={scale:.4f} "
          f"failed_frac={len(runner.failures) / runner.attempted} fraction", file=sys.stderr)
    return {
        "solve_s": _metric(math.fsum(mean), "s"),
        "instance_p50_ms": _metric(1e3 * quantile(mean, 0.5), "ms"),
        "instance_p90_ms": _metric(1e3 * quantile(mean, 0.9), "ms"),
        "setup_s": _metric(scale * statistics.median(setups), "s"),
        "engine_rss_mb": _metric(peak_rss_mib() - rss_at_start, "MiB"),
    }


def per_layer(runner, tracer, seconds, spans_path):
    from tracing import PHI_CALLS, SPAN_NAMES, self_times

    _, untraced = runner.run_for(seconds / 2)
    pass_spans, pass_counts = [], []

    def keep():
        spans, counts = tracer.take()
        pass_spans.append(spans)
        pass_counts.append(counts)

    tracer.install()
    try:
        _, totals = runner.run_for(seconds / 2, keep)
    finally:
        tracer.uninstall()

    exact = []
    for spans, counts in zip(pass_spans, pass_counts):
        calls, _ = self_times(spans)
        exact.append(dict(counts) | {f"{name}.calls": calls[name] for name in SPAN_NAMES})
    steady = all(counts == exact[0] for counts in exact)
    if not steady:
        print("error: traced passes disagree on counts", file=sys.stderr)

    # self times are those of the fastest traced pass, so that they add up
    fastest = min(range(len(totals)), key=totals.__getitem__)
    _, self_seconds = self_times(pass_spans[fastest])
    counts = exact[0]
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = _metric(counts[f"{name}.calls"], "count")
        metrics[f"{name}.self_s"] = _metric(self_seconds[name], "s")
    for key in ("series.invert.terms_in", "series.invert.terms_out",
                "series.multiply.pairs", "series.multiply.terms_out",
                "series.init.terms", "series.compose.terms_out", PHI_CALLS):
        metrics[key] = _metric(counts.get(key, 0), "count")
    pairs = counts.get("series.multiply.pairs", 0)
    metrics["series.multiply.yield"] = _metric(
        counts.get("series.multiply.terms_out", 0) / pairs if pairs else 0.0, "ratio")
    metrics["trace.solve_s"] = _metric(totals[fastest], "s")
    metrics["trace.overhead_frac"] = _metric(
        statistics.fmean(totals) / statistics.fmean(untraced) - 1, "fraction")
    metrics.update({key: _metric(value, "lines") for key, value in line_counts().items()})

    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        handle.write("pass\tname\tstart\tend\tparent\tinstance\n")
        for number, spans in enumerate(pass_spans):
            for name, start, end, parent, instance in spans:
                handle.write(f"{number}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{instance}\n")
    return metrics, steady


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    rss_at_start = peak_rss_mib()
    mnseries = _load_engine()
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    instances = workloads.build(args.workload, args.seed)
    errors = (workloads.Mismatch, mnseries.MNError)
    if args.trace:
        tracer = Tracer()
        runner = Runner(instances, errors, tracer)
        spans_path = BENCH / "out" / f"spans-{args.workload}.tsv"
        metrics, steady = per_layer(runner, tracer, args.seconds, spans_path)
    else:
        runner = Runner(instances, errors)
        metrics = end_to_end(runner, args.seconds, args.workload, args.seed, rss_at_start)
        steady = True

    for failure in runner.failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": steady and not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
