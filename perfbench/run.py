"""Run one workload of the quivertex benchmark and print its metrics.

    python3 perfbench/run.py --workload wallcross --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout: it imports quivertex from
``src/`` next to this directory, and exits with code 2, printing no result,
when that is missing.

One process, one thread, one closed-loop client.  Set-up is a fresh import
of the package, building the seeded inputs and, for ``query_warm``, warming
the caches.  The workload's batch of ops then runs again and again until
``--seconds`` have passed.  Each op is timed on its own, and its result is
checked by an oracle outside the timed region.  A result that differs
between batches, or a total term count that differs from the one recorded
for this seed in ``baseline.json``, counts as a failure.  After the batches
the set-up runs ``RESETUPS`` more times, so that ``setup_s`` is a median;
``peak_rss_mb`` is read before those re-set-ups, which hold a second copy of
the package.

Every time is scaled to one machine speed.  The shared machines this runs
on change speed by up to 2x for seconds to minutes at a time, which no
choice of run length or statistic averages away.  So a speed probe, a fixed
stdlib loop of Fraction arithmetic and tuple-keyed dict updates like the
package's own inner loops, runs between ops at least every ``PROBE_EVERY``
seconds, after every batch and around every set-up, always outside the timed
regions.  Each raw time is multiplied by ``REF_SECONDS`` over the mean of
the two probes around it: a reported second is a second on a machine that
runs the probe in ``REF_SECONDS``.  The raw times and the probe times are
kept in the run's record.

With ``--trace 0`` the last line of stdout is a JSON object carrying the
end-to-end metrics: ``setup_s``, ``wall_s`` (the median batch time, the sum
of the batch's op times), ``op_p50_ms``/``op_p90_ms`` (quantiles over every
timed op of every batch) and ``peak_rss_mb``.  With ``--trace 1`` the batch
runs in pairs, once plain and once with every package function wrapped (see
tracing.py), and the metrics are the per-layer self times, call counts and
cache hit ratios of the traced batch (medians over the pairs), plus
``trace.overhead_s``, the traced minus the plain batch time.  Spans go to
``perfbench/out/``, next to a JSON record of each run with its environment.
"""

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BASELINE = os.path.join(HERE, "baseline.json")

REF_SECONDS = 0.005  # time of one probe loop at the speed every time is scaled to
REF_ITERATIONS = 1500  # iterations of the probe loop, about REF_SECONDS on a 2-vCPU Xeon VM
PROBE_EVERY = 0.2  # most seconds between two speed probes while a batch runs
RESETUPS = 8  # set-ups after the batches; setup_s is the median of these and the first
CACHES = {
    "symfunc.cache": ("symfunc.elementary", "symfunc.complete", "symfunc.schur"),
    "partitions.partitions_of": ("partitions.partitions_of",),
}


def fresh_import():
    """Import every layer module anew, with empty caches."""
    for name in [m for m in sys.modules if m == "quivertex" or m.startswith("quivertex.")]:
        del sys.modules[name]
    return types.SimpleNamespace(
        **{layer: importlib.import_module(f"quivertex.{layer}") for layer in tracing.LAYERS}
    )


def cache_objects(qx):
    """The lru_cache objects of the package, by qualified name."""
    out = {}
    for layer in tracing.LAYERS:
        module = getattr(qx, layer)
        for attr, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                out[f"{layer}.{attr}"] = obj
    return out


def reference_loop():
    """Seconds taken by a fixed loop of Fraction arithmetic and dict updates."""
    acc = {}
    third = Fraction(1, 3)
    start = time.perf_counter()
    for i in range(REF_ITERATIONS):
        key = (i % 7, i % 11, i % 3)
        acc[key] = acc.get(key, 0) + third * (i % 5)
    return time.perf_counter() - start


def speed_probe():
    """The machine's current speed, as the faster of two reference loops."""
    return min(reference_loop(), reference_loop())


def scale(before, after):
    """Factor that turns a raw time, taken between two probes, into scaled seconds."""
    return 2 * REF_SECONDS / (before + after)


def steal_ticks():
    """CPU time stolen from this machine by its hypervisor, in clock ticks."""
    try:
        with open("/proc/stat", encoding="utf-8") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def environment():
    sha = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                ref = fh.read().strip()
        sha = ref
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "steal_ticks": steal_ticks(),
    }


def setup(workload, seed, small):
    start = time.perf_counter()
    qx = fresh_import()
    ops = workload.build(qx, random.Random(seed), small)
    if workload.warm:
        workload.warm(ops)
    return time.perf_counter() - start, qx, ops


class Runner:
    """Runs batches of one workload and checks every result."""

    def __init__(self, workload, qx, ops):
        self.workload = workload
        self.ops = ops
        self.caches = cache_objects(qx)
        self.first = [None] * len(ops)  # (result, term count) of a verified result
        self.probes = []  # seconds of each speed probe, in order
        self.last_probe = None
        self.probe()
        self.timed = []  # per batch: (op index, raw seconds, index of the probe before the op)
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.batch_terms = None
        self.cache_delta = {group: [0, 0] for group in CACHES}

    def probe(self):
        self.probes.append(speed_probe())
        self.last_probe = time.perf_counter()

    def factor(self, k):
        """Scale of a time taken between probes k and k + 1."""
        return scale(self.probes[k], self.probes[k + 1])

    def batch(self, tracer=None):
        """Run every op once and check the results; returns the raw and the
        scaled batch seconds."""
        timed = []
        results = []
        for i, op in enumerate(self.ops):
            if self.workload.cold:
                for cache in self.caches.values():
                    cache.cache_clear()
            if tracer is not None:
                tracer.op_id = i
                before = self._cache_counts()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op
                result = exc
            timed.append((i, time.perf_counter() - t0, len(self.probes) - 1))
            results.append(result)
            if tracer is not None:
                for group, counts in self._cache_counts().items():
                    self.cache_delta[group][0] += counts[0] - before[group][0]
                    self.cache_delta[group][1] += counts[1] - before[group][1]
            if time.perf_counter() - self.last_probe >= PROBE_EVERY:
                self.probe()
        self.probe()
        self.timed.append(timed)
        self._check(results)
        return sum(t for _, t, _ in timed), sum(t * self.factor(k) for _, t, k in timed)

    def _cache_counts(self):
        out = {}
        for group, names in CACHES.items():
            infos = [self.caches[n].cache_info() for n in names]
            out[group] = (sum(i.hits for i in infos), sum(i.misses for i in infos))
        return out

    def _check(self, results):
        terms = 0
        for i, (op, result) in enumerate(zip(self.ops, results)):
            self.attempted += 1
            try:
                if isinstance(result, Exception):
                    raise result
                if self.first[i] is None:
                    self.first[i] = (result, op.check(result))
                elif result != self.first[i][0]:
                    raise workloads.Mismatch("result differs from the first batch")
                terms += self.first[i][1]
            except Exception as exc:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        self.batch_terms = terms  # the same in every batch: each result equals the first


def measure(runner, seconds, set_up):
    """Run batches for the given time, then the re-set-ups; set_up returns
    one set-up's raw seconds."""
    raw_walls, walls = [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        raw, scaled = runner.batch()
        raw_walls.append(raw)
        walls.append(scaled)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setups = []
    for _ in range(RESETUPS):
        raw = set_up()
        runner.probe()
        setups.append(raw * runner.factor(len(runner.probes) - 2))
    samples = [t * runner.factor(k) for timed in runner.timed for _, t, k in timed]
    deciles = statistics.quantiles(samples, n=10, method="inclusive")
    return {
        "wall_s": statistics.median(walls),
        "op_p50_ms": 1e3 * statistics.median(samples),
        "op_p90_ms": 1e3 * deciles[8],
        "peak_rss_mb": peak_rss_mb,
    }, setups, {
        "batches": len(walls),
        "ops_timed": len(samples),
        "probes": len(runner.probes),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_batch_s": raw_walls,
        "probe_s": runner.probes,
    }


def measure_traced(runner, qx, seconds, span_path, meta):
    tracer = tracing.Tracer({layer: getattr(qx, layer) for layer in tracing.LAYERS})
    rows, overheads = [], []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        _, plain = runner.batch()
        tracer.reset()
        for delta in runner.cache_delta.values():
            delta[:] = [0, 0]
        with tracer.installed():
            raw, traced = runner.batch(tracer)
        tracer.op_id = None
        overheads.append(traced - plain)
        row = layer_metrics(tracer, runner.cache_delta)
        rows.append({name: value * traced / raw if unit_of(name) == "s" else value for name, value in row.items()})
    os.makedirs(os.path.dirname(span_path), exist_ok=True)
    tracer.write_spans(span_path, meta)
    metrics = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    metrics["trace.overhead_s"] = statistics.median(overheads)
    return metrics, {"traced_batches": len(rows), "spans_kept": len(tracer.spans),
                     "spans_dropped": tracer.dropped}


def layer_metrics(tracer, cache_delta):
    c = tracer.calls
    out = {f"{layer}.self_s": tracer.self_s[layer][0] for layer in tracing.LAYERS}
    out.update({
        "latticeva.vaelem_new.calls": c("latticeva.VAElem.__init__"),
        "latticeva.add.calls": c("latticeva.VAElem.__add__"),
        "latticeva.create.calls": c("latticeva.create"),
        "latticeva.annihilate_mode.calls": c("latticeva.annihilate_mode"),
        "latticeva.field_mode.calls": c("latticeva.field_mode"),
        "symfunc.add.calls": c("symfunc.SymFunc.__add__"),
        "symfunc.mul.calls": c("symfunc.SymFunc.__mul__") + c("symfunc.SymFunc.__rmul__"),
        "symfunc.annihilate.calls": c("symfunc.annihilate"),
        "symfunc.schur.s": tracer.stats["symfunc.schur"].inclusive,
        "symfunc.monomial_expand.s": tracer.stats["symfunc.monomial_expand"].inclusive,
        "symfunc.jack.s": tracer.stats["symfunc.jack"].inclusive,
        "partitions.calls": tracer.layer_calls("partitions"),
        "grasscalc.hecke.calls": c("grasscalc.hecke"),
        "grasscalc.hecke_sym.calls": c("grasscalc.hecke_sym"),
        "grasscalc.hecke_sym.s": tracer.stats["grasscalc.hecke_sym"].inclusive,
        "grasscalc.wallcross.s": tracer.stats["grasscalc.gr_class_wallcross"].inclusive,
        "grasscalc.recursion.s": tracer.stats["grasscalc.integrals_by_recursion"].inclusive,
        "descendent.l_op.calls": c("descendent.l_op"),
        "descendent.r_op.calls": c("descendent.r_op"),
        "descendent.t_element.calls": c("descendent.t_element"),
        "descendent.t_element.s": tracer.stats["descendent.t_element"].inclusive,
        "descendent.add.calls": c("descendent.DescendentPoly.__add__"),
        "quiver.euler_form.calls": c("quiver.euler_form"),
        "cli.calls": tracer.layer_calls("cli"),
        "serialize.calls": tracer.layer_calls("serialize"),
    })
    for group, (hits, misses) in cache_delta.items():
        out[f"{group}.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out


UNITS = {".self_s": "s", ".s": "s", ".calls": "count", ".hit_ratio": "ratio", "overhead_s": "s"}


def unit_of(name):
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time; at least one batch runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="minimal sizes, for the smoke test")
    args = parser.parse_args(argv)

    env = environment()
    workload = workloads.WORKLOADS[args.workload]
    before = speed_probe()
    seconds, qx, ops = setup(workload, args.seed, args.small)
    runner = Runner(workload, qx, ops)
    tag = f"{args.workload}-seed{args.seed}{'-small' if args.small else ''}"
    if args.trace:
        meta = {"workload": args.workload, "seed": args.seed, "env": env}
        metrics, info = measure_traced(runner, qx, args.seconds, os.path.join(OUT, f"spans-{tag}.json"), meta)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, setups, info = measure(runner, args.seconds, lambda: setup(workload, args.seed, args.small)[0])
        metrics["setup_s"] = statistics.median([seconds * scale(before, runner.probes[0])] + setups)
        units = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mb": "MB"}

    expected = None if args.small else expected_terms(args.workload, args.seed)
    if expected is not None and runner.batch_terms != expected:
        runner.failed += 1
        runner.failures.append(f"term count {runner.batch_terms} != {expected} recorded for this seed")

    steal = steal_ticks()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "steal_ticks_during_run": None if steal is None or env["steal_ticks"] is None
        else steal - env["steal_ticks"],
        "ops_per_batch": len(ops),
        "terms_per_batch": runner.batch_terms,
        "fail_ratio": runner.failed / runner.attempted,
        **info,
        "failures": runner.failures,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result-{tag}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for failure in runner.failures:
        print(f"FAIL {failure}")
    print(f"env {json.dumps(env)}")
    print(
        f"{args.workload} seed={args.seed}: {runner.attempted} ops, {runner.failed} failed "
        f"(fail_ratio {runner.failed / runner.attempted:.4g}), {runner.batch_terms} terms per batch, "
        + ", ".join(f"{k}={v}" for k, v in info.items() if not isinstance(v, (list, dict)))
    )
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def expected_terms(workload, seed):
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        return None
    return data["workloads"].get(workload, {}).get("terms_by_seed", {}).get(str(seed))


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "quivertex", "__init__.py")):
        print(f"error: no quivertex sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    from perfbench import tracing, workloads

    sys.exit(main())
