"""symsos benchmark: time to an exact certificate on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0

The workload's ops run in a closed loop from one client, in whole passes over
its instance list, until the ops have taken ``--seconds``.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics.  With ``--trace 1`` the workload first runs untraced for half the
time, then the public functions of every layer are wrapped (``spans.py``)
and the per-layer metrics plus the tracing overhead are printed instead.
The line before the result records the seed, the environment, raw timings
and the failures by class; the full record (with the spans of a traced run)
goes to ``.bench_out/``.

Host-normalized seconds.  On a shared 2-vCPU x86-64 virtual machine the
host's speed changes by up to a factor of two in phases of 10-20 s (the
probe below takes 2.0 ms in fast phases and up to 3.8 ms in slow ones),
which no run length that fits the time budget averages out.
Every op is therefore bracketed by a short reference probe, a timer runs
one more every TICK_S while the op runs (their time is taken off the op's),
and the op's time is reported as ``wall seconds * PROBE_REF_S / probe
seconds``, with the median of the probes taken within half a second of the
op: the wall time the op takes when the host runs the probe in PROBE_REF_S.
The probe mixes the program's two kinds of work, exact arithmetic on sparse
polynomials and small dense float linear algebra; it is the benchmark's own
code and never changes with the program.
Raw wall seconds are reported next to the normalized ones in the record.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import random  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

BLAS_THREADS = "1"
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
PROBE_REF_S = 2.0e-3  # probe time on an uncontended 2 GHz x86-64 vCPU
TICK_S = 0.2


class Clock:
    """Wall time of calls, plus reference probes to normalize it by host speed."""

    def __init__(self):
        import numpy as np
        self.probes: list[tuple[float, float]] = []  # (time, probe seconds)
        rng = random.Random(1)
        self._polys = [{tuple(rng.randint(0, 3) for _ in range(3)):
                        Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                        for _ in range(25)} for _ in range(2)]
        m = np.random.default_rng(0).standard_normal((24, 24))
        self._gram = m @ m.T + np.eye(24)

    def _work(self) -> None:
        import numpy as np
        a, b = self._polys
        prod: dict = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                m = (ma[0] + mb[0], ma[1] + mb[1], ma[2] + mb[2])
                prod[m] = prod.get(m, 0) + ca * cb
        for _ in range(12):
            np.linalg.solve(self._gram, self._gram[:, 0])
            np.linalg.eigvalsh(self._gram)

    def probe(self, repeats: int = 3) -> float:
        """Time a fixed slice of reference work, median of ``repeats``."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        self.probes.append((time.perf_counter(), sorted(times)[repeats // 2]))
        return sum(times)

    def timed(self, fn):
        """(result, start, end, seconds spent in probes) of one call."""
        inside = [0.0]

        def tick(signum, frame):
            inside[0] += self.probe(repeats=1)

        self.probe()
        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.probe()
        return result, t0, t1, inside[0]

    def normalized(self, t0: float, t1: float, busy: float,
                   margin: float = 0.5) -> float:
        """``busy`` seconds spent within [t0, t1], at the reference host speed."""
        near = [p for t, p in self.probes if t0 - margin <= t <= t1 + margin]
        return busy * PROBE_REF_S / statistics.median(near)


def environment() -> dict:
    import numpy as np
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except Exception:  # noqa: BLE001 - older numpy without mode="dicts"
        pass
    return {"cores": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
            "blas_threads": int(BLAS_THREADS), "machine": platform.machine()}


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With ten or fewer samples
    no such percentile exists and the maximum is reported, with 0 beyond.
    """
    v = sorted(values)
    n = len(v)
    if n <= 10:
        return v[-1], 100.0, 0
    return v[n - 11], 100.0 * (n - 10) / n, 10


def run_passes(work, seconds: float, clock: Clock, tracer=None):
    """Whole passes over the op list until the ops have taken ``seconds``.

    Returns records (name, start, end, op seconds, outcome) and the number
    of passes.  Only op time counts: probes, output checks and cross-checks
    are taken off or run between ops, untimed.
    """
    records = []
    passes = 0
    busy = 0.0
    while busy < seconds or passes == 0:
        for op in work.ops:
            if tracer is not None:
                tracer.op = len(records)
                tracer.phase = "op"
            out, t0, t1, probing = clock.timed(op.run)
            if out is None:  # nothing to do this pass (no file to verify)
                continue
            busy += t1 - t0 - probing
            if tracer is not None:
                tracer.phase = "check"
            if out.post is not None:
                out.post()
            if op.cross_check is not None:
                op.cross_check(out)
            records.append((op.name, t0, t1, t1 - t0 - probing, out))
        passes += 1
    return records, passes


def settle(records, clock: Clock) -> list[tuple]:
    """(name, raw s, normalized s, outcome) once every probe has been taken."""
    return [(n, raw, clock.normalized(t0, t1, raw), o)
            for n, t0, t1, raw, o in records]


def medians(records, col: int = 2) -> dict[str, float]:
    """Median seconds of each op of the list (normalized by default)."""
    per_op: dict[str, list[float]] = {}
    for rec in records:
        per_op.setdefault(rec[0], []).append(rec[col])
    return {name: statistics.median(v) for name, v in per_op.items()}


def timing(records, col: int = 2) -> dict:
    """wall_s, op_s_p50 and op_s_tail of a run, from column ``col``."""
    typical = list(medians(records, col).values())
    # Op times cluster by instance, so a tail over the ops of a run would jump
    # from one instance to another as the number of passes that fit into
    # --seconds changes.  The tail is taken over eleven nominal passes in
    # which every op takes its median time of the run: with ten samples
    # beyond it, it is the median time of the list's slowest op.
    value, pct, beyond = tail(typical * 11)
    return {"wall_s": sum(typical),
            "op_s_p50": statistics.median(rec[col] for rec in records),
            "op_s_tail": value, "tail_percentile": pct, "tail_beyond": beyond,
            "tail_samples": len(typical) * 11}


def unit_of(name: str) -> str:
    if any(part.endswith("_s") for part in name.split(".")) or \
            name.endswith("_per_iter"):
        return "s"
    if name.endswith("_frac") or name.endswith("over_full"):
        return "fraction"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "symsos", "__init__.py")):
        print(f"error: no symsos sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]

    import symsos  # noqa: F401  - import is part of set-up
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import_end = time.perf_counter()
    clock = Clock()
    clock.probe()

    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{os.getpid()}")
    outdir = os.path.join(root, ".bench_out")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    tracer = plain = None
    try:
        builds = [clock.timed(lambda: workloads.WORKLOADS[args.workload](
            args.seed, workdir)) for _ in range(SETUP_REPEATS)]
        work = builds[-1][0]
        if args.trace:
            # the untraced baseline runs on a workload of its own, so that
            # nothing it computes once and keeps is missing from the trace
            from spans import Tracer
            plain, _ = run_passes(builds[0][0], args.seconds / 2, clock)
            tracer = Tracer()
            tracer.install()
            try:
                records, passes = run_passes(work, args.seconds, clock, tracer)
            finally:
                tracer.uninstall()
        else:
            records, passes = run_passes(work, args.seconds, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    records = settle(records, clock)

    outs = [rec[3] for rec in records]
    failed = sum(o.failed for o in outs)
    classes: dict[str, int] = {}
    for o in outs:
        if o.failed:
            classes[o.cls] = classes.get(o.cls, 0) + 1
    correct = not any(o.unsound or o.cls == "wrong-table" for o in outs)
    per_pass = len(records) / passes
    # Outcomes repeat exactly from pass to pass, so the independent trials are
    # the ops of one pass; the add-one (Laplace) estimate never reads 0.
    fail_frac = (failed / passes + 1) / (per_pass + 2)
    norm, raw = timing(records, 2), timing(records, 1)
    build_raw = [t1 - t0 - probing for _, t0, t1, probing in builds]
    setup = {"normalized_s": clock.normalized(T_START, import_end, import_end - T_START)
             + statistics.median(clock.normalized(t0, t1, raw) for (_, t0, t1, _), raw
                                 in zip(builds, build_raw)),
             "raw_s": import_end - T_START + statistics.median(build_raw),
             "import_raw_s": import_end - T_START, "build_raw_s": build_raw}

    if tracer is not None:
        from spans import layer_metrics
        factors = {i: rec[2] / rec[1] for i, rec in enumerate(records) if rec[1]}
        layers = layer_metrics(tracer, [rec[0] for rec in records], factors)
        bits = [o.cert_bits for o in outs if o.cert_bits is not None]
        layers["certificates.cert_bits"] = statistics.median(bits) if bits else 0.0
        layers["trace.overhead_frac"] = \
            norm["wall_s"] / timing(settle(plain, clock))["wall_s"] - 1
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": setup["normalized_s"], "unit": "s"},
            "wall_s": {"value": norm["wall_s"], "unit": "s"},
            "op_s_p50": {"value": norm["op_s_p50"], "unit": "s"},
            "op_s_tail": {"value": norm["op_s_tail"], "unit": "s"},
            "fail_frac": {"value": fail_frac, "unit": "fraction"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": environment(), "rationale": work.rationale,
        "probe_ref_s": PROBE_REF_S, "setup": setup, "passes": passes,
        "ops_per_pass": per_pass, "op_samples": len(records),
        "timing_normalized": norm, "timing_raw": raw,
        "fail_frac_raw": failed / len(records), "fail_classes": classes,
        "failures": sorted({f"{o.name}: {o.cls} {o.detail}".strip()
                            for o in outs if o.failed}),
    }
    record = dict(info, metrics=metrics,
                  ops=[{"name": n, "raw_s": r, "s": s, "cls": o.cls, "lam": o.lam,
                        "cert_bits": o.cert_bits} for n, r, s, o in records])
    if tracer is not None:
        record["spans"] = tracer.dump()
    path = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                f"-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump(record, fh)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
