"""polartrees benchmark: seeded CLI workloads, answer-checked, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload decompose-mix --seed 0 --seconds 40 --trace 0

Each operation is one in-process ``polartrees.cli.main([..., "--format",
"machine"])`` call with its output captured, sent as a closed loop by one
client: the next query goes out when the previous one has returned.  No
thread or subprocess is started.  Inputs come from ``corpus.py`` and are a
function of ``--seed`` alone.

``--trace 0`` measures for ``--seconds`` of busy time and prints the
end-to-end metrics.  ``--trace 1`` runs a fixed number of queries four
times, untraced, traced (``tracing.py``), traced and untraced, each in a
freshly imported package, and prints the per-layer metrics of the first
traced pass and the traced-over-untraced busy-time ratio.  Every answer
is checked as soon as its call returns, outside the timed region
(``checks.py``); the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record`` rewrites ``digests.json`` for the committed seed instead of
measuring.  Exit code 2 means the program could not be set up (no
``src/polartrees`` next to this directory, for example).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

COMMITTED_SEED = 0
DIGESTS = HERE / "digests.json"
SETUP_REPEATS = 3
SPAN_DIR = Path(".perfbench")

# setup: queries generated during set-up (later ones are generated on demand
# outside the timed region); trace: queries in each pass of the traced run;
# record: queries whose report digests are stored for the committed seed;
# rss_at: queries after which peak_rss_mb is read, about half of what the
# slowest 40-s run got through, so that the reading does not grow with host
# speed (the decomposition cache keeps every ideal it has seen).
WORKLOADS = {
    "decompose-mix": {
        "setup": 400, "trace": 160, "record": 1600, "rss_at": 600,
        "warmup": [(c, "x1^3*x2, x2^2*x3, x1*x3^2") for c in
                   ("decompose", "ass", "height", "filtration")],
    },
    "forest-battery": {
        "setup": 800, "trace": 240, "record": 2400, "rss_at": 1200,
        "warmup": [(c, "x1^2*x2, x2^2") for c in corpus.FOREST_BATTERY if c != "is-tree"]
        + [("is-tree", "x[1,1]*x[1,2]*x[2,1], x[2,1]*x[2,2]")],
    },
    "squarefree-complexes": {
        "setup": 600, "trace": 200, "record": 1600, "rss_at": 600,
        "warmup": [(c, "a*b, b*c, c*d") for c in
                   ("is-tree", "scm-verdict", "leaves", "covers", "complex-info")],
    },
    "high-exponent": {
        "setup": 200, "trace": 120, "record": 2000, "rss_at": 200,
        "warmup": [("ass", "x1^3*x2, x2^4"), ("decompose", "x1^3*x2, x2^4"),
                   ("polarize", "x1^3*x2, x2^4"),
                   ("depolarize", "x[1,1]*x[1,2]*x[1,3]*x[2,1], x[2,1]*x[2,2]*x[2,3]*x[2,4]")],
    },
}
CORPUS_DIGEST_QUERIES = 200


class SetupError(Exception):
    pass


def import_fresh():
    """Import polartrees from this checkout anew, with empty caches."""
    for name in [n for n in sys.modules if n == "polartrees" or n.startswith("polartrees.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    try:
        package = importlib.import_module("polartrees")
        cli = importlib.import_module("polartrees.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import polartrees from {src}: {exc}") from exc
    if not Path(package.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SetupError(f"polartrees was imported from {package.__file__}, not {src}")
    return cli


def call(main, argv):
    """One query: (seconds, exit code or exception text, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed query, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def calibrate() -> float:
    """Milliseconds for a fixed pure-Python kernel (median of three)."""
    def kernel():
        table: dict[int, int] = {}
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
            table[acc & 1023] = i
        return acc + len(table)

    times = []
    for _ in range(3):
        start = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def setup(workload: str, seed: int):
    """Import, corpus generation and warm-up: (cli, corpus, seconds)."""
    spec = WORKLOADS[workload]
    start = time.perf_counter()
    cli = import_fresh()
    queries = corpus.Corpus(workload, seed)
    queries.ensure(spec["setup"])
    for command, text in spec["warmup"]:
        call(cli.main, [command, text, "--format", "machine"])
    return cli, queries, time.perf_counter() - start


def load_digests(workload: str, seed: int) -> tuple[str | None, list[str]]:
    if seed != COMMITTED_SEED or not DIGESTS.exists():
        return None, []
    entry = json.loads(DIGESTS.read_text()).get("workloads", {}).get(workload, {})
    return entry.get("corpus"), entry.get("queries", [])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_queries(main, queries, stored: list[str], limit_s: float | None, count: int | None,
                rss_at: int | None = None):
    """Closed loop over the corpus until the busy time or count is reached.

    Each answer is checked as soon as its call returns, outside the timed
    region, and then dropped.  Returns the latencies, the failures, the busy
    seconds and the peak RSS read after ``rss_at`` queries (None if the loop
    ended first).
    """
    latencies, failures = [], []
    busy = 0.0
    rss = None
    i = 0
    while (count is None or i < count) and (limit_s is None or busy < limit_s):
        queries.ensure(i + 1)
        q = queries.queries[i]
        elapsed, code, output = call(main, q.argv())
        busy += elapsed
        latencies.append(elapsed)
        error, _ = checks.check(q, code, output, stored[i] if i < len(stored) else None)
        if error is not None:
            failures.append(f"query {i} {q.command} [{q.text}]: {error}")
        i += 1
        if i == rss_at:
            rss = peak_rss_mb()
    return latencies, failures, busy, rss


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n


def emit(lines: list[str], correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def timed_run(cli, queries, seconds: float, stored: list[str], rss_at: int):
    """End-to-end metrics of one closed loop of ``seconds`` busy time."""
    latencies, failures, busy, rss = run_queries(
        cli.main, queries, stored, seconds, None, rss_at)
    tail_s, pct = tail(latencies)
    n = len(latencies)
    if rss is None:
        rss, rss_at = peak_rss_mb(), n
    metrics = {
        "throughput_qps": (n / busy, "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "latency_tail_ms": (tail_s * 1000.0, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines = [f"latency_tail_ms is p{pct:.2f} of n={n} queries",
             f"peak_rss_mb read after {rss_at} queries"]
    return metrics, failures, n, lines


def traced_run(queries, count: int, stored: list[str], span_file: Path):
    """Per-layer metrics: untraced, traced, traced, untraced passes.

    Each pass runs the same ``count`` queries on a fresh import.  The order
    keeps allocator warm-up from favouring either side of the overhead
    ratio; the first traced pass gives the per-layer metrics.
    """
    busy = {False: 0.0, True: 0.0}
    tracers, failures, n = [], [], 0
    for traced in (False, True, True, False):
        main = import_fresh().main
        if traced:
            tracers.append(tracing.Tracer())
            tracers[-1].install()
            main = tracers[-1].wrap("cli.main", main)
        latencies, failed, elapsed, _ = run_queries(main, queries, stored, None, count)
        busy[traced] += elapsed
        failures += failed
        n += len(latencies)
    tracer = tracers[0]
    span_file.parent.mkdir(exist_ok=True)
    tracer.write(span_file)
    summary = tracer.summary()
    metrics = tracer.metrics(summary)
    metrics["trace.overhead_ratio"] = (busy[True] / busy[False], "ratio")
    lines = dominant_lines(summary)
    lines.append(f"spans written to {span_file}; witness box points are computed "
                 "as the sum over sweeps of prod(bound_i + 1)")
    if tracer.missing:
        lines.append("missing public names (metrics read 0): " + ", ".join(tracer.missing))
    return metrics, failures, n, lines


def measure(args) -> int:
    calib_before = calibrate()
    cli, queries, setup_s = setup(args.workload, args.seed)
    stored_corpus, stored = load_digests(args.workload, args.seed)
    corpus_digest = queries.digest(CORPUS_DIGEST_QUERIES)
    corpus_ok = stored_corpus is None or stored_corpus == corpus_digest
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace}",
        f"corpus sha256 of first {CORPUS_DIGEST_QUERIES} queries: {corpus_digest}"
        + ("" if stored_corpus is None else " (matches stored)" if corpus_ok
           else f" (STORED {stored_corpus})"),
    ]
    if args.trace:
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        metrics, failures, n, more = traced_run(
            queries, WORKLOADS[args.workload]["trace"], stored, span_file)
    else:
        metrics, failures, n, more = timed_run(
            cli, queries, args.seconds, stored, WORKLOADS[args.workload]["rss_at"])
        # The other set-ups run after the timed loop, so that the samples
        # span the run rather than one moment of a shared host.
        setups = [setup_s] + [setup(args.workload, args.seed)[2]
                              for _ in range(SETUP_REPEATS - 1)]
        metrics["setup_s"] = (statistics.median(setups), "s")
    calib_after = calibrate()
    if args.trace:
        metrics["host.calib_ms"] = ((calib_before + calib_after) / 2.0, "ms")
    lines += more
    lines.append(f"host.calib_ms before {calib_before:.3f} after {calib_after:.3f}")
    lines.append(f"failed {len(failures)} of {n} ({len(failures) / n:.4f}); "
                 f"digests stored for {len(stored)} queries")
    lines += [f"FAIL {f}" for f in failures[:10]]
    emit(lines, corpus_ok and not failures, n, len(failures), metrics)
    return 0


def dominant_lines(summary: dict) -> list[str]:
    total = sum(summary["layer_ms"].values()) or 1.0
    lines = ["self time by layer: " + ", ".join(
        f"{k} {v:.0f} ms ({100 * v / total:.1f}%)"
        for k, v in sorted(summary["layer_ms"].items(), key=lambda kv: -kv[1]))]
    top = sorted(summary["self_ms"].items(), key=lambda kv: -kv[1])[:5]
    lines.append("top spans by self time: " + ", ".join(
        f"{k} {v:.0f} ms ({100 * v / total:.1f}%)" for k, v in top))
    for key, label in (("inclusive_ms", "inclusive time by layer"),
                       ("inclusive_from_structure_ms", "inclusive time entered from structure")):
        if summary[key]:
            lines.append(f"{label}: " + ", ".join(
                f"{k} {v:.0f} ms ({100 * v / total:.1f}%)"
                for k, v in sorted(summary[key].items(), key=lambda kv: -kv[1])))
    return lines


def record() -> int:
    """Store per-query report digests and corpus digests for the committed seed."""
    out = {"seed": COMMITTED_SEED, "workloads": {}}
    for workload, spec in WORKLOADS.items():
        cli = import_fresh()
        queries = corpus.Corpus(workload, COMMITTED_SEED)
        queries.ensure(spec["record"])
        digests = []
        for i, q in enumerate(queries.queries[: spec["record"]]):
            _, code, output = call(cli.main, q.argv())
            error, digest = checks.check(q, code, output, None)
            if error is not None:
                raise SystemExit(f"{workload} query {i} [{q.text}] fails: {error}")
            digests.append(digest)
        out["workloads"][workload] = {
            "corpus": queries.digest(CORPUS_DIGEST_QUERIES),
            "queries": digests,
        }
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {DIGESTS.name} for seed {COMMITTED_SEED}")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record()
        if args.workload is None:
            parser.error("--workload is required")
        return measure(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
