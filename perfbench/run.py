#!/usr/bin/env python3
"""evrac benchmark: one workload per run, measured from outside the program.

    python3 perfbench/run.py --workload rac-shared --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run it from the root of an evrac checkout: it imports evrac from `src/` there
and generates its inputs with `scripts/generate_synthetic.py`. Fixtures,
determinism digests and traces are cached under `perfbench/.cache/`.

With `--trace 0` the last stdout line is one JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced pass and
the tracing overhead. Earlier lines are a readable report and the run record.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "perfbench" / ".cache"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Load comes from one process and one thread; set before numpy is imported.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

# Set-ups before each untraced round: at least one, and until SETUP_SECONDS
# are spent. setup_s is the median over the run.
SETUP_SECONDS = 0.1
CODE_FILES = ("src/evrac/*.py", "scripts/generate_synthetic.py", "perfbench/*.py")

_clock = time.perf_counter


def _die(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def code_key() -> str:
    """Digest of everything that decides fixtures and model bytes."""
    import numpy as np

    h = hashlib.sha256(np.__version__.encode())
    for pattern in CODE_FILES:
        for path in sorted(ROOT.glob(pattern)):
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fixture_dir(city: str, seed: int, key: str) -> Path:
    from fixtures import manifest_ok

    out = CACHE / key / f"{city}-seed{seed}"
    if manifest_ok(out):
        return out
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "fixtures.py"), "--city", city,
                    "--seed", str(seed), "--out", str(out)], cwd=ROOT, check=True)
    return out


class Witness:
    """Determinism witness: the digest of every model a round trained must
    equal the first digest this code and seed ever produced, across runs."""

    def __init__(self, path: Path, tmp: Path):
        self.path = path
        self.tmp = tmp
        self.expected = path.read_text(encoding="utf-8").strip() if path.is_file() else None

    def digest(self, savers: dict) -> str:
        """sha256 over the bytes of every saved model, in name order."""
        from fixtures import sha256_file

        h = hashlib.sha256()
        for name in sorted(savers):
            path = self.tmp / name
            savers[name](path)
            h.update(f"{name}:{sha256_file(path)}\n".encode())
            path.unlink()
        return h.hexdigest()

    def check(self, savers: dict) -> list[str]:
        digest = self.digest(savers)
        if self.expected is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self.path.write_text(digest + "\n", encoding="utf-8")
            self.expected = digest
        if digest != self.expected:
            return [f"model digest {digest[:12]} differs from {self.expected[:12]} for this code and seed"]
        return []


def run_rounds(wl, fixture: Path, ops, budget: float, witness: Witness, recorder=None):
    """Set up, prepare and run rounds while another round is expected to end
    within `budget` seconds; at least one round.

    Without a recorder, each round starts from SETUP_SECONDS of repeated
    set-ups, so set-up samples spread over the whole run. With one, set-up,
    round and witness run traced and each round has exactly one set-up;
    preparation stays untraced. A speed probe runs
    before every round and after the last; each round is scaled by the mean
    of the two probes around it.

    Returns the last set-up state and, per completed round, a tuple
    (set-up seconds, round result, kernel seconds).
    """
    from probe import KERNELS, probe
    from tracer import Tracer
    from workloads import RoundFailed

    def traced():
        return Tracer(recorder) if recorder is not None else contextlib.nullcontext()

    probes = [probe()]
    done, round_times = [], []
    start = _clock()
    while not round_times or (_clock() - start) + statistics.fmean(round_times) <= budget:
        t0 = _clock()
        setups = []
        with traced():
            while not setups or (recorder is None and sum(setups) < SETUP_SECONDS):
                t1 = _clock()
                state = wl.setup(fixture)
                setups.append(_clock() - t1)
        wl.prepare(state, len(round_times))
        try:
            with traced():
                result = wl.round(state, ops)
                savers = wl.models(state, result.outputs)
                if savers:
                    ops.check("determinism", witness.check(savers))
        except RoundFailed:
            result = None
        if recorder is not None:
            recorder.end_pass()
        probes.append(probe())
        if result is not None:
            # Keep only the last round's models, so the benchmark's own
            # references do not grow the peak resident set.
            for _, earlier, _ in done:
                earlier.outputs = {}
            kernels = {k: (probes[-2][k] + probes[-1][k]) / 2 for k in KERNELS}
            done.append((setups, result, kernels))
        round_times.append(_clock() - t0)
    return state, done


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


def run_record(wl, state, key: str, seed: int, seconds: int, trace: int) -> dict:
    import numpy as np

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "git_commit": commit, "code_key": key, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "input": wl.size(state),
    }


def measure(wl, seed: int, seconds: int, trace: bool) -> dict:
    from probe import slowdown
    from tracer import SpanRecorder
    from workloads import Ops

    key = code_key()
    fixture = fixture_dir(wl.city, seed, key)
    manifest = json.loads((fixture / "manifest.json").read_text(encoding="utf-8"))
    ops = Ops()

    recorder = SpanRecorder() if trace else None
    with tempfile.TemporaryDirectory(dir=CACHE) as tmp:
        witness = Witness(CACHE / key / "digests" / f"{wl.name}-seed{seed}.txt", Path(tmp))
        budget = seconds / 2 if trace else seconds
        state, rounds = run_rounds(wl, fixture, ops, budget, witness)
        traced = []
        if trace:
            _, traced = run_rounds(wl, fixture, ops, budget, witness, recorder)
            recorder.write(CACHE / "traces" / f"{wl.name}-seed{seed}.npz")
    if not rounds:
        raise RuntimeError("no round completed: " + "; ".join(ops.problems[:5]))

    record = run_record(wl, state, key, seed, seconds, int(trace))
    record["fixture_files"] = manifest["files"]
    record["input"]["city"] = manifest["size"]
    p_at_1, mar, events = wl.quality(state, rounds[-1][1].outputs, ops)

    def scaled(metric: str, rounds, rate: bool) -> list[float]:
        """Per-sample values of one metric at reference machine speed."""
        out = []
        for setups, result, kernels in rounds:
            factor = slowdown(wl.probe_weights[metric], kernels)
            values = (setups if metric == "setup" else
                      [x.rate for x in getattr(result, metric)])
            out += [v * factor if rate else v / factor for v in values]
        return out

    (name1, unit1), (name2, unit2) = wl.stages
    samples1 = [x for _, r, _ in rounds for x in r.stage1]
    samples2 = [x for _, r, _ in rounds for x in r.stage2]
    setups = [t for s, _, _ in rounds for t in s]
    metrics = {
        "setup_s": (statistics.median(scaled("setup", rounds, rate=False)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
        "stage1_per_s": (statistics.median(scaled("stage1", rounds, rate=True)), "1/s"),
        "stage2_per_s": (statistics.median(scaled("stage2", rounds, rate=True)), "1/s"),
    }
    named = [
        ("setup_s", statistics.median(setups), "s", len(setups)),
        ("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", 1),
        (name1, statistics.median(x.rate for x in samples1), unit1, len(samples1)),
        (name2, statistics.median(x.rate for x in samples2), unit2, len(samples2)),
    ]
    if wl.name == "offline-fit":
        named.append(("baseline_fit.s", statistics.median(x.seconds for x in samples2), "s", len(samples2)))
    if wl.name == "serve":
        latencies = [x.seconds * 1000.0 for x in samples2]
        named += [("recommend.p50_ms", percentile(latencies, 50), "ms", len(latencies)),
                  ("recommend.p99_ms", percentile(latencies, 99), "ms", len(latencies))]
    named += [
        ("quality.p_at_1", p_at_1, "fraction", events),
        ("quality.mar", mar, "reward", events),
        ("ops_failed_ratio", ops.failed / ops.attempted, "fraction", ops.attempted),
    ]
    named += [(f"{name} (reference speed)", value, unit, None) for name, (value, unit) in metrics.items()
              if name != "peak_rss_mb"]
    record["rounds"] = [
        {"kernels_s": kernels, "setup_s": statistics.median(took),
         "stage1_per_s": statistics.median(x.rate for x in r.stage1),
         "stage2_per_s": statistics.median(x.rate for x in r.stage2)}
        for took, r, kernels in rounds
    ]
    if trace:
        def busy(rounds) -> float:
            """Median stage seconds per round, at reference speed."""
            return statistics.median(
                sum(x.seconds for x in r.stage1 + r.stage2) / slowdown(wl.probe_weights["stage1"], k)
                for _, r, k in rounds)

        metrics = layer_metrics(recorder, len(traced), busy(traced) if traced else 0.0, busy(rounds))
    return {"record": record, "named": named, "metrics": metrics, "ops": ops, "recorder": recorder,
            "traced_rounds": len(traced)}


def layer_metrics(rec, passes: int, traced_round_s: float, untraced_round_s: float) -> dict:
    """Per-layer metrics per traced pass (set-up + round + witness)."""
    from tracer import TARGETS

    passes = max(passes, 1)
    totals = rec.totals()
    out = {}
    for _, _, span, _ in TARGETS:
        row = totals.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})
        out[f"{span}.calls"] = (row["calls"] / passes, "count")
        out[f"{span}.s"] = (row["s"] / passes, "s")
        out[f"{span}.self_s"] = (row["self_s"] / passes, "s")
    for name, unit in (("nn.lstm_forward.gflop", "GFLOP"), ("nn.lstm_backward.gflop", "GFLOP"),
                       ("baselines.fpmc_fit.updates", "count"), ("agent.encoder_forward.rows", "count"),
                       ("dataset.parse_events.rows", "count"), ("checkpoint.load.bytes", "bytes"),
                       ("checkpoint.save.bytes", "bytes")):
        out[name] = (rec.counts.get(name, 0.0) / passes, unit)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    pw_calls = totals.get("reward.predict_wait", {}).get("calls", 0)
    enc_rows = rec.counts.get("agent.encoder_forward.rows", 0.0)
    out["reward.predict_wait.distinct_ratio"] = (
        ratio(rec.counts.get("reward.predict_wait.distinct", 0.0), pw_calls), "fraction")
    out["reward.predict_wait.fallback_ratio"] = (
        ratio(rec.counts.get("reward.predict_wait.fallbacks", 0.0), pw_calls), "fraction")
    out["agent.encoder_forward.distinct_ratio"] = (
        ratio(rec.counts.get("agent.encoder_forward.distinct", 0.0), enc_rows), "fraction")
    out["tracing.overhead_ratio"] = (ratio(traced_round_s, untraced_round_s) - 1.0, "fraction")
    out["tracing.spans"] = (len(rec.names) / passes, "count")
    return out


def print_report(result: dict, trace: bool) -> None:
    rec = result["record"]
    print(f"== {rec['workload']}  seed={rec['seed']}  seconds={rec['seconds']}  trace={int(trace)}")
    for name, value, unit, n in result["named"]:
        print(f"  {name:<40} {value:>14.6g} {unit:<14}" + (f" n={n}" if n is not None else ""))
    for problem in result["ops"].problems:
        print(f"  FAILED {problem}")
    if trace:
        spans = result["recorder"].totals()
        total_self = sum(r["self_s"] for r in spans.values()) or 1.0
        print(f"  traced spans over {result['traced_rounds']} pass(es): self-time share, inclusive s, calls")
        for span, row in sorted(spans.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"    {span:<30} {row['self_s'] / total_self:7.1%} {row['s']:10.4f} {row['calls']:>9}")
    print("RUN_RECORD " + json.dumps(rec, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write("".join(line + "\n" for line in proc.stdout.splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return _die(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return _die("--seconds must be >= 1")

    src = ROOT / "src"
    if not (src / "evrac" / "__init__.py").is_file() or not (ROOT / "scripts" / "generate_synthetic.py").is_file():
        return _die(f"{ROOT} is not an evrac checkout (needs src/evrac and scripts/)")
    os.chdir(ROOT)
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import evrac

    if Path(evrac.__file__).resolve().parent != (src / "evrac").resolve():
        return _die(f"imported evrac from {evrac.__file__}, not from this checkout")
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        return _die(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)} or all")
    CACHE.mkdir(parents=True, exist_ok=True)

    result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    ops, metrics = result["ops"], result["metrics"]
    print_report(result, bool(args.trace))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
