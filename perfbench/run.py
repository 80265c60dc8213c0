"""FileInsurer reproduction benchmark: one workload, one seed, one process.

Run from the root of a checkout::

    python3 perfbench/run.py --workload churn_seal --seed 0 --seconds 30 --trace 0

The process is a closed loop with one caller: it calls the runner's
public ``run_scenario`` with ``workers=1`` round after round until
``--seconds`` have passed (see ``workloads.py`` for the workloads).
Telemetry, metrics and profiling stay off and nothing is appended to the
perf history.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-process set-ups), ``trials_per_s``, ``trial_s_p50`` and
``peak_rss_mb``; ``error_rate`` is printed in the table and carried by
the ``attempted``/``failed`` fields.  The three times are reported at the
speed of a reference host (see ``hostspeed.py``); the raw times are
printed beside them.  ``--trace 1`` runs a fixed number of rounds, each
once untraced and twice traced with the wrappers of ``layers.py``, prints
the per-layer table and reports the per-layer metrics.  It checks that
traced rows are byte-identical to untraced rows, that the exact counts
repeat between the two traced passes, that spans are well formed and
that every wrapper is removed afterwards.

Every row is checked against its scenario's invariants, and round 0 at a
seed listed in ``golden.json`` against its stored digest.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 0 only when every check
passed.  Without the program's ``src/`` tree next to this directory the
command exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60


class Tally:
    """Attempted and failed trials, plus what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def fail(self, message: str, trials: int) -> None:
        self.failed += trials
        self.problems.append(message)


# ----------------------------------------------------------------------
# Rounds
# ----------------------------------------------------------------------
def run_round(workload, seed: int, index: int, tally: Tally, overrides=None):
    """One ``run_scenario`` call; returns ``(manifest, wall_s)`` or ``None``.

    A round that raises counts all its trials as failed.  Each row is
    checked against the workload's invariants, round 0 also against the
    golden digest when one is stored for ``seed``.
    """
    from repro.runner.executor import run_scenario
    from workloads import golden_digest, round_seed, rows_digest

    overrides = workload.overrides if overrides is None else overrides
    started = time.perf_counter()
    try:
        manifest = run_scenario(
            workload.scenario, overrides, workers=1, seed=round_seed(seed, index)
        )
    except Exception:  # noqa: BLE001 - a failing round is reported, not fatal
        trials = expected_trials(workload, overrides)
        tally.attempted += trials
        tally.fail(f"round {index} raised:\n{traceback.format_exc()}", trials)
        return None
    wall = time.perf_counter() - started
    tally.attempted += len(manifest.rows)
    for row in manifest.rows:
        problems = workload.check(row)
        if problems:
            tally.fail(f"round {index} trial {row['trial']}: " + "; ".join(problems), 1)
    if index == 0:
        golden = golden_digest(workload, seed)
        if golden is not None and golden != rows_digest(manifest.rows):
            tally.fail(f"round 0 rows at seed {seed} do not match the golden digest", 1)
    return manifest, wall


def expected_trials(workload, overrides) -> int:
    from repro.runner.registry import get_scenario, resolve_params

    spec = get_scenario(workload.scenario)
    return len(list(spec.build_trials(resolve_params(spec, overrides))))


def trial_walls(manifest) -> List[float]:
    return [float(stat["wall_seconds"]) for stat in manifest.trial_stats]


# ----------------------------------------------------------------------
# End-to-end run
# ----------------------------------------------------------------------
def measure_setup(workload) -> float:
    """Wall seconds from spawning a fresh process to its first trial."""
    probe = [
        sys.executable,
        str(HERE / "setup_probe.py"),
        str(SRC),
        workload.scenario,
        json.dumps(dict(workload.overrides)),
    ]
    started = time.perf_counter()
    with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()  # type: ignore[union-attr]
        elapsed = time.perf_counter() - started
        child.stdout.read()  # type: ignore[union-attr]
        code = child.wait(timeout=SETUP_PROBE_TIMEOUT_S)
    if code != 0 or not line.startswith("ready"):
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return elapsed


def end_to_end(workload, seed: int, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str, int]]:
    """Rounds back to back for ``seconds``, with set-up probes spread among them.

    Probe ``k`` runs once ``k / SETUP_PROBES`` of the time has passed, so
    ``setup_s`` samples the host across the whole run, like the trials
    do.  The main process waits while a probe runs; ``trials_per_s``
    divides by the time spent in rounds only.  ``trial_s_p50`` is the
    median over rounds of a round's mean seconds per trial: a round runs
    the scenario's whole parameter grid once, and a grid's cells differ
    in cost (segment_rs: 6 of 16 cells take a fifth of the others' time),
    so the median of pooled trials would sit on a cell boundary.  The
    reference kernel of ``hostspeed.py`` is timed about once a second
    between rounds, and every time metric is reported at the reference
    host's speed.
    """
    from hostspeed import HostSpeed

    run_round(workload, seed, -1, tally, overrides=workload.warmup)
    host = HostSpeed()
    setup: List[float] = []
    round_means: List[float] = []
    trials = 0
    busy = 0.0
    index = 0
    started = time.perf_counter()
    while tally.failed == 0:
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and index:
            break
        if host.maybe_sample():
            continue
        if len(setup) < SETUP_PROBES and elapsed >= len(setup) * seconds / SETUP_PROBES:
            setup.append(measure_setup(workload))
            continue
        outcome = run_round(workload, seed, index, tally)
        index += 1
        if outcome is not None:
            manifest, wall = outcome
            trials += len(manifest.rows)
            busy += wall
            round_means.append(statistics.fmean(trial_walls(manifest)))
    while len(setup) < SETUP_PROBES:
        setup.append(measure_setup(workload))
    host.maybe_sample()
    raw = {
        "setup_s": statistics.median(setup),
        "trials_per_s": trials / busy if busy else 0.0,
        "trial_s_p50": statistics.median(round_means) if round_means else 0.0,
    }
    scale = host.scale()
    print(
        f"host scale {scale:.4f} (median of {len(host.samples)} reference-kernel samples); "
        "raw: " + ", ".join(f"{name}={value:.6f}" for name, value in raw.items())
    )
    return {
        "setup_s": (raw["setup_s"] * scale, "s", len(setup)),
        "trials_per_s": (raw["trials_per_s"] / scale, "1/s", trials),
        "trial_s_p50": (raw["trial_s_p50"] * scale, "s", len(round_means)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
    }


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------
def traced_rounds(workload, seconds: float) -> int:
    """Fixed round count: one untraced and two traced passes fill ``seconds``."""
    return max(1, round(seconds / (3.4 * workload.nominal_round_s)))


def traced(workload, seed: int, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str, int]]:
    """Each round runs untraced, then under tracer A, then under tracer B.

    Interleaving the three passes round by round keeps host-speed drift
    out of ``trace_overhead``; the two tracers give the count-determinism
    check two independent traced runs of the same inputs.
    """
    import layers

    rounds = traced_rounds(workload, seconds)
    run_round(workload, seed, -1, tally, overrides=workload.warmup)
    tracers = (layers.Tracer(), layers.Tracer())
    plain_wall = overhead = 0.0
    traced_wall = [0.0, 0.0]
    for index in range(rounds):
        plain = run_round(workload, seed, index, tally)
        if plain is not None:
            plain_wall += plain[1]
            overhead += plain[1] - sum(trial_walls(plain[0]))
        for pass_index, tracer in enumerate(tracers):
            with tracer:
                outcome = run_round(workload, seed, index, tally)
            if not tracer.restored():
                tally.fail("a layer wrapper was left installed after a traced round", 1)
            if outcome is None or plain is None:
                continue
            traced_wall[pass_index] += outcome[1]
            if outcome[0].rows != plain[0].rows:
                tally.fail(f"round {index}: traced rows differ from untraced rows", 1)

    passes = []
    for tracer in tracers:
        for problem in layers.check_spans(tracer.spans)[:5]:
            tally.fail(f"malformed span: {problem}", 1)
        table = layers.span_table(tracer.spans)
        calls = {name: row["calls"] for name, row in table.items()}
        passes.append((table, calls, dict(tracer.counts)))
    if passes[0][1:] != passes[1][1:]:
        tally.fail("call counts or exact counts differ between the two traced passes", 1)

    names = layers.entry_point_names()
    table = {
        name: {
            key: statistics.fmean(p[0].get(name, {}).get(key, 0) for p in passes)
            for key in ("calls", "total_s", "self_s")
        }
        for name in names
    }
    counts = passes[0][2]
    trial_total = table[layers.TRIAL_SPAN]["total_s"]
    unattributed = table[layers.TRIAL_SPAN]["self_s"]
    print_layer_table(table, names, trial_total)

    metrics: Dict[str, Tuple[float, str, int]] = {}
    for name in names:
        row = table[name]
        metrics[f"{name}.calls"] = (int(row["calls"]), "count", 2)
        metrics[f"{name}.total_s"] = (row["total_s"], "s", 2)
        if name != layers.TRIAL_SPAN:
            metrics[f"{name}.self_s"] = (row["self_s"], "s", 2)
    lookups = table["storage.dht.iterative_find_node"]["calls"]
    attempts = counts.get("kernels.batch_weighted_draw.attempts", 0)
    collisions = counts.get("kernels.batch_weighted_draw.collisions", 0)
    exact = {
        "crypto.porep.sealed_bytes": (counts.get("crypto.porep.sealed_bytes", 0), "B"),
        "crypto.prng.bytes": (counts.get("crypto.prng.bytes", 0), "B"),
        "crypto.erasure.bytes": (counts.get("crypto.erasure.bytes", 0), "B"),
        "storage.dht.rpcs_per_lookup": (
            counts.get("storage.dht.rpc_find_node", 0) / lookups if lookups else 0.0, "ratio"
        ),
        "storage.bitswap.bytes": (counts.get("storage.bitswap.bytes", 0), "B"),
        "kernels.batch_weighted_draw.draws": (
            counts.get("kernels.batch_weighted_draw.draws", 0), "count"
        ),
        "kernels.place.accept_ratio": (
            (attempts - collisions) / attempts if attempts else 1.0, "ratio"
        ),
        "sim.engine.events": (counts.get("sim.engine.events", 0), "count"),
    }
    for name, (value, unit) in exact.items():
        metrics[name] = (value, unit, 2)
    metrics["runner.overhead_s"] = (overhead, "s", rounds)
    metrics["unattributed_s"] = (unattributed, "s", 2)
    metrics["attributed_fraction"] = (
        1.0 - unattributed / trial_total if trial_total else 0.0, "ratio", 2
    )
    metrics["trace_overhead"] = (
        statistics.fmean(traced_wall) / plain_wall if plain_wall else 0.0, "ratio", 2
    )
    print(f"traced rounds: {rounds}, each untraced and twice traced; trace_overhead={metrics['trace_overhead'][0]:.3f}")
    return metrics


def print_layer_table(table: Mapping[str, Mapping[str, float]], names: List[str], trial_total: float) -> None:
    import layers

    print(f"{'layer':8} {'entry point':36} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self%':>6}")
    for name in names:
        if name == layers.TRIAL_SPAN:
            continue
        row = table[name]
        share = 100 * row["self_s"] / trial_total if trial_total else 0.0
        print(
            f"{layers.layer_of(name):8} {name:36} {row['calls']:9.0f} "
            f"{row['total_s']:10.4f} {row['self_s']:10.4f} {share:6.1f}"
        )
    root = table[layers.TRIAL_SPAN]
    share = 100 * root["self_s"] / trial_total if trial_total else 0.0
    print(f"{'runner':8} {'(unattributed)':36} {'':9} {'':10} {root['self_s']:10.4f} {share:6.1f}")
    print(f"{'runner':8} {layers.TRIAL_SPAN:36} {root['calls']:9.0f} {trial_total:10.4f}")


# ----------------------------------------------------------------------
# Provenance and output
# ----------------------------------------------------------------------
def provenance() -> Dict[str, object]:
    import numpy

    from workloads import BACKEND

    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit: Optional[str] = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "backend": BACKEND,
        "workers": 1,
    }


def declared_metrics(trace: int) -> Optional[List[str]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return [metric["name"] for metric in spec["per_layer" if trace else "end_to_end"]]


def recorders_off() -> bool:
    from repro import telemetry
    from repro.telemetry import metrics, profile

    return not (telemetry.is_enabled() or metrics.is_enabled() or profile.is_enabled())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import BACKEND, WORKLOADS

    # Also pins any kernel lookup a scenario leaves on "auto".
    os.environ["REPRO_KERNEL_BACKEND"] = BACKEND
    # One caller, one thread: numpy's BLAS pool would otherwise add one per core.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    from repro.runner.registry import load_builtin_scenarios

    load_builtin_scenarios()
    if not recorders_off():
        print("error: telemetry, metrics or profiling is enabled", file=sys.stderr)
        return 2
    tally = Tally()
    if args.trace:
        metrics = traced(workload, args.seed, args.seconds, tally)
    else:
        metrics = end_to_end(workload, args.seed, args.seconds, tally)
    if not recorders_off():
        tally.fail("a recorder was switched on during the run", 1)

    declared = declared_metrics(args.trace)
    if declared is not None and sorted(declared) != sorted(metrics):
        print(
            f"error: emitted metrics {sorted(set(metrics) ^ set(declared))} "
            "disagree with BENCHMARK.json",
            file=sys.stderr,
        )
        return 2

    if not args.trace:
        for name, (value, unit, n) in metrics.items():
            print(f"{name:14} {value:14.6f} {unit:5} n={n}")
        error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
        print(f"{'error_rate':14} {error_rate:14.6f} {'ratio':5} n={tally.attempted}")
    for problem in tally.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("provenance:", json.dumps(provenance(), sort_keys=True))
    correct = tally.failed == 0 and not tally.problems and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
