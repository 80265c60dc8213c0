"""The benchmark's workloads, their seeds and their output checks.

A workload is one registered scenario at pinned parameters.  The
benchmark runs it as *rounds*: each round is one ``run_scenario`` call
whose root seed derives from the benchmark seed and the round index, so
the same ``--seed`` always yields the same sequence of inputs.  The
kernel backend is pinned to ``vectorized`` (never ``auto``), so the
``REPRO_KERNEL_BACKEND`` environment variable cannot switch kernels.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping

BACKEND = "vectorized"

GOLDEN_PATH = Path(__file__).with_name("golden.json")


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: str
    #: Overrides for one timed round.
    overrides: Mapping[str, object]
    #: Overrides for the untimed warm-up round (one short trial).
    warmup: Mapping[str, object]
    #: Host seconds one untraced round takes at the defining commit.  The
    #: traced run sizes its fixed round count from this, so the count, and
    #: with it every exact count, depends only on the workload and
    #: ``--seconds`` and stays comparable across commits.
    nominal_round_s: float
    check: Callable[[Mapping[str, object]], List[str]]


def _check_churn(row: Mapping[str, object]) -> List[str]:
    problems = [
        f"{key}={row[key]} is outside [0, 1]"
        for key in ("retrievable_fraction", "replica_health", "adversarial_loss")
        if not 0.0 <= float(row[key]) <= 1.0  # type: ignore[arg-type]
    ]
    if int(row["files_lost"]) > int(row["files_stored"]):  # type: ignore[arg-type]
        problems.append(f"files_lost={row['files_lost']} > files_stored={row['files_stored']}")
    return problems


def _check_retrieval(row: Mapping[str, object]) -> List[str]:
    if int(row["served"]) + int(row["unserved"]) != int(row["requests"]):  # type: ignore[arg-type]
        return [f"served+unserved={row['served']}+{row['unserved']} != requests={row['requests']}"]
    return []


def _check_deposit(row: Mapping[str, object]) -> List[str]:
    problems = []
    if row["full_compensation"] is not True:
        problems.append("full_compensation is not true")
    if row["compensated_value"] != row["lost_value"]:
        problems.append(
            f"compensated_value={row['compensated_value']} != lost_value={row['lost_value']}"
        )
    return problems


def _check_segmentation(row: Mapping[str, object]) -> List[str]:
    return [] if row["roundtrip_ok"] is True else ["roundtrip_ok is not true"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "churn_seal",
            "churn",
            {"backend": BACKEND, "trials": 1},
            {"backend": BACKEND, "trials": 1},
            1.2,
            _check_churn,
        ),
        Workload(
            "retrieval_read",
            "retrieval_load",
            {"backend": BACKEND, "trials": 1},
            {"backend": BACKEND, "trials": 1, "rates": (2.0,)},
            0.75,
            _check_retrieval,
        ),
        Workload(
            "deposit_collapse",
            "deposit",
            {"backend": BACKEND, "n_providers": 300, "files": 3000, "checks": 1},
            {"backend": BACKEND, "n_providers": 300, "files": 3000, "checks": 1},
            2.0,
            _check_deposit,
        ),
        Workload(
            "segment_rs",
            "segmentation",
            {"backend": BACKEND},
            {"backend": BACKEND, "trials": 1, "size_ratios": (1.0,), "limit_fractions": (0.5,)},
            1.0,
            _check_segmentation,
        ),
    )
}


def round_seed(seed: int, round_index: int) -> int:
    """Root seed of one round: a hash of the benchmark seed and the index.

    ``round_index`` ``-1`` is the warm-up round.
    """
    digest = hashlib.sha256(f"perfbench:{seed}:{round_index}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


def rows_digest(rows: List[Mapping[str, object]]) -> str:
    """sha256 of a round's rows in canonical JSON."""
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def golden_digest(workload: Workload, seed: int) -> "str | None":
    """The stored digest of round 0's rows at ``seed``, if there is one."""
    golden = json.loads(GOLDEN_PATH.read_text())
    return golden.get(workload.name, {}).get(str(seed))


#: Seeds whose round-0 digests ``golden.json`` stores: the pinned seed
#: and one held out from tuning.
GOLDEN_SEEDS = (0, 1)


def write_golden() -> None:
    """Recompute ``golden.json`` from the program as it is now.

    Run ``python3 perfbench/workloads.py`` from the checkout root after an
    intended change to the rows, and commit the new file with the change.
    """
    import os
    import sys

    os.environ["REPRO_KERNEL_BACKEND"] = BACKEND
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from repro.runner.executor import run_scenario
    from repro.runner.registry import load_builtin_scenarios

    load_builtin_scenarios()
    golden = {
        workload.name: {
            str(seed): rows_digest(
                run_scenario(
                    workload.scenario, workload.overrides, workers=1, seed=round_seed(seed, 0)
                ).rows
            )
            for seed in GOLDEN_SEEDS
        }
        for workload in WORKLOADS.values()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    write_golden()
