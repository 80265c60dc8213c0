"""One set-up of a benchmark run, timed from outside by ``run.py``.

Does what a fresh process does before its first trial -- imports, the
scenario registry, parameter resolution, trial building -- then prints
``ready`` and exits.  ``run.py`` measures from spawning this process to
reading that line.

Usage: ``python3 perfbench/setup_probe.py SRC_DIR SCENARIO OVERRIDES_JSON``
"""

import json
import sys


def main(src: str, scenario: str, overrides: str) -> int:
    sys.path.insert(0, src)
    from repro.runner.executor import run_scenario  # noqa: F401  (the benchmark's import)
    from repro.runner.registry import get_scenario, load_builtin_scenarios, resolve_params

    load_builtin_scenarios()
    spec = get_scenario(scenario)
    trials = list(spec.build_trials(resolve_params(spec, json.loads(overrides))))
    print("ready", len(trials), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
