"""Regenerate ``pins.json``: the simulated outputs of every input variant.

Usage (from the repository root)::

    python3 perfbench/pin.py [--workload NAME ...]

Runs one traced iteration of each workload on each of the
:data:`paths.VARIANTS` input variants and records its outputs (simulated
times, verdicts, digests, engine counts) and its boundary counts.  Pins are
meant to change only with a deliberate change of simulated semantics;
refuses to pin any failed verdict.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import layers  # noqa: E402
import paths  # noqa: E402
import spans  # noqa: E402


def pin_variant(workload: str, variant: int, scratch: str) -> tuple[dict, dict]:
    inputs = paths.build_inputs(workload, variant)
    probe = paths.Probe()
    tracer = spans.Tracer()
    with paths.capture(probe):
        layers.install(tracer, layers.ITERATION_WRAPS)
        try:
            outputs, _fidelity = paths.run_iteration(workload, inputs, scratch, probe)
        finally:
            tracer.uninstall()
    failed = check.mismatches(outputs, {k: check.pinned_form(v) for k, v in outputs.items()})
    if failed:
        raise SystemExit(f"{workload} variant {variant}: failed verdicts {failed[:5]}")
    counts = {key: repr(tracer.counts.get(key, 0)) for key in layers.BOUNDARY_COUNTS}
    return outputs, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=paths.WORKLOADS)
    args = parser.parse_args(argv)
    pins = check.load_pins() if check.PINS_PATH.exists() else {}
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="pin-", dir=work_dir)
    try:
        for workload in args.workload or paths.WORKLOADS:
            outputs, counts = {}, {}
            for variant in range(paths.VARIANTS):
                outputs[variant], counts[variant] = pin_variant(workload, variant, scratch)
                print(f"{workload} variant {variant}: {len(outputs[variant])} outputs", flush=True)
            pins[workload] = {"outputs": check.split_common(outputs),
                              "trace_counts": check.split_common(counts)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(check.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
