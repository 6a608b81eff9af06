"""Output check: every simulated statistic a run produces must match its pin.

A workload iteration yields ``outputs``: one entry per checked operation
(a figure point's simulated seconds, a validation verdict with its elapsed
time, a verify scenario's verdict and digests, the engine counts), each a
string.  ``pins.json`` holds, per workload, the entries shared by every
input variant (``common``) and the rest per variant (``variants``); long
values are stored as a digest (:func:`pinned_form`).

A change that only speeds up the simulator leaves every entry identical.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Values longer than this are pinned by digest to keep the pin file small.
_MAX_LITERAL = 40

#: Substrings that mark a failed verdict whatever the pins say.
_FAILED_VERDICTS = ("ok=False", "correct=False")


def pinned_form(value: str) -> str:
    """The form in which ``value`` is stored in and compared with the pins."""
    if len(value) <= _MAX_LITERAL:
        return value
    return "sha256:" + hashlib.sha256(value.encode("utf-8")).hexdigest()[:24]


def expected_outputs(pins: dict, workload: str, variant: int, section: str = "outputs") -> dict:
    """Pinned entries of one workload variant (``section``: outputs or trace_counts)."""
    entry = pins[workload][section]
    return {**entry["common"], **entry["variants"][str(variant)]}


def mismatches(outputs: dict, expected: dict) -> list[str]:
    """Keys of ``outputs`` that differ from ``expected``, plus missing keys.

    A value carrying a failed verdict is a mismatch even if pinned so.
    """
    bad = []
    for key, value in outputs.items():
        if key not in expected or pinned_form(value) != expected[key]:
            bad.append(key)
        elif any(marker in value for marker in _FAILED_VERDICTS):
            bad.append(key)
    bad.extend(key for key in expected if key not in outputs)
    return bad


def split_common(per_variant: dict[int, dict]) -> dict:
    """Pin layout of ``{variant: outputs}``: shared entries once, the rest per variant."""
    forms = {variant: {k: pinned_form(v) for k, v in outputs.items()}
             for variant, outputs in per_variant.items()}
    first = next(iter(forms.values()))
    common = {key: value for key, value in first.items()
              if all(other.get(key) == value for other in forms.values())}
    return {
        "common": common,
        "variants": {str(variant): {k: v for k, v in entries.items() if k not in common}
                     for variant, entries in sorted(forms.items())},
    }


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)
