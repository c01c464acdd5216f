"""Run every method on seeded random scenes and count how their outcomes agree.

Usage (from the root of a checkout):

  python scripts/scan_routes.py

It takes no flags: the seed and the scene count are constants, so a record
can be made again.  Scenes are drawn from each stratum of ``STRATA``:

  figure          the figure regime: sw or hspw on wsms at 100 GHz
  models_layouts  every model on every layout, otherwise the figure regime
  extreme         one of r, R or frequency_hz log-uniform on [1e-300, 1e308]
  wide_gaps       gap exponents I up to 600, on all three layouts
  small_k         K = 1 or 2
  tilted          a tilted receiver, vartheta uniform on [-1.5, 1.5]

Each scene runs every method (direct, riemann, oracle) through
``validate_config`` and ``run_point``, with RuntimeWarnings raised as
errors.  A method's outcome is ``ok`` for a row without an error code, the
row's error code otherwise, ``config_error`` for a config that
``validate_config`` rejects, or the type name of an exception or warning
that escapes.  The script writes ``.bench_out/scan_routes.json``: per
stratum, the count of each (direct, riemann, oracle) outcome triple, and
for each triple whose outcomes differ, the ``crb`` flags of up to three of
its scenes, which replay them.  It prints one line per stratum.
"""

from __future__ import annotations

import json
import random
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nearfield_crb import errors  # noqa: E402  (the checkout's own package)
from nearfield_crb.experiment_cli import (  # noqa: E402
    LAYOUTS, METHODS, MODELS, ConfigError, ScenarioConfig, run_point, validate_config,
)

SEED = 17
SCENES = 5000  # per stratum
REPLAYS = 3  # scenes kept per disagreeing triple
STRATA = ("figure", "models_layouts", "extreme", "wide_gaps", "small_k", "tilted")
OUT = ROOT / ".bench_out" / "scan_routes.json"

# every outcome that is not an escape
KNOWN = {"ok", "config_error"} | {
    errors.error_code(cls()) for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.CrbEngineError)
}


def _figure(rng: random.Random) -> dict:
    return {
        "K": rng.choice((2, 3, 4, 6, 12)),
        "M": rng.choice((1, 2, 16, 64, 128)),
        "I": rng.randint(0, 10),
        "N_r": rng.choice((1, 1, 4, 35)),
        "R": rng.choice((5.0, 50.0)),
        "r": 10.0 ** rng.uniform(-1.5, 3.5),
        "theta": rng.uniform(-1.5, 1.5),
        "model": rng.choice(("sw", "hspw")),
    }


def draw(rng: random.Random, stratum: str) -> dict:
    """The ScenarioConfig fields of one scene of the stratum, all but the method."""
    fields = _figure(rng)
    if stratum == "figure":
        return fields
    fields["model"] = rng.choice(MODELS)
    fields["layout"] = rng.choice(LAYOUTS)
    if stratum == "extreme":
        fields[rng.choice(("r", "R", "frequency_hz"))] = 10.0 ** rng.uniform(-300.0, 308.0)
    elif stratum == "wide_gaps":
        fields["I"] = rng.randint(11, 600)
    elif stratum == "small_k":
        fields["K"] = rng.choice((1, 2))
    elif stratum == "tilted":
        fields["vartheta"] = rng.uniform(-1.5, 1.5)
    return fields


def scenes(seed: int, count: int):
    """(stratum, fields) for the first count scenes of each stratum, each from its own stream."""
    for stratum in STRATA:
        rng = random.Random(f"{seed}:{stratum}")
        for _ in range(count):
            yield stratum, draw(rng, stratum)


def outcome(fields: dict, method: str) -> str:
    """What one method makes of one scene: ok, an error code, or what escaped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            cfg = validate_config(ScenarioConfig(**fields, method=method))
            return run_point(cfg)["error_code"] or "ok"
    except ConfigError:
        return "config_error"
    except Exception as exc:  # an escape is what the scan looks for
        return type(exc).__name__


def flags(fields: dict) -> str:
    """The ``crb`` flags that replay a scene (add --method)."""
    return " ".join(f"--{k} {v!r}" if isinstance(v, float) else f"--{k} {v}" for k, v in fields.items())


def main() -> int:
    record = {"seed": SEED, "scenes_per_stratum": SCENES, "methods": list(METHODS), "strata": {}}
    for stratum in STRATA:
        record["strata"][stratum] = {"triples": Counter(), "replays": {}}
    start = time.perf_counter()
    for stratum, fields in scenes(SEED, SCENES):
        triple = ",".join(outcome(fields, method) for method in METHODS)
        entry = record["strata"][stratum]
        entry["triples"][triple] += 1
        if len(set(triple.split(","))) > 1:
            kept = entry["replays"].setdefault(triple, [])
            if len(kept) < REPLAYS:
                kept.append(flags(fields))
    for stratum, entry in record["strata"].items():
        triples = entry["triples"]
        agree = sum(n for t, n in triples.items() if len(set(t.split(","))) == 1)
        escaped = sum(n * sum(o not in KNOWN for o in t.split(",")) for t, n in triples.items())
        entry["triples"] = dict(triples.most_common())
        entry["agree"], entry["escaped"] = agree, escaped
        print(f"{stratum:15s} {SCENES} scenes: {agree} agree, {len(triples)} triples, "
              f"{escaped} escaped")
    record["seconds"] = round(time.perf_counter() - start, 1)
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {OUT} in {record['seconds']} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
