"""Declarative workload spec (perfbench/workloads.json): parsing and checks.

The spec names the campaign's benchmark list and jobs, the daemon's workers,
request count, tenants, method mix (with tune sub-mode weights), repeat
share and counter-rate ranges, and one entry per workload with its offered
rate and daemon store mode; BENCHMARK.json records why each workload was
chosen. Thread counts
are written as a whole number or as "nproc" / "nproc-K" and resolved
against the host.
"""

import json
import math

COMPUTE_METHODS = ("predict", "tune", "dta", "evaluate")
TUNERS = ("dta", "static", "exhaustive", "qlearn", "ondemand", "conservative")


class SpecError(ValueError):
    pass


def _require(cond, message):
    if not cond:
        raise SpecError(message)


def _positive(value, what):
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and math.isfinite(value) and value > 0,
             f"{what}: must be a number > 0, got {value!r}")
    return float(value)


def resolve_threads(value, nproc, what):
    """A thread count: an int >= 1, "nproc" or "nproc-K" (never below 1)."""
    if isinstance(value, int) and not isinstance(value, bool):
        _require(value >= 1, f"{what}: must be >= 1, got {value}")
        return value
    _require(isinstance(value, str) and value.startswith("nproc"),
             f"{what}: expected an int, 'nproc' or 'nproc-K', got {value!r}")
    rest = value[len("nproc"):]
    minus = 0
    if rest:
        _require(rest.startswith("-") and rest[1:].isdigit(),
                 f"{what}: expected 'nproc-K', got {value!r}")
        minus = int(rest[1:])
    return max(1, nproc - minus)


def _weights(table, known, what):
    _require(isinstance(table, dict) and table, f"{what}: non-empty object required")
    out = {}
    for name, weight in table.items():
        _require(name in known, f"{what}: unknown name {name!r} (known: {', '.join(known)})")
        out[name] = _positive(weight, f"{what}.{name}")
    return out


def parse(doc):
    """Validates a decoded spec; returns it with weights as floats."""
    _require(isinstance(doc, dict), "spec: object required")
    _require(doc.get("schema") == "perfbench-spec/1", "spec: schema must be perfbench-spec/1")
    campaign = doc.get("campaign")
    _require(isinstance(campaign, dict), "campaign: object required")
    _require(isinstance(campaign.get("benchmarks"), list) and campaign["benchmarks"]
             and all(isinstance(b, str) and b for b in campaign["benchmarks"]),
             "campaign.benchmarks: non-empty list of names required")
    resolve_threads(campaign.get("jobs"), 1, "campaign.jobs")
    for key in ("default_seed", "expect_cold_writes", "min_rounds"):
        _require(isinstance(campaign.get(key), int) and campaign[key] >= 0,
                 f"campaign.{key}: non-negative int required")

    serve = doc.get("serve")
    _require(isinstance(serve, dict), "serve: object required")
    resolve_threads(serve.get("workers"), 1, "serve.workers")
    for key in ("requests", "windows"):
        _require(isinstance(serve.get(key), int) and serve[key] > 0,
                 f"serve.{key}: int > 0 required")
    tenants = serve.get("tenants")
    _require(isinstance(tenants, list) and tenants and len(set(tenants)) == len(tenants),
             "serve.tenants: non-empty list of distinct names required")
    share = serve.get("repeat_share")
    _require(isinstance(share, (int, float)) and 0 <= share < 1,
             "serve.repeat_share: number in [0, 1) required")
    _positive(serve.get("repeat_min_age_ms"), "serve.repeat_min_age_ms")

    mix = serve.get("mix")
    _require(isinstance(mix, dict) and mix, "serve.mix: non-empty object required")
    for method, entry in mix.items():
        _require(method in COMPUTE_METHODS,
                 f"serve.mix: unknown method {method!r} (known: {', '.join(COMPUTE_METHODS)})")
        _require(isinstance(entry, dict), f"serve.mix.{method}: object required")
        entry["weight"] = _positive(entry.get("weight"), f"serve.mix.{method}.weight")
        if method == "tune":
            entry["tuners"] = _weights(entry.get("tuners"), TUNERS, "serve.mix.tune.tuners")
        else:
            _require("tuners" not in entry, f"serve.mix.{method}: tuners only apply to tune")

    rates = serve.get("counter_rates")
    _require(isinstance(rates, dict) and rates, "serve.counter_rates: object required")
    for name, bounds in rates.items():
        _require(isinstance(bounds, list) and len(bounds) == 2,
                 f"serve.counter_rates.{name}: [low, high] required")
        low = _positive(bounds[0], f"serve.counter_rates.{name}[0]")
        high = _positive(bounds[1], f"serve.counter_rates.{name}[1]")
        _require(low <= high, f"serve.counter_rates.{name}: low > high")

    bounds = doc.get("trace", {}).get("coverage_bounds")
    _require(isinstance(bounds, list) and len(bounds) == 2 and 0 < bounds[0] <= 1 <= bounds[1],
             "trace.coverage_bounds: [low <= 1, high >= 1] required")

    workloads = doc.get("workloads")
    _require(isinstance(workloads, dict) and workloads, "workloads: non-empty object required")
    for name, w in workloads.items():
        _require(isinstance(w, dict), f"workloads.{name}: object required")
        w["rate_per_s"] = _positive(w.get("rate_per_s"), f"workloads.{name}.rate_per_s")
        _require(w.get("daemon_store") in ("rw", "off"),
                 f"workloads.{name}.daemon_store: 'rw' or 'off' required")
    return doc


def load(path):
    with open(path, encoding="utf-8") as f:
        return parse(json.load(f))
