"""Daemon request schedule generated from the spec, a workload and a seed.

One generator sends at a constant offered rate, so request i is due at
i / rate. Method counts, tune sub-mode counts and repeat counts are exact
shares of the request count, so every seed yields the same sample sizes.
A repeat copies an earlier request of the same method from the same
tenant, due at least repeat_min_age_ms before it, so at the planned load
the original has been answered and the repeat is a store hit.
"""

import math
import random


def derive_seed(seed, label):
    """A 31-bit seed for one consumer of the run's seed."""
    return random.Random(f"{seed}/{label}").randrange(1, 2 ** 31)


def exact_counts(weights, n):
    """Splits n by weight with largest-remainder rounding (sums to n)."""
    total = sum(weights.values())
    raw = {k: n * w / total for k, w in weights.items()}
    counts = {k: math.floor(v) for k, v in raw.items()}
    left = n - sum(counts.values())
    for k in sorted(raw, key=lambda k: (counts[k] - raw[k], k))[:left]:
        counts[k] += 1
    return counts


def _shuffled(counts, rng):
    items = [k for k in sorted(counts) for _ in range(counts[k])]
    rng.shuffle(items)
    return items


def requests(spec, workload, seed, connections):
    """The request list: dicts with due_ms, conn, repeat_of and frame."""
    serve = spec["serve"]
    rng = random.Random(f"{seed}/serve")
    n = serve["requests"]
    interval_ms = 1000.0 / spec["workloads"][workload]["rate_per_s"]
    benchmarks = spec["campaign"]["benchmarks"]
    tenants = serve["tenants"]
    mix = serve["mix"]

    methods = _shuffled(exact_counts({m: e["weight"] for m, e in mix.items()}, n), rng)
    tenant_of = [rng.randrange(len(tenants)) for _ in range(n)]
    due = [i * interval_ms for i in range(n)]
    repeat_of = [-1] * n

    for method in sorted(mix):
        positions = [i for i in range(n) if methods[i] == method]
        # The method's first request never repeats and is old enough to be
        # an original for every eligible position.
        eligible = [i for i in positions
                    if due[i] >= due[positions[0]] + serve["repeat_min_age_ms"]]
        k = round(serve["repeat_share"] * len(positions))
        if k > len(eligible):
            raise ValueError(f"{method}: {k} repeats but {len(eligible)} eligible requests")
        chosen = sorted(rng.sample(eligible, k))
        chosen_set = set(chosen)
        fresh = [i for i in positions if i not in chosen_set]
        for i in chosen:
            limit = due[i] - serve["repeat_min_age_ms"]
            candidates = [j for j in fresh if due[j] <= limit]
            repeat_of[i] = rng.choice(candidates)
            tenant_of[i] = tenant_of[repeat_of[i]]

    tune_fresh = [i for i in range(n) if methods[i] == "tune" and repeat_of[i] < 0]
    tuners = {}
    if tune_fresh:
        picks = _shuffled(exact_counts(mix["tune"]["tuners"], len(tune_fresh)), rng)
        tuners = dict(zip(tune_fresh, picks))

    rates = serve["counter_rates"]
    out = []
    for i in range(n):
        method = methods[i]
        if repeat_of[i] >= 0:
            params = out[repeat_of[i]]["frame"]["params"]
        elif method == "predict":
            params = {"counter_rates": {
                name: math.exp(rng.uniform(math.log(lo), math.log(hi)))
                for name, (lo, hi) in sorted(rates.items())}}
        else:
            # An explicit key makes every fresh request its own store entry.
            params = {"benchmark": rng.choice(benchmarks), "key": f"r{i}"}
            if method == "tune":
                params["tuner"] = tuners[i]
        out.append({
            "due_ms": due[i],
            "conn": tenant_of[i] % connections,
            "repeat_of": repeat_of[i],
            "frame": {"id": i, "tenant": tenants[tenant_of[i]],
                      "method": method, "params": params},
        })
    return out
