#!/usr/bin/env python3
"""ecotune end-to-end benchmark: DTA campaigns and open-loop daemon traffic.

    python3 perfbench/run.py --workload store_rw --seed 1 --seconds 40 --trace 0

Run from the repository root. Builds the library and its tools from source
into .bench_build/ (Release, installed as the ecotune CMake package), builds
perfbench/harness against that package, and runs one workload of
perfbench/workloads.json:

  * set-up: the process's first campaign, the daemon (model training) and
    its client connections; timed from spawn to ready, several times;
  * campaign rounds: the 19-benchmark ecotune_dta campaign with the store
    off at jobs=nproc and jobs=1, then cold into an empty store and a warm
    restart over it, on a fresh Session each;
  * open-loop daemon requests at the workload's offered rate, sent in a few
    windows that alternate with the campaign rounds;
  * a direct TuningService::handle replay of the same frames (with --trace 1
    also on a fresh and then a warm store, to split handle() times into
    store hits and misses).

Every output is checked: campaign texts against each other and against the
installed ecotune_dta, store counters, and daemon answers against the
direct replay. --trace 0 prints the end-to-end metrics, --trace 1 the
per-layer ones (spans around each public call, written to
.bench_build/results/). The last stdout line is the result object; the
line before it carries the host block and every metric's sample count,
median and quartiles. Self-tests: python3 perfbench/test_perfbench.py
"""

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import plan  # noqa: E402
import spec as specmod  # noqa: E402
import stats  # noqa: E402

BUILD = ".bench_build"
BUILD_TYPE = "Release"
SETUP_SAMPLES = 5  # spawns timed to READY, the measured run included
HARNESS_TIMEOUT_S = 150
METHODS = ("predict", "tune", "dta", "evaluate")
STORE_FIELDS = ("hits", "misses", "writes", "invalidated", "rejected",
                "hit_ratio", "entries", "file_bytes")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_logged(cmd, logfile):
    with open(logfile, "a", encoding="utf-8") as out:
        out.write("$ " + " ".join(cmd) + "\n")
        out.flush()
        rc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode
    if rc != 0:
        raise RuntimeError(f"{' '.join(cmd[:3])}... failed (rc={rc}); see {logfile}")


def build(nproc):
    """Library + tools installed into .bench_build/prefix, then the harness."""
    os.makedirs(BUILD, exist_ok=True)
    logfile = os.path.join(BUILD, "build.log")
    lib, prefix = os.path.join(BUILD, "ecotune"), os.path.abspath(os.path.join(BUILD, "prefix"))
    harness = os.path.join(BUILD, "harness")
    if not os.path.exists(os.path.join(lib, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ".", "-B", lib, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}",
                    "-DECOTUNE_BUILD_TESTS=OFF", "-DECOTUNE_BUILD_BENCH=OFF",
                    "-DECOTUNE_BUILD_EXAMPLES=OFF", "-DECOTUNE_BUILD_TOOLS=ON"], logfile)
    run_logged(["cmake", "--build", lib, "-j", str(nproc)], logfile)
    run_logged(["cmake", "--install", lib, "--prefix", prefix], logfile)
    if not os.path.exists(os.path.join(harness, "CMakeCache.txt")):
        run_logged(["cmake", "-S", os.path.join(HERE, "harness"), "-B", harness,
                    f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}", f"-DCMAKE_PREFIX_PATH={prefix}"], logfile)
    run_logged(["cmake", "--build", harness, "-j", str(nproc)], logfile)
    return os.path.join(harness, "perfbench_harness"), os.path.join(prefix, "bin", "ecotune_dta")


def source_identity():
    """The git commit when the checkout is a repository, and a digest of
    the library sources either way."""
    commit = "unknown"
    if os.path.isdir(".git"):
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "cmake", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in paths:
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def spawn_harness(binary, plan_path, errlog):
    """Starts the harness; returns (process, seconds from spawn to READY)."""
    t0 = time.perf_counter()
    with open(errlog, "a", encoding="utf-8") as err:
        proc = subprocess.Popen([binary, "--plan", plan_path], stdout=subprocess.PIPE,
                                stderr=err, text=True)
    line = ""
    if select.select([proc.stdout], [], [], HARNESS_TIMEOUT_S)[0]:
        line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        finish(proc)
        raise RuntimeError(f"harness failed during set-up; see {errlog}")
    return proc, ready


def finish(proc, timeout=HARNESS_TIMEOUT_S):
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("harness timed out")
    finally:
        proc.stdout.close()
    return proc.returncode


def sampled(values, unit, value=None):
    """A metric read from a sample: its value (the median unless given)
    with the sample's count, median and quartiles."""
    s = stats.summary(values)
    return dict(s, value=s["median"] if value is None else value, unit=unit)


def single(value, unit):
    return {"value": value, "unit": unit}


def span_table(spans):
    """{root name: [(root span, {child name: child span})]} per traced campaign."""
    roots = {}
    children = {}
    for s in spans:
        if s["parent"] < 0:
            roots.setdefault(s["name"], []).append(s)
        else:
            children.setdefault(s["parent"], {})[s["name"]] = s
    return {name: [(r, children.get(r["id"], {})) for r in rs] for name, rs in roots.items()}


def dur_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def store_metrics(prefix, st, out):
    lookups = st["hits"] + st["misses"]
    values = dict(st, hit_ratio=st["hits"] / lookups if lookups else 0.0)
    for field in STORE_FIELDS:
        out[f"{prefix}.{field}"] = single(values[field], "ratio" if field == "hit_ratio"
                                          else "bytes" if field == "file_bytes" else "count")


def serve_rows(requests, result):
    timings = result["serve"]["timings_ms"]
    rows = []
    for req, (due, sent, recv, code) in zip(requests, timings):
        rows.append({"method": req["frame"]["method"], "due": due, "sent": sent, "recv": recv,
                     "code": code})
    return rows


def in_system(serve, rows):
    """Time-average requests inside the daemon (Little's law): queued or
    being handled. With W workers and little queueing, in_system / W is
    the workers' busy share."""
    inside = sum(r["recv"] - r["sent"] for r in rows if r["recv"] is not None)
    return inside / sum(serve["window_ms"])


def latencies(rows, method):
    """Open-loop latency of every request of `method`; failures are +inf."""
    timed = stats.open_loop((r["due"], r["sent"], r["recv"], r["code"] == "ok") for r in rows)
    return [lat for (lat, _), r in zip(timed, rows) if r["method"] == method]


def p95(values, unit):
    return sampled(values, unit, value=stats.nearest_rank(values, 0.95))


def end_to_end(result, requests, setup):
    """{name: metric} for every end-to-end metric."""
    samples = result["campaign"]["samples_ms"]
    out = {"setup_s": sampled(setup, "s")}
    for name, key in (("campaign_ms", "nostore"), ("campaign_j1_ms", "nostore_j1"),
                      ("campaign_cold_ms", "cold"), ("campaign_warm_ms", "warm")):
        out[name] = sampled(samples[key], "ms")
    rows = serve_rows(requests, result)
    for method in METHODS:
        out[f"serve_{method}_p50_ms"] = sampled(latencies(rows, method), "ms")
    return out


def per_layer(result, requests, bounds):
    """{name: metric} for every per-layer metric, plus coverage failures."""
    out = {}
    table = span_table(result["spans"])
    samples = result["campaign"]["samples_ms"]

    def phase(root, child):
        return [dur_ms(c[child]) for _, c in table[root]]

    def attr(root, child, key):
        return table[root][0][1][child]["attrs"][key]

    out["api.session_open_ms"] = sampled(phase("campaign.warm", "api.session_open"), "ms")
    out["model.acquire_ms"] = sampled(phase("campaign.nostore", "model.acquire"), "ms")
    n_samples = attr("campaign.nostore", "model.acquire", "samples")
    out["model.acquire_samples"] = single(n_samples, "count")
    train = sampled(phase("campaign.nostore", "nn.train"), "ms")
    epochs = attr("campaign.nostore", "nn.train", "epochs")
    out["nn.train_ms"] = train
    out["nn.train_ns_per_sample_epoch"] = single(
        train["value"] * 1e6 / (n_samples * epochs), "ns")
    out["core.dta_campaign_ms"] = sampled(phase("campaign.cold", "core.dta_campaign"), "ms")
    out["core.app_runs"] = single(attr("campaign.cold", "core.dta_campaign", "app_runs"), "count")
    out["core.scenarios"] = single(attr("campaign.cold", "core.dta_campaign", "scenarios"),
                                   "count")
    out["api.report_ms"] = sampled(phase("campaign.nostore", "api.report"), "ms")

    # Each traced campaign is paired with the untraced one of the same kind
    # run in the same round; coverage and overhead are medians of the
    # per-round ratios.
    failures = 0
    for half in ("nostore", "cold", "warm"):
        runs = table[f"campaign.{half}"]
        base = samples[half]
        coverage = sampled([sum(dur_ms(c) for c in kids.values()) / b
                            for (_, kids), b in zip(runs, base)], "ratio")
        out[f"trace.coverage.{half}"] = coverage
        out[f"trace.overhead.{half}"] = sampled(
            [dur_ms(root) / b for (root, _), b in zip(runs, base)], "ratio")
        if not bounds[0] <= coverage["value"] <= bounds[1]:
            log(f"trace.coverage.{half} = {coverage['value']:.3f} outside {bounds}")
            failures += 1

    store_metrics("store.cold", result["campaign"]["store"]["cold"], out)
    store_metrics("store.warm", result["campaign"]["store"]["warm"], out)
    store_metrics("store.serve", result["serve"]["store"], out)

    serve = result["serve"]
    rows = serve_rows(requests, result)
    first = serve["replay"]
    passes = (first, serve["replay_fresh"], serve["replay_warm"])
    for method in METHODS:
        idx = [i for i, r in enumerate(rows) if r["method"] == method]
        if method == "predict":
            groups = {"": [first["handle_ms"][i] for i in idx]}
        else:
            groups = {mode: [p["handle_ms"][i] for p in passes for i in idx
                             if p["mode"][i] == mode[1:]]
                      for mode in (".hit", ".miss")}
            fresh = serve["replay_fresh"]
            out[f"serve.hit_share.{method}"] = single(
                sum(fresh["mode"][i] == "hit" for i in idx) / len(idx), "ratio")
        for suffix, values in groups.items():
            out[f"serve.handle_ms.{method}{suffix}.p50"] = sampled(values, "ms")
            out[f"serve.handle_ms.{method}{suffix}.p95"] = p95(values, "ms")
        # The p95s move with host speed (10-run spread 0.27-0.9 on a shared
        # 4-vCPU host), beyond any bound an end-to-end metric may have.
        out[f"serve.latency_ms.{method}.p95"] = p95(latencies(rows, method), "ms")
        out[f"serve.transport_ms.{method}"] = sampled(
            [(rows[i]["recv"] - rows[i]["sent"]) - first["handle_ms"][i] for i in idx
             if rows[i]["code"] == "ok"], "ms")
    out["serve.protocol_us"] = sampled(serve["protocol_us"], "us")
    out["model.recommend_us"] = sampled(serve["recommend_us"], "us")
    for code in ("overloaded", "timeout", "bad_request", "internal"):
        out[f"serve.failed.{code}"] = single(sum(r["code"] == code for r in rows), "count")
    out["serve.in_system_mean"] = single(in_system(serve, rows), "count")
    late = [r["sent"] - r["due"] for r in rows if r["sent"] is not None]
    out["serve.generator_late_p99_ms"] = sampled(late, "ms", value=stats.nearest_rank(late, 0.99))
    return out, failures


def check_ecotune_dta(binary, benchmarks, jobs, seed, expected_path):
    cmd = [binary, "--jobs", str(jobs)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    for b in benchmarks:
        cmd += ["--benchmark", b]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    with open(expected_path, encoding="utf-8") as f:
        expected = f.read()
    if out.returncode != 0 or out.stdout != expected:
        log(f"ecotune_dta output differs from the campaign text {expected_path}")
        return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("CMakeLists.txt") and os.path.isfile("src/api/session.hpp")):
        log("run from the root of an ecotune checkout (CMakeLists.txt and src/ not found)")
        return 2
    spec = specmod.load(os.path.join(HERE, "workloads.json"))
    if args.workload not in spec["workloads"]:
        log(f"unknown workload {args.workload!r} (known: {', '.join(spec['workloads'])})")
        return 2

    nproc = len(os.sched_getaffinity(0))
    harness_bin, dta_bin = build(nproc)

    campaign = spec["campaign"]
    serve = spec["serve"]
    jobs = specmod.resolve_threads(campaign["jobs"], nproc, "campaign.jobs")
    workers = specmod.resolve_threads(serve["workers"], nproc, "serve.workers")
    connections = min(nproc, len(serve["tenants"]))
    caps = {"nproc": nproc, "campaign_jobs": jobs, "daemon_workers": workers,
            "daemon_io_tasks": 1, "generator_threads": 1, "connections": connections,
            "within_nproc": workers + 2 <= nproc and connections <= nproc and jobs <= nproc}
    requests = plan.requests(spec, args.workload, args.seed, connections)
    window_s = requests[-1]["due_ms"] / 1000.0

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(BUILD, "work", f"{run_id}-{os.getpid()}")
    results_dir = os.path.join(BUILD, "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)
    errlog = os.path.join(work, "harness.log")
    campaign_seed = plan.derive_seed(args.seed, "campaign")
    doc = {
        "trace": bool(args.trace), "setup_only": True, "work_dir": work,
        "out": os.path.join(work, "result.json"),
        "campaign": {
            "seed": campaign_seed, "jobs": jobs,
            "benchmarks": campaign["benchmarks"], "default_seed": campaign["default_seed"],
            "expect_cold_writes": campaign["expect_cold_writes"],
            "min_rounds": campaign["min_rounds"],
            "seconds": max(args.seconds - window_s, 1.0),
        },
        "serve": {
            "seed": plan.derive_seed(args.seed, "daemon"), "jobs": jobs, "workers": workers,
            "connections": connections, "windows": serve["windows"],
            "store": spec["workloads"][args.workload]["daemon_store"] == "rw",
            "requests": requests,
        },
    }
    setup_plan = os.path.join(work, "plan-setup.json")
    with open(setup_plan, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    doc["setup_only"] = False
    run_plan = os.path.join(work, "plan.json")
    with open(run_plan, "w", encoding="utf-8") as f:
        json.dump(doc, f)

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, ready = spawn_harness(harness_bin, setup_plan, errlog)
        if finish(proc) != 0:
            raise RuntimeError(f"set-up-only harness failed; see {errlog}")
        setup.append(ready)
    proc, ready = spawn_harness(harness_bin, run_plan, errlog)
    setup.append(ready)
    if finish(proc) != 0:
        raise RuntimeError(f"harness failed; see {errlog}")
    with open(doc["out"], encoding="utf-8") as f:
        result = json.load(f)

    rows = serve_rows(requests, result)
    failed_requests = sum(r["code"] != "ok" for r in rows)
    dta_ok = [
        check_ecotune_dta(dta_bin, campaign["benchmarks"], jobs, campaign_seed,
                          os.path.join(work, "campaign.txt")),
        check_ecotune_dta(dta_bin, campaign["benchmarks"], jobs, None,
                          os.path.join(work, "campaign-default-seed.txt")),
    ]
    attempted = (result["campaign"]["campaigns"] + 2 + len(rows)
                 + len(result["serve"]["replay"]["handle_ms"]) * (3 if args.trace else 1))
    failed = result["failures"] + failed_requests + dta_ok.count(False)

    commit, digest = source_identity()
    host = dict(result["host"], nproc=nproc, build_type=BUILD_TYPE, git_commit=commit,
                source_digest=digest)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "host": host,
              "caps": caps,
              "offered_rate_per_s": spec["workloads"][args.workload]["rate_per_s"],
              "window_s": window_s, "setup_samples_s": setup,
              "in_system_mean": in_system(result["serve"], rows)}

    if args.trace:
        full, coverage_failures = per_layer(result, requests, spec["trace"]["coverage_bounds"])
        failed += coverage_failures
        detail["per_layer"] = full
        with open(os.path.join(results_dir, f"{run_id}-spans.json"), "w", encoding="utf-8") as f:
            json.dump({"host": host, "spans": result["spans"]}, f)
    else:
        full = end_to_end(result, requests, setup)
        detail["end_to_end"] = full
    metrics = {name: single(m["value"], m["unit"]) for name, m in full.items()}
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = -1.0  # failed requests dominate; the run is already incorrect
            failed += 1
    with open(os.path.join(results_dir, f"{run_id}.json"), "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        log(f"{failed} failed operation(s); evidence kept in {work}")
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(1)
