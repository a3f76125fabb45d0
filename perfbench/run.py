"""starnambu benchmark: three workloads, each pass in a fresh interpreter.

Run from the repository root:

    python3 perfbench/run.py --workload six-bracket --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Every pass starts a new interpreter (``child.py``), because the library's
module-level caches persist within a process and every CLI call starts
them empty.  One child runs at a time.  Passes repeat until ``--seconds``
of passes have run (at least two); figures are medians over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics, the tracing
overhead and the bypass checks.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
README.md for why each workload is here and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import exprgen  # noqa: E402

SRC = os.path.abspath("src")
OUT = os.path.join(HERE, "out")

EVAL_COUNT = 2000
# Known failure, kept in every eval-stream pass: the recursive evaluator
# raises RecursionError on a 1000-term sum (the CLI exits 3 on it).
KNOWN_FAILURE = ("sphere:2", " + ".join(["x1"] * 1000))

# six-bracket runs at catalog seed 0 whatever --seed is: QN-07 draws
# nothing, and the one random polynomial QN-12 draws makes it cost 3.0 s at
# seeds 2 and 4 but 7.7 s and 9.6 s at seeds 1 and 3 (cold), which would
# spread wall_s across seeds by more than any bound the benchmark may set.
WORKLOADS = {
    "six-bracket": {"kind": "catalog", "globs": ["QN-07", "QN-12"],
                    "jobs": 1, "models": ["chiral-s3"], "catalog_seed": 0},
    "operator-reps": {"kind": "catalog", "globs": ["OS-*", "QN-1[01]"],
                      "jobs": 2, "models": []},
    "eval-stream": {"kind": "eval", "models": list(exprgen.MODELS)},
}
CATALOG_IDS = ("QN-07", "QN-12", "OS-01", "OS-02", "OS-03", "OS-04",
               "QN-10", "QN-11")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("expr_p50_ms", "ms"), ("expr_p99_ms", "ms"))
PER_LAYER = (
    ("poly.pmul.calls", "count"), ("poly.pmul.self_s", "s"),
    ("poly.padd.calls", "count"), ("poly.pdivmod_exact.calls", "count"),
    ("poly.pdivmod_exact.self_s", "s"),
    ("poly.pdivmod_exact.success_ratio", "ratio"),
    ("radical.rmul.calls", "count"), ("radical.radd.calls", "count"),
    ("radical.rderive.calls", "count"), ("radical.rderive.self_s", "s"),
    ("radical.self_s", "s"), ("radical.rmake.calls", "count"),
    ("radical.rinv.calls", "count"),
    ("phase.mul.calls", "count"), ("phase.add.calls", "count"),
    ("phase.diff.calls", "count"), ("phase.equals.self_s", "s"),
    ("phase.self_s", "s"),
    ("brackets.star.calls", "count"), ("brackets.star.self_s", "s"),
    ("brackets.star_commutator.calls", "count"),
    ("brackets.nambu_jacobian.calls", "count"),
    ("brackets.qnb.products", "count"), ("brackets.qnb.nodes", "count"),
    ("brackets.subset_cache.hit_ratio", "ratio"),
    ("operators.matmul.calls", "count"), ("operators.matmul.self_s", "s"),
    ("operators.self_s", "s"),
    ("lang.parse.self_s", "s"), ("lang.evaluate.self_s", "s"),
    ("lang.print_canonical.self_s", "s"),
    ("lang.print_canonical.chars", "chars"),
    ("models.build_s", "s"),
    ("gauss.calls", "count"), ("gauss.self_s", "s"),
) + tuple((f"catalog.entry_s.{i}", "s") for i in CATALOG_IDS) + (
    ("catalog.entry.wait_s", "s"), ("catalog.reported_entry_s", "s"),
    ("trace.overhead", "ratio"),
)

# Bypass checks on the traced pass: a layer name means no call into the
# layer at all, a metric key means no call of that function.
MUST_BE_ZERO = {
    "six-bracket": ("operators.matmul",),
    "operator-reps": ("radical", "phase", "lang"),
    "eval-stream": ("operators.matmul",),
}

MIN_PASSES = 2
SETUP_SAMPLES = 9
RUN_BUDGET_S = 150.0  # no new pass after this; a run must end within 180 s
RUN_LIMIT_S = 175.0


class BenchError(Exception):
    pass


# -- run metadata ------------------------------------------------------


def probe_ms() -> float:
    """Fixed pure-Python loop, best of three; shows host speed drift."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best * 1000.0


def commit() -> str:
    try:
        with open(".git/HEAD") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(".git", ref)):
            with open(os.path.join(".git", ref)) as fh:
                return fh.read().strip()
        with open(".git/packed-refs") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "commit": commit()}


# -- one child interpreter ---------------------------------------------


def run_child(models, trace: bool, job, deadline: float):
    """Start a child, time it to "ready", hand it the job; (setup_s, result)."""
    cmd = [sys.executable, "-I", os.path.join(HERE, "child.py"), SRC,
           ",".join(models), "1" if trace else "0"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if ready.strip() != "ready":
            raise BenchError(f"child did not start: {ready!r}")
        out, _ = proc.communicate(json.dumps(job) + "\n",
                                  timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError("pass did not finish within the run's time limit")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if job else None)


def pass_job(name: str, seed: int, verify: bool, spans_path=None) -> dict:
    spec = WORKLOADS[name]
    if spec["kind"] == "catalog":
        job = {"kind": "catalog", "globs": spec["globs"], "jobs": spec["jobs"],
               "seed": spec.get("catalog_seed", seed)}
    else:
        items = exprgen.generate(seed, EVAL_COUNT) + [list(KNOWN_FAILURE)]
        job = {"kind": "eval", "items": items, "verify": verify}
    if spans_path:
        job["spans_path"] = spans_path
        job["spans_meta"] = {"workload": name, "seed": seed, "pass": 1}
    return job


def quantile_ms(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] * 1000


def summarize_pass(name: str, res: dict) -> dict:
    """Per-pass figures, operation count and failures."""
    if WORKLOADS[name]["kind"] == "catalog":
        rows = res["rows"]
        lat = [r["elapsed_ms"] / 1000.0 for r in rows]
        bad = [f"{r['id']} {r['status']}: {r['detail']}" for r in rows
               if r["status"] != "pass"]
        return {"wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
                "latencies": lat, "attempted": len(rows), "failed": len(bad),
                "wrong": bad}
    lat = res["latencies"]
    failed = set(int(i) for i in res["errors"])
    rt = res.get("roundtrip", {"raised": {}, "mismatched": []})
    failed |= set(int(i) for i in rt["raised"])
    failed |= set(rt["mismatched"])
    return {"wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"],
            "latencies": lat, "attempted": len(lat), "failed": len(failed),
            "wrong": [f"expression {i} does not round-trip"
                      for i in rt["mismatched"]],
            "errors": {**res["errors"], **rt["raised"]},
            "digests": res["digests"]}


# -- workloads -----------------------------------------------------------


def log(msg: str) -> None:
    print(msg, flush=True)


def run_untraced(name: str, seed: int, seconds: float, t_start: float) -> dict:
    spec = WORKLOADS[name]
    deadline = t_start + RUN_LIMIT_S
    passes, setups = [], []
    begin = time.perf_counter()
    while True:
        probe = probe_ms()
        first = not passes
        setup_s, res = run_child(spec["models"], False,
                                 pass_job(name, seed, verify=first), deadline)
        p = summarize_pass(name, res)
        if not first and p.get("digests", []) != passes[0].get("digests", []):
            p["wrong"].append("outputs differ from the first pass")
        p.update(setup_s=setup_s, probe_ms=probe)
        passes.append(p)
        setups.append(setup_s)
        log(f"{name} pass {len(passes)}: wall_s={p['wall_s']:.4f} "
            f"setup_s={setup_s:.4f} peak_rss_mb={p['peak_rss_mb']:.1f} "
            f"failed={p['failed']}/{p['attempted']} probe_ms={probe:.2f}")
        elapsed = time.perf_counter() - begin
        per_pass = elapsed / len(passes)
        if len(passes) >= MIN_PASSES and (
                elapsed >= seconds
                or time.perf_counter() - t_start + per_pass > RUN_BUDGET_S):
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_child(spec["models"], False, None, deadline)[0])
    # Every pass runs the same operations in the same order, so each
    # operation's latency is its median over the passes.
    latencies = [statistics.median(op)
                 for op in zip(*(p["latencies"] for p in passes))]
    log(f"{name} latency samples: {len(latencies)} operations, each the "
        f"median of {len(passes)} passes")
    metrics = {"wall_s": statistics.median(p["wall_s"] for p in passes),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
               "expr_p50_ms": quantile_ms(latencies, 50),
               "expr_p99_ms": quantile_ms(latencies, 99)}
    return {"passes": passes, "setup_samples": setups, "metrics": metrics}


def layer_metrics(trace: dict, rows) -> dict:
    by_key, by_layer, ctr = trace["by_key"], trace["by_layer"], trace["counters"]

    def calls(key):
        return by_key.get(key, {"calls": 0})["calls"]

    def self_s(key):
        return by_key.get(key, {"self_s": 0.0})["self_s"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for name, _ in PER_LAYER:
        head, _, tail = name.rpartition(".")
        if tail == "calls" and head in by_layer:
            out[name] = by_layer[head]["calls"]
        elif tail == "self_s" and head in by_layer:
            out[name] = by_layer[head]["self_s"]
        elif tail == "calls":
            out[name] = calls(head)
        elif tail == "self_s":
            out[name] = self_s(head)
        elif name in ctr:
            out[name] = ctr[name]
    out["poly.pdivmod_exact.success_ratio"] = ratio(
        ctr["poly.pdivmod_exact.successes"], calls("poly.pdivmod_exact"))
    out["brackets.subset_cache.hit_ratio"] = ratio(
        ctr["brackets.subset_cache.hits"], calls("brackets.subset_cache.get"))
    for entry_id in CATALOG_IDS:
        out[f"catalog.entry_s.{entry_id}"] = trace["entry_s"].get(entry_id, 0.0)
    out["catalog.reported_entry_s"] = sum(r["elapsed_ms"] for r in rows) / 1000
    return out


def bypass_failures(name: str, trace: dict) -> list:
    bad = []
    for key in MUST_BE_ZERO[name]:
        table = trace["by_layer"] if key in trace["by_layer"] else trace["by_key"]
        n = table.get(key, {"calls": 0})["calls"]
        if n:
            bad.append(f"bypass check: {n} calls into {key} on {name}")
    return bad


def run_traced(name: str, seed: int, t_start: float) -> dict:
    """One untraced reference pass, then one traced pass."""
    spec = WORKLOADS[name]
    deadline = t_start + RUN_LIMIT_S
    _, ref = run_child(spec["models"], False, pass_job(name, seed, True),
                       deadline)
    ref = summarize_pass(name, ref)
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}.bin")
    _, res = run_child(spec["models"], True,
                       pass_job(name, seed, False, spans_path), deadline)
    p = summarize_pass(name, res)
    if p.get("digests", []) != ref.get("digests", []):
        p["wrong"].append("traced outputs differ from the untraced pass")
    trace = res["trace"]
    metrics = layer_metrics(trace, res.get("rows", []))
    metrics["trace.overhead"] = p["wall_s"] / ref["wall_s"]
    if set(metrics) != {key for key, _ in PER_LAYER}:
        raise BenchError(f"per-layer metrics differ from PER_LAYER: "
                         f"{sorted(set(metrics) ^ {k for k, _ in PER_LAYER})}")
    wrong = ref["wrong"] + p["wrong"] + bypass_failures(name, trace)
    log(f"{name} traced: wall_s={p['wall_s']:.4f} untraced wall_s="
        f"{ref['wall_s']:.4f} overhead={metrics['trace.overhead']:.3f} "
        f"spans={trace['spans']} written to {os.path.relpath(spans_path)}")
    for layer, agg in trace["by_layer"].items():
        log(f"  layer {layer:9s} calls={agg['calls']:>9d} "
            f"self_s={agg['self_s']:.4f}")
    return {"passes": [ref, p], "metrics": metrics, "reached": trace["reached"],
            "wrong_extra": wrong}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t_start = time.perf_counter()
    meta = metadata()
    log(f"{name}: seed={seed} nproc={meta['nproc']} python={meta['python']} "
        f"commit={meta['commit']}")
    if trace:
        run = run_traced(name, seed, t_start)
        wrong = run["wrong_extra"]
    else:
        run = run_untraced(name, seed, seconds, t_start)
        wrong = [w for p in run["passes"] for w in p["wrong"]]
    passes = run["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = passes[0].get("errors", {})
    for i in sorted(errors, key=int):
        log(f"{name} failed operation {i}: {errors[i]}")
    for w in wrong:
        log(f"{name} WRONG: {w}")
    units = dict(PER_LAYER if trace else END_TO_END)
    for key, value in run["metrics"].items():
        log(f"{name} {key} = {value:.6g} {units[key]}")
    log(f"{name} fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    log(f"{name} correct = {not wrong}")
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "meta": meta, "correct": not wrong,
              "attempted": attempted, "failed": failed,
              "metrics": run["metrics"],
              "passes": [{k: v for k, v in p.items()
                          if k not in ("digests", "latencies")} for p in passes],
              "setup_samples": run.get("setup_samples")}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": not wrong, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in run["metrics"].items()},
            "reached": run.get("reached")}


def completeness_failures(reached_sets) -> list:
    """Every wrapped function must be called on at least one workload."""
    total = {}
    for reached in reached_sets:
        for fn, n in reached.items():
            total[fn] = total.get(fn, 0) + n
    return [f"wrapped function {fn} was never called; is it bound under "
            "another name?" for fn, n in sorted(total.items()) if n == 0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "starnambu", "__init__.py")):
        print("no src/starnambu here: run from the repository root",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        result = results[args.workload]
        result.pop("reached")
        print(json.dumps(result))
        return 0
    correct = all(r["correct"] for r in results.values())
    if args.trace:
        missing = completeness_failures(r["reached"] for r in results.values())
        for m in missing:
            log(f"WRONG: {m}")
        correct = correct and not missing
    for r in results.values():
        r.pop("reached")
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
