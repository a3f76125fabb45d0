"""One benchmark pass in a fresh interpreter.

Usage: child.py SRC_DIR MODELS TRACE

The child imports ``starnambu`` from SRC_DIR the way the CLI does, builds
the comma-separated MODELS with ``get_model``, prints ``ready`` and waits
for one JSON job on stdin.  It runs the job and prints one JSON result
line.  An empty job only measures set-up.  With TRACE=1 the span tracer is
installed before the models are built.
"""

import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_catalog(job) -> dict:
    from starnambu.catalog import run_suite
    rows = []
    wall = 0.0
    for glob in job["globs"]:
        t0 = time.perf_counter()
        report = run_suite(id_glob=glob, seed=job["seed"], jobs=job["jobs"])
        wall += time.perf_counter() - t0
        rows += [{"id": r.id, "status": r.status, "elapsed_ms": r.elapsed_ms,
                  "detail": r.detail[:300]} for r in report.results]
    return {"wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "rows": rows}


def _run_eval(job) -> dict:
    from starnambu.lang import Binding, evaluate, print_canonical
    from starnambu.models import get_model
    bindings = {}
    latencies, outputs, errors = [], [], {}
    perf = time.perf_counter
    for i, (model, text) in enumerate(job["items"]):
        binding = bindings.get(model)
        if binding is None:
            binding = bindings[model] = Binding(model=get_model(model))
        t0 = perf()
        try:
            out = print_canonical(evaluate(text, binding))
        except Exception as exc:  # counted as a failed operation
            out = None
            errors[i] = f"{type(exc).__name__}: {exc}"[:200]
        latencies.append(perf() - t0)
        outputs.append(out)
    result = {"wall_s": sum(latencies), "peak_rss_mb": _peak_rss_mb(),
              "latencies": latencies, "errors": errors,
              "digests": [hashlib.sha1(out.encode()).hexdigest() if out else None
                          for out in outputs]}
    if job["verify"]:
        result["roundtrip"] = _verify_roundtrip(evaluate, job["items"],
                                                outputs, bindings)
    return result


def _verify_roundtrip(evaluate, items, outputs, bindings) -> dict:
    """Untimed: evaluate(print_canonical(v)) must equal v, for every output.

    v is evaluated again from its source text, so the timed loop holds no
    results and the peak RSS it reports is the stream's own.
    """
    raised, mismatched = {}, []
    for i, ((model, text), out) in enumerate(zip(items, outputs)):
        if out is None:
            continue
        binding = bindings[model]
        try:
            same = evaluate(out, binding).equals(evaluate(text, binding))
        except Exception as exc:
            raised[i] = f"{type(exc).__name__}: {exc}"[:200]
            continue
        if not same:
            mismatched.append(i)
    return {"raised": raised, "mismatched": mismatched}


def main() -> int:
    src, models, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    sys.path.insert(0, src)
    import starnambu.cli  # what the console script imports
    if not os.path.abspath(starnambu.__file__).startswith(src + os.sep):
        print(f"starnambu was imported from {starnambu.__file__}, not {src}",
              file=sys.stderr)
        return 2
    tracer = None
    if trace:
        sys.path.insert(0, HERE)
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    from starnambu.models import get_model
    for name in filter(None, models.split(",")):
        get_model(name)
    print("ready", flush=True)

    job = json.loads(sys.stdin.readline() or "{}")
    if not job:
        return 0
    if job["kind"] == "catalog":
        result = _run_catalog(job)
    else:
        result = _run_eval(job)
    if tracer is not None:
        result["trace"] = {
            "by_key": tracer.by_key(), "by_layer": tracer.by_layer(),
            "counters": tracer.counters, "entry_s": tracer.entry_s,
            "reached": tracer.reached(),
            "spans": tracer.write(job["spans_path"], job["spans_meta"]),
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
