"""One cold run of one workload, in a fresh interpreter.

    python3 perfbench/child.py SPAWNED_AT probe
    python3 perfbench/child.py SPAWNED_AT WORKLOAD SEED DRAW RUN_ID SPANS_PATH

SPAWNED_AT is the parent's `time.monotonic()` just before the spawn, so that
`setup_s` covers interpreter start plus `import conekit`. `probe` stops after
the import. Otherwise the child builds the inputs of draw DRAW of SEED
(untimed), runs every verdict of the workload in the timed region, checks
each against its known answer, and prints one JSON line. Times are
calibrated to a reference speed (see `calib.py`). Unless SPANS_PATH
is `-`, it also records spans (see `tracer.py`), tagged with RUN_ID, and
writes them to SPANS_PATH at the end.
"""

import sys
import time

SPAWNED_AT = float(sys.argv[1])

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

_start = time.perf_counter()
import conekit  # noqa: E402

IMPORT_S = time.perf_counter() - _start
SETUP_S = time.monotonic() - SPAWNED_AT

if not os.path.abspath(conekit.__file__).startswith(SRC + os.sep):
    sys.exit(f"perfbench: conekit was imported from {conekit.__file__}, not from {SRC}")


def main(argv) -> dict:
    from calib import Calibrator

    # Calibrate set-up with samples taken right after it; the machine's
    # speed changes on a scale of seconds, set-up takes about 0.1 s.
    probe = Calibrator()
    for _ in range(3):
        probe.sample()
    record = {"setup_s": SETUP_S * probe.factor(), "wall_setup_s": SETUP_S,
              "import_s": IMPORT_S * probe.factor()}
    if argv[0] == "probe":
        return record
    workload, seed, draw, run_id, spans_path = argv
    from tracer import Tracer
    from workloads import WORKLOADS, describe

    prepare, run = WORKLOADS[workload]
    prepared = prepare(int(seed), int(draw))
    tracer = Tracer() if spans_path != "-" else None
    if tracer is not None:
        tracer.install()

    with Calibrator() as calib:
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        verdicts = list(run(prepared))
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
    record["run_s"] = calib.seconds(wall0, wall1)
    record["cpu_s"] = (cpu1 - cpu0) * record["run_s"] / (wall1 - wall0)
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["wall_run_s"] = wall1 - wall0
    record["speed_factor"] = calib.factor()
    record["verdicts"] = [
        (label, None if start is None else calib.seconds(start, end), error)
        for label, start, end, error in verdicts
    ]
    record["inputs"] = describe(prepared)
    if tracer is not None:
        layers = tracer.metrics(calib.seconds)
        layers["cli.import_s"] = record["import_s"]
        layers["cli.stdout_bytes"] = prepared.get("stdout_bytes", 0)
        times = {label: seconds for label, seconds, _ in record["verdicts"]}
        for number, *_ in conekit.certify.CRITERIA:
            key = f"criterion_{number:02d}"
            layers[f"certify.{key}_s"] = times.get(key, 0.0)
        layers["bench.wall_run_s"] = record["wall_run_s"]
        layers["bench.speed_factor"] = record["speed_factor"]
        record["layers"] = layers
        with open(spans_path, "w") as fh:
            json.dump({"run_id": int(run_id), "fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans, "samples": [calib.starts, calib.ends]}, fh)
    return record


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[2:])))
