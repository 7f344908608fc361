"""One benchmark sample, run in a fresh interpreter the way a CLI user pays
for it.

    python3 perfbench/child.py MODE CONFIG ANALYTIC_ONLY CSV_PATH SPANS_PATH

MODE is ``setup`` (import the package and load the config, then exit),
``sweep`` (also run the sweep and write the CSV into memory, untraced) or
``traced`` (the same sweep with every layer's public functions wrapped by
:mod:`tracer`).  The last line of standard output is a JSON object with
the CLOCK_MONOTONIC time at which the config was loaded, so the parent
can measure set-up from the moment it started this process.

The child also measures the host's speed, so that the parent can give
each sample at a fixed host speed: it times a fixed kernel
(:func:`probe_s`) back to back right after the config is loaded, for the
set-up sample, and every PROBE_PERIOD_S during an untraced sweep, for the
sweep.
"""

import os
import signal
import sys
import time


PROBE_PERIOD_S = 0.2    # wall time between two speed probes during a sweep
REFERENCE_PROBES = 60   # probes timed back to back after the config is loaded


def _clock_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _kernel() -> float:
    """A fixed piece of work that does not touch the package: Philox
    uniforms turned into Gamma variates and combined elementwise with
    numpy, the kind of work the Monte Carlo layer does, on four blocks of
    10,000 rows (about 1 MB)."""
    import numpy as np

    acc = 0.0
    for stream in range(4):
        bg = np.random.Philox(key=np.array([12345, stream], dtype=np.uint64))
        u = np.random.Generator(bg).random((10_000, 4))
        g = -np.log1p(-u).sum(axis=1)
        acc += float(np.minimum(g / (u[:, 0] + 1.0), 1.0 / (g + 0.5)).mean())
    return acc


def probe_s() -> float:
    """Seconds taken by one pass of the fixed kernel: 2 to 5 ms on a
    2-vCPU VM, depending on the host's load at that moment."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class SpeedProbe:
    """While active, times :func:`probe_s` from a SIGALRM handler every
    ``period`` seconds, so that the host's speed is sampled all through a
    sweep rather than only at its ends.  ``spent_s`` is the time the
    handler took, which the caller takes off the sweep's time."""

    def __init__(self, period: float):
        self.period = period
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_s())
        self.spent_s += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def reference_s() -> float:
    """Mean of REFERENCE_PROBES probes timed back to back, after one
    untimed pass that keeps one-time costs out of the timing."""
    _kernel()
    return sum(probe_s() for _ in range(REFERENCE_PROBES)) / REFERENCE_PROBES


def main(argv: list[str]) -> int:
    mode, cfg_path, analytic_only, csv_path, spans_path = argv
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    from cogrelay import cli, config  # the CLI entry point imports every layer

    if not cli.__file__.startswith(src + os.sep):
        print(f"cogrelay imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = missing = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        missing = tracer.install()

    cfg = config.load_config(cfg_path)
    loaded_ns = _clock_ns()
    out = {"loaded_ns": loaded_ns, "ref_s": reference_s()}
    if mode != "setup":
        import contextlib
        import io
        plan = cfg.sweeps["sweep"]
        probe = SpeedProbe(PROBE_PERIOD_S)
        t0 = time.perf_counter()
        # no probes in a traced sweep: they would show up in its spans
        with probe if tracer is None else contextlib.nullcontext():
            rows = cli.run_sweep(plan, cfg, analytic_only=analytic_only == "1")
            buf = io.StringIO()
            cli.write_csv(rows, buf)
        sweep_s = time.perf_counter() - t0 - probe.spent_s
        out["probe_s"] = probe.samples or [probe_s()]

        import hashlib
        data = buf.getvalue().encode("utf-8")
        with open(csv_path, "wb") as fh:
            fh.write(data)
        out.update(sweep_s=sweep_s, rows=len(rows),
                   sha256=hashlib.sha256(data).hexdigest())
        if tracer is not None:
            tracer.dump(spans_path)
            out["missing"] = missing

    import json
    import resource
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
