"""Seeded end-to-end benchmark of `rootsos certify` and `rootsos verify`.

Run from the repository root:

    python3 bench/run.py --workload dense_sqf --seed 1 --seconds 20 --trace 0

One client drives `rootsos.cli.main` in-process in a closed loop: an
instance is certified, its certificate verified, and only then does the next
instance start, so argument parsing, serialization and file I/O are timed as
users run them.  The workload's instance set (see workloads.py) is made from
the seed and cycled until the time is up; the first pass always completes.
Every exit code is compared with the verdict known from the construction,
and every certificate is re-checked by checker.py, which shares no code with
rootsos.

--trace 0 reports the end-to-end metrics.  --trace 1 runs every instance
twice, untraced and traced (alternating which goes first), reports the
per-layer metrics of the traced calls and the tracing overhead, and writes
the spans to bench/out/.  A human-readable report precedes the last line of
output, which is one JSON object with the keys correct, attempted, failed
and metrics.  Exit status: 0 with a result, 1 when the sources or the
arguments are missing, 3 when the checker rejected a certificate.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checker
import spans
import speed
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 6  # before the timed loop and again after it
PROBE_EVERY_S = 1.0  # at most one speed probe a second, before an instance
DETERMINISM_SUBSET = 2  # the first instances of the set, certified once more
WARMUP = ("x^3 - 2", "x")


@dataclass
class Outcome:
    code: int | None
    certify_s: float
    verify_s: float | None = None
    text: str | None = None
    error: str | None = None


# -- running one instance ------------------------------------------------


def _call(cli, argv, tracer=None, phase=""):
    """Exit code, wall time from argv to exit code, captured output."""
    log = io.StringIO()
    code = None
    if tracer is not None:
        tracer.phase = phase
        tracer.install()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        root = tracer.open("cli.main") if tracer is not None else None
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a traceback is a failed instance, never a crash
            traceback.print_exc(limit=-2)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(root)
    if tracer is not None:
        tracer.uninstall()
    return code, elapsed, log.getvalue()


def _last_line(log: str) -> str:
    lines = log.strip().splitlines()
    return lines[-1] if lines else ""


def run_instance(cli, inst, path: Path, tracer=None) -> Outcome:
    if tracer is not None:
        tracer.instance = inst.id
    with contextlib.suppress(FileNotFoundError):
        path.unlink()
    argv = ["certify", "--f", inst.f_expr, "--g", inst.g_expr, "--out", str(path)]
    code, certify_s, log = _call(cli, argv, tracer, "certify")
    out = Outcome(code, certify_s)
    if code != inst.expect:
        out.error = f"certify exit {code}, expected {inst.expect}: {_last_line(log)}"
        return out
    if code != workloads.EXIT_OK:
        return out
    try:
        out.text = path.read_text(encoding="utf-8")
    except OSError as exc:
        out.error = f"exit 0 but no certificate: {exc}"
        return out
    code, out.verify_s, log = _call(cli, ["verify", "--cert", str(path)], tracer, "verify")
    if code != 0:
        out.error = f"verify exit {code}: {_last_line(log)}"
    return out


# -- statistics ------------------------------------------------------------


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def time_setup(runs: int) -> list[float]:
    """Wall times of fresh interpreters that import rootsos and rootsos.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import rootsos, rootsos.cli"]
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def environment() -> dict:
    import mpmath

    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "rootsos").glob("*.py")))
    return {
        "src_lines": src_lines,
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }


# -- the timed loop --------------------------------------------------------


class Run:
    """State of one benchmark run over a cycled instance set."""

    def __init__(self, cli, instances, workdir: Path):
        self.cli = cli
        self.instances = instances
        self.workdir = workdir
        self.first: dict[int, Outcome] = {}
        self.failures: list[tuple[str, str]] = []
        # (instance, certify seconds, verify seconds or None, last probe before)
        self.samples: list[tuple[int, float, float | None, int | None]] = []
        self.probes: list[float] = []
        self._probed_at = -PROBE_EVERY_S
        self.soundness_breach = False

    def record(self, index: int, out: Outcome, probe: int | None = None) -> None:
        inst = self.instances[index]
        self.samples.append((index, out.certify_s, out.verify_s, probe))
        if out.error:
            self.failures.append((inst.id, out.error))
        first = self.first.setdefault(index, out)
        if first is not out and (first.code, first.text) != (out.code, out.text):
            self.failures.append((inst.id, "output differs from the first certify"))

    def probe(self, force: bool = False) -> int:
        """Time the speed probe if PROBE_EVERY_S have passed since the last
        one (or when forced); return the index of the latest probe."""
        if force or time.perf_counter() - self._probed_at >= PROBE_EVERY_S:
            self.probes.append(speed.probe())
            self._probed_at = time.perf_counter()
        return len(self.probes) - 1

    def scaled_samples(self, scaled: bool):
        """(instance, certify s, verify s or None), measured or rescaled to
        the probe's reference speed by the median of the probes around."""
        for index, c, v, p in self.samples:
            factor = 1.0
            if scaled:
                factor = speed.REFERENCE_S / statistics.median(self.probes[max(0, p - 2):p + 4])
            yield index, c * factor, (None if v is None else v * factor)

    def per_instance(self, scaled: bool) -> tuple[list[float], list[float]]:
        """Per instance, the median certify and verify time over its repeats."""
        certify: dict[int, list[float]] = {}
        verify: dict[int, list[float]] = {}
        for index, c, v in self.scaled_samples(scaled):
            certify.setdefault(index, []).append(c)
            if v is not None:
                verify.setdefault(index, []).append(v)
        return ([statistics.median(x) for _i, x in sorted(certify.items())],
                [statistics.median(x) for _i, x in sorted(verify.items())])

    def path(self, index: int) -> Path:
        return self.workdir / f"{index}.json"

    def loop(self, seconds: float, step) -> tuple[float, int]:
        """Call step(index, pass_number) over whole passes of the instance
        set, as many as fit in the given seconds (at least one): a pass is
        not started when the mean pass so far would end past the deadline.
        Whole passes give every instance the same weight in the percentiles.
        Returns the elapsed time and the number of passes."""
        start = time.perf_counter()
        passes = 0
        while True:
            for index in range(len(self.instances)):
                step(index, passes)
            passes += 1
            elapsed = time.perf_counter() - start
            if elapsed * (passes + 1) / passes > seconds:
                return elapsed, passes

    def check_determinism(self) -> None:
        for index in range(min(DETERMINISM_SUBSET, len(self.instances))):
            out = run_instance(self.cli, self.instances[index], self.path(index))
            first = self.first[index]
            if (first.code, first.text) != (out.code, out.text):
                self.failures.append((self.instances[index].id,
                                      "certified twice, output differs"))

    def check_certificates(self) -> None:
        for index, out in sorted(self.first.items()):
            if out.text is None:
                continue
            inst = self.instances[index]
            reason = checker.check(out.text, inst.f, inst.g)
            if reason is not None:
                self.failures.append((inst.id, f"independent checker: {reason}"))
                self.soundness_breach = True

    def sha256(self) -> str:
        digest = hashlib.sha256()
        for index, out in sorted(self.first.items()):
            digest.update(f"{out.code}\n".encode())
            digest.update((out.text or "").encode())
        return digest.hexdigest()

    def certificates(self) -> list[str]:
        return [out.text for _i, out in sorted(self.first.items()) if out.text is not None]


def end_to_end(run: Run, setup: list[float]) -> dict:
    """End-to-end metrics.  Certify and verify times are rescaled to the
    probe's reference speed; setup_s is not, because starting a process did
    not follow the probe's drift."""
    certs = run.certificates()
    certify, verify = run.per_instance(scaled=True)
    # every workload emits certificates; the zero only stands in for a run
    # whose failures already make it incorrect
    verify = verify or [0.0]
    busy = sum(c + (v or 0.0) for _i, c, v in run.scaled_samples(scaled=True))
    return {
        "certify_s.p50": (statistics.median(certify), "s"),
        "certify_s.p90": (p90(certify), "s"),
        "verify_s.p50": (statistics.median(verify), "s"),
        "verify_s.p90": (p90(verify), "s"),
        "throughput_per_s": (len(run.samples) / busy, "1/s"),
        "cert_bytes": (sum(len(t.encode()) for t in certs), "bytes"),
        "cert_max_bits": (max((checker.max_bits(t) for t in certs), default=0), "bits"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# -- per-layer metrics from the spans ---------------------------------------

# every *_s is the self time of one span name, per certify call
SELF_TIME_METRICS = {
    "cli.parse_s": "cli.parse",
    "cli.self_s": "cli.cmd_certify",
    "lifting.reduce_s": "lifting.reduce",
    "lifting.hensel_s": "lifting.hensel",
    "lifting.crt_s": "lifting.crt",
    "lifting.self_s": "lifting.certify_nonnegative",
    "factorq.factor_s": "factorq.factor",
    "exactify.strict_s": "exactify.strict",
    "exactify.round_s": "exactify.round",
    "exactify.project_s": "exactify.project",
    "exactify.ldl_s": "exactify.ldl",
    "numeric.find_roots_s": "numeric.find_roots",
    "numeric.sturm_s": "numeric.sturm",
    "numeric.lagrange_s": "numeric.lagrange",
    "numeric.gram_s": "numeric.gram",
    "certificate.verify_s": "certificate.verify",
    "certificate.serialize_s": "certificate.serialize",
}

# per pass over the instance set
CALL_COUNTS = {
    "lifting.hensel_calls": "lifting.hensel",
    "exactify.strict_calls": "exactify.strict",
    "exactify.ldl_calls": "exactify.ldl",
    "numeric.find_roots_calls": "numeric.find_roots",
}


def per_layer(tracer: spans.Tracer, passes: int, n_instances: int, overhead: float):
    """Per-layer metrics and the self-time table of a traced run."""
    rows = tracer.spans
    counts = tracer.counts
    calls = passes * n_instances
    certify = tracer.self_times(lambda i: rows[i][5] == "certify")
    verify = tracer.self_times(lambda i: rows[i][5] == "verify")

    def named(name):
        return [(i, r) for i, r in enumerate(rows) if r[0] == name and r[5] == "certify"]

    find_roots_per_strict: dict[int, int] = {}
    for _i, r in named("numeric.find_roots"):
        if rows[r[3]][0] == "exactify.strict":
            find_roots_per_strict[r[3]] = find_roots_per_strict.get(r[3], 0) + 1
    ldl = named("exactify.ldl")
    repeat_ldl_s = sum(r[2] - r[1] for _i, r in ldl if rows[r[3]][0] == "exactify.gram_to_sos")
    factor_info = [r[6] for _i, r in named("factorq.factor") if r[6] is not None]

    metrics = {key: (certify.get(name, 0.0) / calls, "s")
               for key, name in SELF_TIME_METRICS.items()}
    metrics.update({key: (len(named(name)) / passes, "count")
                    for key, name in CALL_COUNTS.items()})
    metrics.update({
        "exactify.retries": (sum(max(0, c - 1) for c in find_roots_per_strict.values())
                             / passes, "count"),
        "exactify.ldl_pd_ratio": (sum(1 for _i, r in ldl if r[6]) / len(ldl) if ldl else 0.0,
                                  "ratio"),
        "exactify.ldl_repeat_s": (repeat_ldl_s / calls, "s"),
        "exactify.digits_max": (max((r[6] for _i, r in named("exactify.round")
                                     if r[6] is not None), default=0), "digits"),
        "numeric.bits_max": (max((r[6] for _i, r in named("numeric.find_roots")
                                  if r[6] is not None), default=0), "bits"),
        "factorq.factors": (sum(n for n, _d in factor_info) / passes, "count"),
        "factorq.deg_max": (max((d for _n, d in factor_info), default=0), "degree"),
        "certificate.deserialize_s": (verify.get("certificate.deserialize", 0.0) / calls, "s"),
        "ratpoly.mul_calls": (counts.get("mul", 0) / passes, "count"),
        "ratpoly.divmod_calls": (counts.get("divmod", 0) / passes, "count"),
        "ratpoly.xgcd_calls": (counts.get("xgcd", 0) / passes, "count"),
        "ratpoly.mul_s": (tracer.mul_s / calls, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    total = sum(certify.values())
    table = sorted(((name, s / calls, s / total if total else 0.0)
                    for name, s in certify.items()), key=lambda row: -row[1])
    return metrics, table, total / calls


# -- reporting ---------------------------------------------------------------


def report(args, env, run: Run, metrics: dict, sha: str, extra: list[str]) -> None:
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"instances per pass {len(run.instances)}, certify calls {len(run.samples)}, "
          f"verify calls {sum(1 for _i, _c, v, _p in run.samples if v is not None)}")
    failed_frac = len(run.failures) / len(run.samples)
    print(f"failed_frac = {failed_frac} ({len(run.failures)} of {len(run.samples)})")
    for iid, reason in run.failures:
        print(f"  FAILED {iid}: {reason}")
    print(f"certificates sha256 (first pass, instance order) {sha}")
    for line in extra:
        print(line)
    width = max(len(k) for k in metrics)
    for key, (value, unit) in metrics.items():
        print(f"  {key:<{width}}  {value:.6g} {unit}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rootsos" / "__init__.py").is_file():
        print(f"error: the rootsos sources are missing ({SRC / 'rootsos'})", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import rootsos.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: rootsos was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 1

    setup = []
    if not args.trace:
        time_setup(1)  # writes the bytecode caches, as a first installed run does
        setup = time_setup(SETUP_REPEATS)
    env = environment()
    instances = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        run = Run(cli, instances, workdir)
        warm = workloads.Instance("warmup", *WARMUP, (), (), workloads.EXIT_OK)
        run_instance(cli, warm, workdir / "warmup.json")
        extra: list[str] = []
        if not args.trace:
            def step(index, _pass_number):
                probe = run.probe()
                run.record(index, run_instance(cli, instances[index], run.path(index)), probe)

            elapsed, passes = run.loop(args.seconds, step)
            run.probe(force=True)
            metrics = None
        else:
            tracer = spans.Tracer()
            pairs = [0.0, 0.0]  # untraced, traced: certify + verify seconds

            def step(index, pass_number):
                order = (False, True) if pass_number % 2 == 0 else (True, False)
                for traced in order:
                    out = run_instance(cli, instances[index], run.path(index),
                                       tracer if traced else None)
                    pairs[traced] += out.certify_s + (out.verify_s or 0.0)
                    if traced:
                        run.record(index, out)
                    elif out.error:
                        run.failures.append((instances[index].id, "untraced: " + out.error))

            elapsed, passes = run.loop(args.seconds, step)
            overhead = pairs[1] / pairs[0] - 1
            metrics, table, traced_s = per_layer(tracer, passes, len(instances), overhead)
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            extra.append(f"traced certify time per call {traced_s:.6g} s over "
                         f"{passes} passes; spans in {spans_path.relative_to(ROOT)}")
            extra.append("self time per certify call by span (share of traced certify time):")
            extra += [f"  {name:<30} {s:10.6f} s  {share:6.1%}" for name, s, share in table]
            by_layer: dict[str, float] = {}
            for name, s, share in table:
                by_layer[name.split(".")[0]] = by_layer.get(name.split(".")[0], 0.0) + share
            extra.append("by layer: " + ", ".join(
                f"{layer} {share:.1%}" for layer, share in
                sorted(by_layer.items(), key=lambda kv: -kv[1])))
            extra.append(
                "known wasted work: the second LDL^T in gram_to_sos takes "
                f"{metrics['exactify.ldl_repeat_s'][0]:.6g} s per call")

        run.check_determinism()
        run.check_certificates()
        sha = run.sha256()
        if metrics is None:
            setup += time_setup(SETUP_REPEATS)
            metrics = end_to_end(run, setup)
            certify, verify = run.per_instance(scaled=False)
            extra.append(f"{passes} passes in {elapsed:.3f} s; percentiles over "
                         f"{len(certify)} instances (certify) and {len(verify)} certificates "
                         f"(verify), each the median of its {passes} repeats")
            extra.append(
                f"speed probe median {statistics.median(run.probes):.6g} s against "
                f"{speed.REFERENCE_S} s at reference; measured, unscaled: certify p50 "
                f"{statistics.median(certify):.6g} s, p90 {p90(certify):.6g} s, verify p50 "
                f"{statistics.median(verify or [0.0]):.6g} s, p90 {p90(verify or [0.0]):.6g} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(args, env, run, metrics, sha, extra)
    result = {
        "correct": not run.failures,
        "attempted": len(run.samples),
        "failed": min(len(run.failures), len(run.samples)),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, sha256=sha,
                  failures=[{"id": i, "reason": r} for i, r in run.failures])
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 3 if run.soundness_breach else 0


if __name__ == "__main__":
    sys.exit(main())
