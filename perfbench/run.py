"""End-to-end benchmark of the hyperdet command line.

    python3 perfbench/run.py --workload hv-d4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  For every generated input the run
calls ``check``, ``certify`` and ``verify`` (on the emitted file) through
``hyperdet.cli.main(argv)`` in this one process, closed loop: one caller,
the next operation starts when the previous returns.  Outputs are checked
outside the timed spans.  With ``--trace 1`` the corpus runs once untraced
and once more with every layer wrapped (see layers.py), and the per-layer
metrics are printed instead.  The last line of stdout is one JSON object;
the exit code is 1 when an output check fails or an unknown failure occurs,
2 when the package cannot be found.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One BLAS thread, at most nproc: steadier timings on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import corpus  # noqa: E402
from layers import Tracer  # noqa: E402

# An operation shorter than MIN_OP_S repeats back to back within a pass,
# at most MAX_REPS times, until its samples add up to MIN_OP_S.  Some
# workloads make a single pass in --seconds; without this their short
# operations get one sample each (over five seeds, a single 20 ms verify
# spread by 43% without it and by 16% with it).
MIN_OP_S = 0.25
MAX_REPS = 10
# Set-up runs several times and setup_s takes the median, so one stall in
# a set-up does not decide the figure.
SETUP_REPS = 5
OPS = ("check", "certify", "verify")

# Per-operation alarm, about twice the slowest operation that completes
# today on one core (a 3-variable degree-4 certify at ell=0, 4-8 s).  Inputs
# whose search escalates further run for minutes; the fixed pools hold none,
# and an overrun is a failed operation that makes the run incorrect.
BUDGET_S = 15.0

# Fixed exact-rational work, timed before every operation outside its span.
# On a shared machine the speed of one core drifts between windows of
# seconds, and hyperdet, whose time goes mostly to Fraction arithmetic,
# drifts with this work, but by less: in log terms about half as much.
# Alternating this reference with a 1 s certify for 110 s on a 2-core
# Xeon VM, the certify's own spread (stdev over mean) was 11% raw, 17%
# divided by the reference and 9% divided by its square root.  So every
# time figure is scaled by the square root of REFERENCE_S / host_speed.  Each
# point takes the median of three timings, which drops one-off stalls such
# as a garbage collection.
_REFERENCE_ROWS = [Fraction(random.Random(i).randint(1, 10**12), random.Random(-i).randint(1, 10**12))
                   for i in range(64)]
REFERENCE_S = 0.002
SPEED_EXPONENT = 0.5

END_TO_END = (
    ("setup_s", "s"), ("check_wall_s", "s"), ("certify_wall_s", "s"),
    ("verify_wall_s", "s"), ("certified", "count"), ("cert_bytes", "bytes"),
    ("cert_max_bits", "bits"), ("peak_rss_mb", "MB"),
)


class BudgetExceeded(BaseException):
    """Raised by the alarm; a BaseException so no handler in the program eats it."""


def _alarm(signum, frame):
    raise BudgetExceeded()


def reference() -> float:
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = Fraction(0)
        for a in _REFERENCE_ROWS:
            for b in _REFERENCE_ROWS[:10]:
                acc += a * b
        times.append(perf_counter() - start)
    return statistics.median(times)


def host_speed(points: list[float]) -> float:
    """Mean reference time over the run, the slowest and fastest tenth left out.

    A mean follows the share of time the core spent fast or slow, where a
    median would jump between the two; trimming drops stalls that outlast
    a point.
    """
    cut = len(points) // 10
    return statistics.fmean(sorted(points)[cut:len(points) - cut])


@dataclass
class Op:
    """One (input, command) pair of the corpus and everything measured about it."""

    case: corpus.Case
    command: str
    argv: list[str]
    times: list[float] = field(default_factory=list)
    exit_code: int | None = None
    error: str | None = None
    where: str | None = None
    known: str | None = None
    problems: list[str] = field(default_factory=list)
    sha256: str | None = None

    @property
    def name(self) -> str:
        return f"{self.case.name} {self.command}"


def call_cli(cli, argv: list[str]):
    """Time one cli.main call under the budget: (wall, exit, stdout, error, where)."""
    out, err = io.StringIO(), io.StringIO()
    code = error = where = None
    signal.setitimer(signal.ITIMER_REAL, BUDGET_S)
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except BudgetExceeded:
        error = f"{checks.OVERRUN} after {BUDGET_S:g} s"
    except Exception as exc:  # a traceback the user would see: record it by name
        error = f"{type(exc).__name__}: {str(exc)[:160]}"
        package = Path(cli.__file__).resolve().parent
        frames = [f for f in traceback.extract_tb(exc.__traceback__)
                  if Path(f.filename).resolve().parent == package]
        if frames:
            where = f"{Path(frames[-1].filename).stem}.{frames[-1].name}"
    finally:
        wall = perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
    return wall, code, out.getvalue(), error, where


class Runner:
    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.tracer: Tracer | None = None
        self.references: list[float] = []

    def ops_for(self, case: corpus.Case) -> list[Op]:
        source = [f"--poly={case.poly}", f"--e={case.e}"]
        cert = str(self.workdir / f"{case.name}.json")
        return [
            Op(case, "check", ["check"] + source),
            Op(case, "certify", ["certify"] + source + ["--output", cert]),
            Op(case, "verify", ["verify", "--cert", cert]),
        ]

    def run_pass(self, groups: list[list[Op]]) -> None:
        for check_op, certify_op, verify_op in groups:
            self.run_op(check_op)
            self.run_op(certify_op)
            if certify_op.exit_code == 0 and certify_op.error is None:
                self.run_op(verify_op)

    def run_op(self, op: Op) -> None:
        """Time one operation and check what it returned, outside the timing.

        An operation that raised runs again in later passes, like any other;
        one that overran its budget does not.
        """
        if op.error is not None and op.error.startswith(checks.OVERRUN):
            return
        self.references.append(reference())
        spent = 0.0
        for _ in range(MAX_REPS):
            if self.tracer is not None:
                self.tracer.op_id = op.name
            wall, code, stdout, error, where = call_cli(self.cli, op.argv)
            op.times.append(wall)
            spent += wall
            if error is not None:
                if op.error is None and op.exit_code is None:
                    op.error, op.where = error, where
                    op.known = checks.known_defect(op.case.name, op.command, error)
                elif error != op.error:
                    op.problems.append(f"failed differently on a repeat: {error}")
                return
            if op.error is not None:
                op.problems.append("completed on a repeat after failing")
                return
            if op.exit_code is None:
                op.exit_code = code
                self._check(op, stdout)
            elif code != op.exit_code:
                op.problems.append(f"exit {code} on a repeat, first run gave {op.exit_code}")
            if op.command == "certify" and code == 0:
                digest = hashlib.sha256(Path(op.argv[-1]).read_bytes()).hexdigest()
                if op.sha256 is None:
                    op.sha256 = digest
                elif digest != op.sha256:
                    op.problems.append("certificate bytes differ between identical runs")
            if spent >= MIN_OP_S or self.tracer is not None:
                return

    def _check(self, op: Op, stdout: str) -> None:
        family = op.case.family
        # cli.main reports some refusals only on stderr, with exit 1 and no
        # JSON; the outcome is then judged by the exit code alone.
        payload = json.loads(stdout) if stdout.strip() else {}
        if op.command == "check":
            status = payload.get("hyperbolicity", {}).get("status")
            why = checks.check_outcome(family, op.exit_code, status)
        elif op.command == "certify":
            why = checks.certify_outcome(family, op.exit_code)
        else:
            valid = op.exit_code == 0 and payload.get("valid") is True
            why = None if valid else f"emitted certificate did not verify (exit {op.exit_code})"
        if why:
            op.problems.append(why)

    def certificate_checks(self, op: Op) -> tuple[int, int]:
        """Check an emitted certificate; returns (bytes, max bits)."""
        path = Path(op.argv[-1])
        data = path.read_bytes()
        cert = json.loads(data)
        op.problems += checks.certificate_problems(cert, op.case)
        bad = path.with_name(path.stem + ".tampered.json")
        bad.write_text(json.dumps(checks.tampered(cert)), encoding="utf-8")
        _, code, _, error, _ = call_cli(self.cli, ["verify", "--cert", str(bad)])
        if code != 1 or error is not None:
            op.problems.append(f"tampered certificate: verify gave exit {code} {error or ''}".strip())
        return len(data), checks.certificate_bits(cert, op.case.nvars)


def summarize(groups: list[list[Op]], sizes: dict[str, tuple[int, int]]) -> dict[str, float]:
    walls = {command: sum(statistics.median(op.times) for group in groups for op in group
                          if op.command == command and op.times)
             for command in OPS}
    return {
        "check_wall_s": walls["check"],
        "certify_wall_s": walls["certify"],
        "verify_wall_s": walls["verify"],
        "certified": sum(1 for _, _, v in groups if v.exit_code == 0 and not v.problems),
        "cert_bytes": sum(b for b, _ in sizes.values()),
        "cert_max_bits": max((bits for _, bits in sizes.values()), default=0),
    }


def setup(workload: str, seed: int, cli, workdir: Path) -> tuple[list[corpus.Case], float]:
    """Generate the corpus and run one untimed warm-up input; returns (cases, seconds)."""
    start = perf_counter()
    cases = corpus.workload_cases(workload, seed)
    for op in Runner(cli, workdir).ops_for(corpus.warmup_case()):
        call_cli(cli, op.argv)
    return cases, perf_counter() - start


def measure(runner: Runner, cases: list[corpus.Case], seconds: float, trace: bool):
    """Run the corpus; returns (groups, certificate sizes, passes, traced groups)."""
    groups = [runner.ops_for(case) for case in cases]
    start = perf_counter()
    runner.run_pass(groups)
    last_pass = perf_counter() - start
    sizes = {op.case.name: runner.certificate_checks(op)
             for _, op, _ in groups if op.exit_code == 0 and op.error is None}
    passes = 1
    # Further passes while another fits in the time, so each operation's
    # samples spread over the run and its median is not one noisy moment.
    while not trace and perf_counter() - start + last_pass <= seconds:
        pass_start = perf_counter()
        runner.run_pass(groups)
        last_pass = perf_counter() - pass_start
        passes += 1
    if not trace:
        return groups, sizes, passes, None
    traced = [runner.ops_for(case) for case in cases]
    runner.tracer = Tracer()
    runner.tracer.install()
    try:
        runner.run_pass(traced)
    finally:
        runner.tracer.uninstall()
    for untimed, timed in zip(groups, traced):
        for a, b in zip(untimed, timed):
            if (a.exit_code, a.error, a.sha256) != (b.exit_code, b.error, b.sha256):
                a.problems.append("traced run gave a different outcome or certificate")
            a.problems += b.problems
    return groups, sizes, passes, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hyperdet" / "__init__.py").is_file():
        print(f"error: no hyperdet package under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import_start = perf_counter()
    import hyperdet.cli as cli

    import_s = perf_counter() - import_start
    if Path(cli.__file__).resolve().parent != (src / "hyperdet").resolve():
        print(f"error: imported hyperdet from {cli.__file__}, not {src}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _alarm)

    label = f"{args.workload}-s{args.seed}" + ("-trace" if args.trace else "")
    outdir = ROOT / ".perfbench_out"
    workdir = outdir / f"{label}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [setup(args.workload, args.seed, cli, workdir) for _ in range(SETUP_REPS)]
        cases = setups[0][0]
        runner = Runner(cli, workdir)
        groups, sizes, passes, traced = measure(runner, cases, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir)
    raw = summarize(groups, sizes)
    raw["setup_s"] = import_s + statistics.median(s for _, s in setups)
    raw["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = (REFERENCE_S / host_speed(runner.references)) ** SPEED_EXPONENT
    metrics = {name: value * scale if name.endswith("_s") else value for name, value in raw.items()}

    ops = [op for group in groups for op in group if op.times]
    failed = [op for op in ops if op.error or op.problems]
    correct = all(op.known and not op.problems for op in failed)

    records = [{"op": op.name, "family": op.case.family, "exit": op.exit_code, "error": op.error,
                "where": op.where, "known_defect": op.known, "problems": op.problems,
                "times": op.times, "sha256": op.sha256} for op in ops]
    (outdir / f"{label}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "passes": passes, "metrics": metrics,
         "raw": raw, "scale": scale, "references": runner.references,
         "cases": [vars(c) for c in cases], "ops": records}, indent=1), encoding="utf-8")

    print(f"workload {args.workload} seed {args.seed}: {len(cases)} inputs, {len(ops)} ops, "
          f"{passes} pass(es); times scaled by {scale:.4f} (raw wall in parentheses)")
    for name, unit in END_TO_END:
        note = f"  ({raw[name]:.6g} {unit})" if name.endswith("_s") else ""
        print(f"  {name:<16} {metrics[name]:>14.6g} {unit}{note}")
    print(f"  {'ops_failed_frac':<16} {len(failed) / len(ops):>14.6g} ({len(failed)}/{len(ops)})")
    for op in failed:
        reason = op.error or "; ".join(op.problems)
        tag = f"known defect {op.known}" if op.known and not op.problems else "UNEXPECTED"
        print(f"  failed: {op.name}: {reason}" + (f" in {op.where}" if op.where else "") + f" [{tag}]")

    if args.trace:
        tracer = runner.tracer
        tracer.write(outdir / f"{label}.spans.jsonl")
        layer = {name: (value * scale if unit == "s" else value, unit)
                 for name, (value, unit) in tracer.layer_metrics().items()}
        traced_certify = summarize(traced, {})["certify_wall_s"]
        layer["trace.certify_overhead_s"] = ((traced_certify - raw["certify_wall_s"]) * scale, "s")
        layer["trace.absent_functions"] = (len(tracer.absent), "count")
        layer["run.certified"] = (metrics["certified"], "count")
        layer["run.ops_failed_frac"] = (len(failed) / len(ops), "ratio")
        for name in tracer.absent:
            print(f"  absent: {name}")
        for name in sorted(tracer.unobserved):
            print(f"  counts unreadable from the return value of {name}")
        reported = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({"correct": correct, "attempted": len(ops), "failed": len(failed),
                      "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
