"""The three benchmark workloads: input generators, timed passes, checks.

A pass is a fixed list of operations generated from (seed, pass index);
the same pair always gives the same list.  ``run_pass`` times every
operation and the whole pass, and only then checks the outputs, so
checking never counts as measured time.  The harmconv package is reached
through its public module attributes at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from harmconv import convo, geochk, harness  # noqa: E402
from harmconv.hmap import FAMILY_ALPHA_MAX, SlantParams  # noqa: E402

REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Verdict rows of one repro pass are checked against this file; a report
# whose bytes change between two passes of the same code is recorded here.
STATE_DIR = ROOT / ".perfbench_state"


@dataclass
class PassResult:
    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    info: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


# ---------------------------------------------------------------------------
# repro: the 11 default sweeps through harness.run, all three formats


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text())


def code_key() -> str:
    """Identifies the code under test: package sources plus numpy version."""
    h = hashlib.sha256(np.__version__.encode())
    for p in sorted((ROOT / "src" / "harmconv").glob("*.py")):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def check_repro_case(ref_case: dict, code, rows) -> tuple[int, int]:
    """(attempted, failed) rows of one case against its reference entry.

    A wrong exit code or a missing report fails every row of the case.
    """
    expected = ref_case["verdicts"]
    if rows is None or code != ref_case["exit_code"]:
        return len(expected), len(expected)
    got = {geochk.row_param_id(r): r["verdict"] for r in rows}
    extra = len(set(got) - set(expected))
    wrong = sum(1 for pid, v in expected.items() if got.get(pid) != v)
    return len(expected) + extra, wrong + extra


class Repro:
    name = "repro"
    # One pass takes 25-46 s on a 2-vCPU host; a second would double the run.
    min_passes = 1

    def __init__(self, reference: dict | None = None, state_dir: Path = STATE_DIR):
        self.reference = reference if reference is not None else load_reference()
        self.state_dir = state_dir
        self._digests: dict[str, str] = {}

    def inputs(self, seed: int, index: int) -> list[str]:
        """All cases, in an order shuffled by the seed."""
        order = list(geochk.CASE_IDS)
        _rng(self.name, seed, index).shuffle(order)
        return order

    def run_pass(self, cases: list[str], outdir: Path) -> PassResult:
        codes, latencies = {}, []
        t_pass = perf_counter()
        for case in cases:
            config = harness.RunConfig(case=case, outdir=str(outdir / case))
            t0 = perf_counter()
            try:
                codes[case] = harness.run(config)
            except Exception as exc:  # a crashing case fails all its rows
                codes[case] = f"{type(exc).__name__}: {exc}"
            latencies.append(perf_counter() - t0)
        wall = perf_counter() - t_pass

        attempted = failed = 0
        digests = {}
        for case in cases:
            report = outdir / case / "report.json"
            rows = None
            if report.is_file():
                data = report.read_bytes()
                digests[case] = hashlib.sha256(data).hexdigest()
                rows = json.loads(data)["rows"]
            a, f = check_repro_case(self.reference["cases"][case], codes[case], rows)
            if case in digests and self._digest_changed(case, digests[case]):
                f = a
            attempted += a
            failed += f
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            attempted=attempted,
            failed=failed,
            info={"exit_codes": codes, "report_sha256": dict(sorted(digests.items()))},
        )

    def _digest_changed(self, case: str, digest: str) -> bool:
        """True if an earlier pass of the same code wrote other bytes."""
        seen = self._digests.setdefault(case, digest)
        return seen != digest

    def load_state(self):
        """Digests recorded by earlier runs of the same code in this checkout."""
        path = self.state_dir / "report_digests.json"
        if path.is_file():
            self._digests = dict(json.loads(path.read_text()).get(code_key(), {}))

    def save_state(self):
        self.state_dir.mkdir(exist_ok=True)
        path = self.state_dir / "report_digests.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({code_key(): self._digests}, sort_keys=True))
        tmp.replace(path)


# ---------------------------------------------------------------------------
# certify-scan: closed-form dilatations straight into convo.certify_bounded


@dataclass(frozen=True)
class CertifyItem:
    family: str
    params: tuple
    rational: convo.RationalFunction


def _alpha_at(u: float) -> float:
    """The family parameter range [-FAMILY_ALPHA_MAX, FAMILY_ALPHA_MAX] at u in [0, 1)."""
    return FAMILY_ALPHA_MAX * (2.0 * u - 1.0)


def _monomial_item(u, k):
    n = 1 + k % 6
    sp = SlantParams(
        gamma=math.pi * (u(0) - 0.5), theta=2.0 * math.pi * u(1), n=n, a=-0.95 + 1.94 * u(2)
    )
    return CertifyItem("t2.2-monomial", (sp.gamma, sp.theta, n, sp.a),
                       convo.monomial_convolution_dilatation(sp))


def _quartic_item(u, k):
    """A quarter of the draws sit at a = 1 - 10**-e, e in [1, 7]."""
    a = 1.0 - 10.0 ** (-1.0 - 6.0 * u(1)) if k % 8 < 2 else 0.01 + 0.98 * u(0)
    if k % 2:
        return CertifyItem("t2.3-quartic", (a,), convo.even_mobius_convolution_dilatation(a))
    return CertifyItem("t2.4-quartic", (a,), convo.negated_square_convolution_dilatation(a))


_FAMILY_COMBOS = (
    ("t3.9-cubic", convo.opposed_monomial_cubic),
    ("t3.10-cubic", convo.adjacent_negative_cubic),
    ("t3.10-quartic", convo.adjacent_positive_quartic),
    ("t3.11-sextic", convo.quarter_power_sextic),
)


def _combo_item(u, k):
    label, build = _FAMILY_COMBOS[k % len(_FAMILY_COMBOS)]
    p = (_alpha_at(u(0)), _alpha_at(u(1)), u(2))
    return CertifyItem(label, p, build(*p))


_GENERIC_OMEGAS = (
    ("mobius", convo.mobius_power_dilatation),
    ("blaschke", convo.blaschke_power_dilatation),
)


def _generic_item(u, k):
    kind, omega_of = _GENERIC_OMEGAS[k % 2]
    b, theta, n = 0.05 + 0.9 * u(0), 2.0 * math.pi * u(1), 1 + (k // 4) % 3
    omega = omega_of(b, theta, n)
    if k % 4 < 2:
        a, gamma = 0.05 + 0.9 * u(2), 0.0 if k // 12 % 2 else 2.0 * u(3) - 1.0
        closed = convo.halfplane_convolution_dilatation(a, gamma, omega)
        closed = convo.cancel_unit_root(closed) or closed
        return CertifyItem(f"halfplane-{kind}", (a, gamma, b, theta, n), closed)
    return CertifyItem(f"strip-{kind}", (b, theta, n), convo.strip_convolution_dilatation(omega))


# Items per pass and family.  Discrete choices (family member, power n,
# target) cycle with the item index k.  Continuous parameters form a Latin
# hypercube: parameter j of item k lies in slice perm_j[k] of count equal
# slices of its range.  Every pass thus covers each range the same way,
# and pass times and latency quantiles (the p99 tail is a few expensive
# root-oracle fallbacks) compare across seeds.
CERTIFY_MIX = ((_monomial_item, 250), (_quartic_item, 250), (_combo_item, 250), (_generic_item, 250))
CERTIFY_PARAMS = 4  # continuous parameters per item, at most


def _latin(rng: random.Random, perms: list[list[int]], k: int, count: int):
    """u(j): parameter j of item k, uniform within its slice."""
    return lambda j: (perms[j][k] + rng.random()) / count
# Certified verdicts are re-checked by sampling |r| at this many points:
# half spread over the disk, half on radii in [0.99, 0.9999].
CHECK_POINTS = 48


def sample_points(rng: random.Random, count: int = CHECK_POINTS) -> np.ndarray:
    half = count // 2
    radii = [0.99 * math.sqrt(rng.random()) for _ in range(half)]
    radii += [1.0 - 10.0 ** (-rng.uniform(2.0, 4.0)) for _ in range(count - half)]
    angles = [rng.uniform(0.0, 2.0 * math.pi) for _ in range(count)]
    return np.asarray(radii) * np.exp(1j * np.asarray(angles))


# Failing items named in a pass's record, so a failure can be replayed.
FAILURES_SHOWN = 5


def _describe_failure(item: CertifyItem, report) -> dict:
    if isinstance(report, BaseException):
        outcome = f"{type(report).__name__}: {report}"
    else:
        outcome = f"{report.verdict} ({report.method}, grid_max={report.grid_max!r})"
    return {"family": item.family, "params": [repr(p) for p in item.params], "outcome": outcome}


def check_certificate(item: CertifyItem, report) -> bool:
    """False when the verdict contradicts sampled evidence or is malformed."""
    if isinstance(report, BaseException):
        return False
    if report.verdict == "certified":
        z = sample_points(random.Random(f"check:{item.family}:{item.params}"))
        values = np.abs(item.rational.num(z) / item.rational.den(z))
        return bool(np.all(values <= 1.0 + convo.GRID_ATOL))
    if report.verdict == "exceeds":
        return report.grid_max is not None and report.grid_max > 1.0
    return report.verdict == "indeterminate"


class CertifyScan:
    name = "certify-scan"
    min_passes = 2

    def inputs(self, seed: int, index: int) -> list[CertifyItem]:
        rng = _rng(self.name, seed, index)
        items = []
        for make, count in CERTIFY_MIX:
            perms = [rng.sample(range(count), count) for _ in range(CERTIFY_PARAMS)]
            items += [make(_latin(rng, perms, k, count), k) for k in range(count)]
        rng.shuffle(items)
        return items

    def run_pass(self, items: list[CertifyItem], outdir: Path) -> PassResult:
        reports, latencies = [], []
        t_pass = perf_counter()
        for item in items:
            t0 = perf_counter()
            try:
                reports.append(convo.certify_bounded(item.rational))
            except Exception as exc:
                reports.append(exc)
            latencies.append(perf_counter() - t0)
        wall = perf_counter() - t_pass

        bad = [(i, r) for i, r in zip(items, reports) if not check_certificate(i, r)]
        verdicts = Counter(
            type(r).__name__ if isinstance(r, BaseException) else r.verdict for r in reports
        )
        info = {"verdicts": dict(verdicts)}
        if bad:
            info["failures"] = [_describe_failure(i, r) for i, r in bad[:FAILURES_SHOWN]]
        return PassResult(wall, latencies, len(items), len(bad), info=info)


# ---------------------------------------------------------------------------
# verify-cli: small harmconv verify/explore calls through harness.main


# Each pass calls every case once per stratum.  An axis value is drawn
# inside one of CLI_STRATA equal slices of its range, and every slice is
# used once per pass, so the seed moves values within slices but every
# pass covers each range the same way.  Per-call cost depends strongly on
# where the parameters sit (how many curve-ladder rungs a row needs), and
# without strata the pass time would vary with the seed.
CLI_STRATA = 4


def _fmt(values) -> str:
    return ",".join(str(v) if isinstance(v, int) else f"{v:.6f}" for v in values)


def _span(lo, hi):
    return lambda u, rng: lo + (hi - lo) * u


def _pick(options):
    return lambda u, rng: options[int(u * len(options))]


def _ordered_pair(u, rng):
    return tuple(sorted((_alpha_at(u), _alpha_at(rng.random()))))


def _t310_pair(variant):
    if variant == 1:
        return _ordered_pair

    def same_sign_larger_first(u, rng):
        sign = -1.0 if u < 0.5 else 1.0
        big = 0.2 + (FAMILY_ALPHA_MAX - 0.2) * (2.0 * u % 1.0)
        return sign * big, sign * big * (0.02 + 0.88 * rng.random())

    return same_sign_larger_first


def _cli_axes(case: str, u: float) -> list[tuple[str, object, bool]]:
    """Per-case axes (option, sampler(u, rng), sweepable), inside each
    hypothesis range; u picks the values of axes that cannot be swept."""
    unit_t = _span(0.0, 1.0)
    if case == "t2.2":
        n = 1 + int(3 * u)
        lo = (n - 2.0) / (n + 2.0) + 1e-6
        return [("n", _pick((n,)), False), ("a", _span(lo, 0.95), True),
                ("theta", _span(0.0, 2.0 * math.pi), True)]
    if case in ("t2.3", "t2.4"):
        return [("a", _span(0.05, 0.95), True)]
    if case == "t2.5":
        return [("a", _span(-0.9, 0.9), True)]
    if case == "t3.8":
        return [("n", _pick((1, 2, 3)), True), ("alpha", lambda u, rng: _alpha_at(u), True),
                ("t", unit_t, True)]
    if case in ("t3.9", "t3.11"):
        ns = (1, 2) if case == "t3.9" else (2, 3)
        return [("n", _pick(ns), True), ("pair", _ordered_pair, True), ("t", unit_t, True)]
    if case == "t3.10":
        variant = 1 + int(2 * u)
        return [("n", _pick((1, 2)), True), ("variant", _pick((variant,)), False),
                ("pair", _t310_pair(variant), True), ("t", unit_t, True)]
    if case in ("oq1", "oq2"):
        return [("n", _pick((1, 2, 3, 4)), True), ("a", _span(0.1, 0.9), True),
                ("b", _span(0.1, 0.9), True)]
    if case == "oq3":
        return [("n", _pick((1, 2, 3)), True), ("a", _span(0.1, 0.9), True)]
    raise ValueError(f"no axes for case {case!r}")


def cli_argv(case: str, rng: random.Random, strata: list[int], turn: int) -> list[str]:
    """One verify/explore call.  Axis j draws from stratum strata[j]; one
    sweepable axis, picked by `turn`, gets 1 + turn % 3 values from strata
    spread evenly around its own."""
    verb = "explore" if case.startswith("oq") else "verify"
    axes = _cli_axes(case, (strata[-1] + rng.random()) / CLI_STRATA)
    sweepable = [j for j, axis in enumerate(axes) if axis[2]]
    wide, width = sweepable[2 * turn % len(sweepable)], 1 + turn % 3
    argv = [verb, case]
    for j, (opt, sample, _) in enumerate(axes):
        count = width if j == wide else 1
        picks = [(strata[j] + i * CLI_STRATA // count) % CLI_STRATA for i in range(count)]
        values = sorted({sample((p + rng.random()) / CLI_STRATA, rng) for p in picks})
        if opt == "pair":
            argv += [f"--alpha1={_fmt([v[0] for v in values])}",
                     f"--alpha2={_fmt([v[1] for v in values])}"]
        else:
            argv.append(f"--{opt}={_fmt(values)}")
    return argv


class VerifyCli:
    name = "verify-cli"
    min_passes = 2

    def inputs(self, seed: int, index: int) -> list[list[str]]:
        """CLI_STRATA calls per case; which axis is swept, and by how many
        values, cycles with the call so every pass has the same shape."""
        rng = _rng(self.name, seed, index)
        calls = []
        for k, case in enumerate(geochk.CASE_IDS):
            # a stratum permutation per axis (at most four), and one for
            # the values that stay fixed within a call
            perms = [rng.sample(range(CLI_STRATA), CLI_STRATA) for _ in range(5)]
            for s in range(CLI_STRATA):
                strata = [perm[s] for perm in perms]
                calls.append(cli_argv(case, rng, strata, s + k))
        rng.shuffle(calls)
        return calls

    def run_pass(self, calls: list[list[str]], outdir: Path) -> PassResult:
        codes, latencies = [], []
        errors = io.StringIO()
        t_pass = perf_counter()
        for k, argv in enumerate(calls):
            full = argv + [f"--outdir={outdir / str(k)}"]
            t0 = perf_counter()
            try:
                with contextlib.redirect_stderr(errors):
                    codes.append(harness.main(full))
            except SystemExit as exc:  # argparse rejected the call
                codes.append(f"SystemExit({exc.code})")
            except Exception as exc:
                codes.append(f"{type(exc).__name__}: {exc}")
            latencies.append(perf_counter() - t0)
        wall = perf_counter() - t_pass

        failed = sum(1 for c in codes if c not in (0, 3))
        info = {"exit_codes": dict(Counter(map(str, codes)))}
        if errors.getvalue():
            info["stderr"] = errors.getvalue()[-2000:]
        return PassResult(wall, latencies, len(calls), failed, info=info)


WORKLOADS = {w.name: w for w in (Repro, CertifyScan, VerifyCli)}


def clear(path: Path):
    shutil.rmtree(path, ignore_errors=True)
