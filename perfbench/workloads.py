"""The four benchmark workloads.

Each workload is built from a seed (its inputs) and a scratch directory,
and `run_pass` performs one pass: the calls into qdesign whose wall time
is measured, with every output checked against a pinned, seed-independent
expected value.  `setup_fields` and `setup_extensions` are the field
tables the set-up timing builds; `required_layers` are the per-layer
metrics a traced run must find nonzero.  Why each workload exists is in
README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from pathlib import Path

from qdesign import cli
from qdesign import counting as K
from qdesign import designs as D
from qdesign import linear as L
from qdesign import zoo as Z
from qdesign.fields import field_make

from monomial import Monomial


class Checks:
    """Counts checks; a wrong value, exception or exit code is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, name, got, want):
        self.attempted += 1
        if got != want:
            self.failed += 1
            self.messages.append(f"{name}: got {got!r}, want {want!r}")

    def error(self, name, exc):
        self.attempted += 1
        self.failed += 1
        self.messages.append(f"{name}: {type(exc).__name__}: {exc}")


def _lam(chk):
    return chk.lam if chk.ok else None


def _run_cli(argv) -> int:
    """`qdesign ARGV` in-process, its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def _relabel(fam, mono):
    return D.BlockFamily(fam.field, fam.n, fam.w, mono.apply(fam.blocks), source=fam.source)


def _support_family(bs, mono):
    """Block set as a GF(2) family on the 33 norm-one points, points permuted."""
    fam = K.blocks_as_family(bs)
    return D.BlockFamily(fam.field, fam.n, fam.w, fam.blocks[:, mono.perm], source=fam.source)


class TraceQ32:
    """The `reproduce trace` claims on the [33,6,27]_32 trace code at full
    size (1,014,816 and 1,268,520 blocks), with the q-ary check at t=1; the
    t=2 check takes 30-40 s and does not fit a run."""

    setup_fields = (32,)
    setup_extensions = (32,)
    required_layers = (
        "designs.qary_design_index.s", "designs.qary_design_index.calls",
        "designs.qary_design_index.work", "designs.qary_design_index.rate",
        "designs.classical_design_index.s", "designs.classical_design_index.work",
        "designs.classical_design_index.rate", "designs.fixed_support_index.s",
        "designs.support_multiplicity.s", "zoo.trace_family.s", "counting.block_sets.s",
        "fields.field_make.s", "fields.quadratic_extension.s")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def run_pass(self, checks: Checks) -> dict:
        mono = Monomial.from_seed(field_make(32), 33, self.seed)
        t27 = Z.trace_min_weight_family(5)
        t28 = Z.trace_next_weight_family(5)
        f27, f28 = _relabel(t27.family, mono), _relabel(t28.family, mono)
        checks.expect("blocks63-count", len(t27.zero_sets), 32736)
        checks.expect("blocks63-design", _lam(D.classical_design_index(
            _support_family(t27.zero_sets, mono), 4)), 12)
        checks.expect("blocks53-count", len(t28.zero_sets), 40920)
        checks.expect("blocks53-design", _lam(D.classical_design_index(
            _support_family(t28.zero_sets, mono), 4)), 5)
        checks.expect("blocks53-unique-base", set(t28.zero_sets.base_counts.tolist()), {1})
        checks.expect("trace-A27-count", len(f27), 1014816)
        checks.expect("trace-A27-fixed", _lam(D.fixed_support_index(f27, 2, (0, 1))), 702)
        sm = D.support_multiplicity(f27)
        checks.expect("trace-A27-multiplicity", sm.multiplicity if sm.ok else None, 31)
        checks.expect("trace-A27-t1", _lam(D.qary_design_index(f27, 1)), 26784)
        checks.expect("trace-A28-count", len(f28), 1268520)
        checks.expect("trace-A28-fixed", _lam(D.fixed_support_index(f28, 2, (0, 1))), 945)
        checks.expect("trace-A28-t1", _lam(D.qary_design_index(f28, 1)), 34720)
        return {}


# length -> (weight counts, {w: q-ary 3-design index}, {w: classical (t, index)})
PLESS = {
    12: ({6: 264, 9: 440, 12: 24},
         {6: 3, 9: 21, 12: 3},
         {6: (5, 1), 9: (5, 35), 12: (5, 1)}),
    24: ({9: 4048, 12: 61824, 15: 242880, 18: 198352, 21: 24288, 24: 48},
         {9: 21, 12: 840},
         {9: (5, 6), 12: (5, 576)}),
}


class PlessQ3:
    """The `reproduce pless` claims; at length 24 the design checks run on
    weights 9 and 12 only (15 and 18 take about 45 s together)."""

    setup_fields = (3,)
    setup_extensions = ()
    required_layers = (
        "designs.qary_design_index.s", "designs.qary_design_index.work",
        "designs.qary_design_index.rate", "designs.classical_design_index.s",
        "designs.classical_design_index.work", "designs.classical_design_index.rate",
        "designs.family_from_code.self_s", "zoo.build.s", "linear.dual.s",
        "linear.codewords_of_weight.s", "linear.codewords_of_weight.yield",
        "linear.weight_distribution.s", "linear.codewords", "fields.field_make.s")

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def run_pass(self, checks: Checks) -> dict:
        for n, (counts, qary, classical) in PLESS.items():
            P = Z.pless_symmetry_code(n)
            mono = Monomial.from_seed(P.field, n, self.seed)
            C = L.code_from_generator(P.field, mono.apply(P.gen))
            prof = L.code_profile(C)
            checks.expect(f"pless{n}-enumerator",
                          {i: c for i, c in enumerate(prof.counts) if c and i}, counts)
            checks.expect(f"pless{n}-self-dual",
                          (L.same_code(C, L.dual(C)), prof.divisor), (True, 3))
            for w, count in counts.items():
                fam = D.family_from_code(C, w)
                checks.expect(f"pless{n}-A{w}-count", len(fam), count)
                if w in qary:
                    checks.expect(f"pless{n}-A{w}", _lam(D.qary_design_index(fam, 3)), qary[w])
                    t, lam = classical[w]
                    checks.expect(f"pless{n}-B{w}",
                                  _lam(D.classical_design_index(fam, t)), lam)
        return {}


# suite -> (results_digest of `reproduce SUITE --out`, PASS count)
SMALL_SUITES = {
    "golay": ("7a549f94f5329740ca21aaa96e7170426dc9408af8c6ee41ea4bc7080336ee53", 14),
    "two-weight": ("7e2395be1b2b3e5759bfb33321e7fa4c6e98561bbdffa5dc9a6b5d621dd97777", 30),
    "drs": ("2675ac3b5bd9a29298e502656fa55f9824f52e1c245073eca7426b83fdd78c36", 14),
}


class SmallCodes:
    """`qdesign reproduce golay | two-weight | drs`.  The claims name
    coordinates (puncture at 0, fixed positions), so the seed is unused."""

    setup_fields = (3, 4, 5, 7, 8, 9, 11, 13, 16)
    setup_extensions = ()
    required_layers = (
        "linear.covering_radius.s", "linear.codewords_of_weight.s",
        "linear.codewords_of_weight.yield", "linear.dual.s", "criteria.s",
        "designs.qary_design_index.s", "designs.fixed_support_index.s",
        "designs.family_from_code.self_s", "zoo.build.s", "suites.self_s", "cli.self_s",
        "fields.field_make.s")

    def __init__(self, seed: int, workdir: Path):
        self.out = workdir / "report.json"

    def run_pass(self, checks: Checks) -> dict:
        for suite, (digest, passed) in SMALL_SUITES.items():
            rc = _run_cli(["--threads", "1", "reproduce", suite, "--out", str(self.out)])
            checks.expect(f"{suite}-exit", rc, 0)
            report = json.loads(self.out.read_text())
            checks.expect(f"{suite}-digest", report["manifest"]["results_digest"], digest)
            checks.expect(f"{suite}-summary", report["results"]["summary"],
                          {"PASS": passed, "FAIL": 0, "SKIP": 0})
        return {}


# (zoo id, parameters, results_digest of `profile --file`)
ENUM_CODES = (
    ("trace123", {"m": 4},
     "72809ad6fdbcae1ed5b3bd4fd94a75082dfe19e014a032de24f1028777cb3cab"),
    ("drs", {"q": 25, "k": 5},
     "76f286f7b8e6d4be3d49a98a2c5773f81411c5c1f9d7e60fea24694978d9cf1d"),
)


class Enumerate:
    """`qdesign profile --file` at 1 and 2 worker threads on [17,6]_16 (16^6
    codewords, addition by XOR) and [26,5]_25 (25^5, addition by table)."""

    setup_fields = (16, 25)
    setup_extensions = ()
    required_layers = (
        "linear.weight_distribution.s", "linear.codewords",
        "linear.weight_distribution.speedup_2w", "mcw_per_s", "mcw_per_s_2w",
        "cli.self_s", "fields.field_make.s")

    def __init__(self, seed: int, workdir: Path):
        self.out = {1: workdir / "profile-1.json", 2: workdir / "profile-2.json"}
        self.inputs = []
        for key, params, digest in ENUM_CODES:
            C = Z.zoo_build(key, **params)
            gen = Monomial.from_seed(C.field, C.n, seed).apply(C.gen)
            path = workdir / f"{key}.txt"
            rows = "".join(" ".join(map(str, r)) + "\n" for r in gen.tolist())
            path.write_text(f"{C.field.q} {C.n} {C.k}\n{rows}")
            self.inputs.append((key, path, C.size, digest))
        self.codewords = sum(size for _, _, size, _ in self.inputs)

    def run_pass(self, checks: Checks) -> dict:
        seconds = {1: 0.0, 2: 0.0}
        for key, path, size, digest in self.inputs:
            for threads in (1, 2):
                t0 = time.perf_counter()
                rc = _run_cli(["--threads", str(threads), "profile", "--file", str(path),
                               "--out", str(self.out[threads])])
                seconds[threads] += time.perf_counter() - t0
                checks.expect(f"{key}-exit-{threads}w", rc, 0)
            one, two = (self.out[t].read_bytes() for t in (1, 2))
            checks.expect(f"{key}-1w-2w-identical", one == two, True)
            report = json.loads(one)
            checks.expect(f"{key}-digest", report["manifest"]["results_digest"], digest)
            checks.expect(f"{key}-codewords", sum(map(int, report["results"]["profile"]
                                                      ["counts"].values())), size)
        return {"mcw_per_s": self.codewords / seconds[1] / 1e6,
                "mcw_per_s_2w": self.codewords / seconds[2] / 1e6}


WORKLOADS = {
    "trace-q32": TraceQ32,
    "pless-q3": PlessQ3,
    "small-codes": SmallCodes,
    "enumerate": Enumerate,
}
