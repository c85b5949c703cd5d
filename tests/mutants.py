"""Mutation check of the projective weight-class paths, the orbit check,
the scalar multiples and the listed orbit check, the block loop of the
codeword enumerator, the regularity scan, the verdict of the design
checks, the subfield embedding of the quadratic extension and the order
of the trace code's next-weight words.

Each mutant is one textual edit of a temporary copy of `src/`: two in
the projective paths (a shifted lead-one range, the scan without its
S[0] = 1 restriction), five in the representative check `_orbit_form`
that every native family passes (the normalization skipped when any
leading entry is 1, the sorted shortcut taking equal neighbours as
distinct, a tie between support keys taken as distinct, no
proportional-rows test, the rows returned unnormalized), five in the
write-only scalar multiples and the listed check that `BlockFamily` runs
on raw rows (a scalar range stopping at q - 2, the XOR reading the wrong
earlier row, a compare of only the first chunk, a compare of only part 0
of a chunk, no weight check of part 0), one in the enumerator's block loop (the weight mode's
message-weight rows without the prefix weight), one in the outer
distribution table under `is_t_regular` (every leader's row read at the
first leader), one in `_verdict`, the one verdict of the q-ary,
classical and fixed-support checks (cell 0 taken as the target even when
the forced index is integral), one in `QuadExt`'s embedding of GF(q)
into GF(q^2) (its Horner pass reading the base-p digits in the wrong
order) and one in `zoo.trace_next_weight_family` (the (block, base)
pairs taken block by block, the same words in another order), seventeen
in all.
The oracle tests of `tests/test_projective.py`,
`tests/test_listed_orbits.py`, `tests/test_native_paths.py`, the
weight-mode tests of `tests/test_enumeration.py`, the regularity
criterion of `tests/test_acceptance.py` and the witness oracles of
`tests/test_orbits.py`, `tests/test_orbit_forms.py` and
`tests/test_supports.py`, the extension-table oracle of
`tests/test_fields.py`, and the trace-family block digests of
`tests/test_orbit_forms.py` and enumeration oracle of `tests/test_zoo.py`
must pass on the unmutated copy
and fail on every mutant; the script prints one line per run and exits 1
if the copy fails or any mutant survives.  Run it from the root of a
source checkout:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_projective.py", "tests/test_listed_orbits.py", "tests/test_native_paths.py",
         "tests/test_enumeration.py::test_weight_blocks_equal_value_block_weights",
         "tests/test_enumeration.py::test_weight_blocks_at_the_edges",
         "tests/test_acceptance.py::test_criterion_13_regularity_equivalence",
         "tests/test_orbits.py::test_orbit_kernels_match_reference",
         "tests/test_orbit_forms.py::test_orbit_pass_matches_dictionary_oracle",
         "tests/test_supports.py::test_support_checks_match_set_oracle",
         "tests/test_fields.py::test_extension_tables_match_scalar_definitions",
         "tests/test_orbit_forms.py::test_trace_family_blocks_equal_the_scaled_base_words",
         "tests/test_zoo.py::test_trace_families_equal_the_enumerated_weight_classes"]

# name -> (file under src/, original text, mutated text); each original
# occurs exactly once in its file
MUTANTS = {
    "a lead-one message range shifted by one": (
        "qdesign/linear.py",
        "iter_codeword_blocks(C, q ** j, 2 * q ** j)",
        "iter_codeword_blocks(C, q ** j + 1, 2 * q ** j + 1)"),
    "the scan without its S[0] = 1 restriction": (
        "qdesign/linear.py",
        "_syndrome_sweep(C.field, dual(C).gen, w, lead_one=projective)",
        "_syndrome_sweep(C.field, dual(C).gen, w)"),
    "the normalization skipped when any leading entry is 1": (
        "qdesign/designs.py",
        "    if (leads == 1).all():",
        "    if (leads == 1).any():"),
    "the sorted shortcut taking equal neighbours as distinct": (
        "qdesign/designs.py",
        "if not (key[a + 1:b + 1] > key[a:b]).all():",
        "if not (key[a + 1:b + 1] >= key[a:b]).all():"),
    "a tie between support keys taken as distinct": (
        "qdesign/designs.py",
        "    key = np.sort(_support_keys(rows))\n    if not (key[1:] == key[:-1]).any():",
        "    key = np.sort(_support_keys(rows))\n    if True:"),
    "the scalar range of the multiples stopping at q - 2": (
        "qdesign/designs.py",
        "    for c in range(2, q):\n        h = 1 << (c.bit_length() - 1)",
        "    for c in range(2, q - 1):\n        h = 1 << (c.bit_length() - 1)"),
    "the XOR reading the wrong earlier row": (
        "qdesign/designs.py",
        "np.bitwise_xor(out[h - 1], out[c - h - 1], out=out[c - 1])",
        "np.bitwise_xor(out[h - 1], out[c - h], out=out[c - 1])"),
    "the orbit check without its proportional-rows test": (
        "qdesign/designs.py",
        "    if not _distinct_rows(norm):\n        return None",
        "    if False:\n        return None"),
    "the listed check comparing only the first chunk": (
        "qdesign/designs.py",
        "    for a in range(0, R, step):",
        "    for a in range(0, min(R, step), step):"),
    "the listed check comparing only part 0 of a chunk": (
        "qdesign/designs.py",
        "if not all(map(np.array_equal, want, given)):",
        "if not all(map(np.array_equal, want[:1], given[:1])):"),
    "the orbit check returning its rows unnormalized": (
        "qdesign/designs.py",
        "    return reps, norm",
        "    return reps, reps"),
    "the listed check without the weight check of part 0": (
        "qdesign/designs.py",
        "    _check_weights(base, w)\n",
        ""),
    # 0 * weight keeps the array shape, so the mutant miscounts rather than
    # fails on an int indexed as an array
    "the message-weight rows without the prefix weight": (
        "qdesign/linear.py",
        "(m * q + q * weight)[:, None, None]",
        "(m * q + 0 * weight)[:, None, None]"),
    "every leader's outer-distribution row read at the first leader": (
        "qdesign/designs.py",
        "d = (block != vectors[a:a + step, None]).sum(axis=2)",
        "d = (block != vectors[:1, None]).sum(axis=2)"),
    "cell 0 taken as the target when the forced index is integral": (
        "qdesign/designs.py",
        "target = int(expected) if integral else int(counts[0])",
        "target = int(counts[0])"),
    "the embedding's Horner pass reading the digits in the wrong order": (
        "qdesign/fields.py",
        "for i in reversed(range(base.m)):",
        "for i in range(base.m):"),
    "the next-weight (block, base) pairs taken block by block": (
        "qdesign/zoo.py",
        "j, rows = np.nonzero(bs.base_mask.T)",
        "j, rows = np.nonzero(bs.base_mask)[::-1]"),
}


def _run(tmp: Path) -> int:
    """Exit code of the oracle tests on the copy in tmp."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(cmd, cwd=tmp, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _copy(tmp: Path, mutant: tuple[str, str, str] | None) -> None:
    for part in ("src", "tests"):
        shutil.rmtree(tmp / part, ignore_errors=True)
        shutil.copytree(ROOT / part, tmp / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    if mutant is not None:
        rel, old, new = mutant
        path = tmp / "src" / rel
        text = path.read_text()
        if text.count(old) != 1:
            raise SystemExit(f"mutant target not found exactly once in src/{rel}: {old!r}")
        path.write_text(text.replace(old, new))


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as name:
        tmp = Path(name)
        _copy(tmp, None)
        code = _run(tmp)
        print(f"unmutated copy: {'pass' if code == 0 else f'FAIL (exit {code})'}")
        bad += code != 0
        for label, mutant in MUTANTS.items():
            _copy(tmp, mutant)
            code = _run(tmp)
            print(f"{label}: {'killed' if code == 1 else f'SURVIVED (exit {code})'}")
            bad += code != 1
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
