"""The one budget policy: a single `syndromes` entry governs every syndrome
scan, and `errors.check_budget` is the only code that constructs
CapacityError."""

import ast
from pathlib import Path

import pytest

import qdesign
from qdesign.designs import coset_representatives, is_t_regular
from qdesign.errors import BUDGETS, CapacityError
from qdesign.fields import field_make
from qdesign.linear import code_from_generator, covering_radius


def test_one_syndromes_budget_governs_every_syndrome_scan(monkeypatch):
    C = code_from_generator(field_make(3), [[1, 0, 1, 1], [0, 1, 1, 2]])  # 3^2 syndromes
    scans = (covering_radius, lambda C: coset_representatives(C, 4),
             lambda C: is_t_regular(C, 1))
    monkeypatch.setitem(BUDGETS, "syndromes", 9)
    assert covering_radius(C) == 1
    assert len(coset_representatives(C, 4)) == 9
    assert is_t_regular(C, 1).regular
    monkeypatch.setitem(BUDGETS, "syndromes", 8)
    for scan in scans:
        with pytest.raises(CapacityError, match=r"errors\.BUDGETS\['syndromes'\] = 8"):
            scan(C)


def _constructs_capacity_error(node) -> bool:
    if isinstance(node, ast.Call):
        node = node.func
    elif isinstance(node, ast.Raise):
        node = node.exc
    else:
        return False
    return (isinstance(node, ast.Name) and node.id == "CapacityError"
            or isinstance(node, ast.Attribute) and node.attr == "CapacityError")


def test_only_errors_module_constructs_capacity_error():
    package = Path(qdesign.__file__).parent
    sites = [f"{path.name}:{node.lineno}"
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if _constructs_capacity_error(node)]
    assert sites and all(site.startswith("errors.py:") for site in sites), sites
