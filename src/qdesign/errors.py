"""Shared exception types and the one budget policy.

Every exact enumeration, scan and table has a size limit, and all of
them are entries of `BUDGETS`.  `check_budget` is the only place that
compares a size with its limit and raises `CapacityError`; the message
names the entry to raise.  The environment variable QDESIGN_BUDGET, when
set, overrides the `codewords` entry and no other.
"""

import os


class ParameterError(ValueError):
    """An argument is outside an operation's documented domain."""


class RankError(ValueError):
    """A generator matrix does not have the rank its caller required."""


class CapacityError(RuntimeError):
    """An exact computation would exceed the configured budget."""


class ParseError(ValueError):
    """A text artifact (generator matrix / block family file) is malformed."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


BUDGETS = {
    "codewords": 1 << 32,       # q^k words of one codeword stream (QDESIGN_BUDGET)
    "syndromes": 1 << 24,       # q^(n-k) syndromes of a covering-radius or coset scan
    "sweep_level": 1 << 26,     # C(n,w) (q-1)^w candidates of one syndrome-sweep level
    "count_table": 1 << 24,     # C(n,t) * patterns cells of one count table
    "subsets": 1 << 22,         # C(n,k) subsets of the norm-one group listed at once
    "simplex_length": 10_000,   # length (q^m-1)/(q-1) of a simplex code
}


def env_count(name: str, default: int) -> int:
    """The non-negative integer held by environment variable `name`, or
    `default` when it is unset or empty; any other value is a
    ParameterError naming the variable."""
    value = os.environ.get(name, "")
    if not value:
        return default
    if not (value.isascii() and value.isdigit()):
        raise ParameterError(f"{name}={value!r} is not a non-negative integer")
    return int(value)


def check_budget(name: str, count: int, what: str) -> None:
    """Raise CapacityError when `count` (described by `what`) is over the
    limit `BUDGETS[name]`, or over QDESIGN_BUDGET for `codewords`."""
    limit = BUDGETS[name]
    hint = ""
    if name == "codewords":
        limit = env_count("QDESIGN_BUDGET", limit)
        hint = "; raise QDESIGN_BUDGET"
    if count > limit:
        raise CapacityError(f"{what} = {count} is over budget "
                            f"errors.BUDGETS[{name!r}] = {limit}{hint}")
