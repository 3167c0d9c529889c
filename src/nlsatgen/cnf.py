"""Propositional CNF primitives: literals, clauses, formulas, DIMACS I/O.

Variables are 1-based integers.  A literal pairs a variable with a
negation flag and has a signed-integer encoding (DIMACS style): +v for
the positive literal, -v for the negated one.  Clauses hold one to
three literals; wider clauses are out of scope for this package.

A clause is *canonical* when its literals are sorted by (variable,
polarity), no variable repeats, and no complementary pair appears.
Every ``Clause`` is canonical: its constructor refuses anything else.
Clauses sampled with replacement may violate all of that, so they stay
signed-int tuples until the ruletaker retrofit collapses them with
``_normalize_ints``, the one normalizing core.

Validation happens at the boundary: ``Literal``, ``Clause`` and
``CnfFormula`` check themselves when built.  The generators work below
that boundary on ``_IntCnf``, a formula as a variable count and
canonical signed-int clause tuples.  The DIMACS writer ``_dimacs`` is
the one serializer: :func:`to_dimacs` converts a formula once and
calls it, and so does ``verify`` to compare a parsed text with its
record.  It checks every clause it writes, so a formula that skipped
the object constructors still cannot emit a clause that is not
canonical: up to 21 variables a canonical three-literal tuple is looked
up in a table of DIMACS lines built once per process per variable count
(``_dimacs_lines``), which holds exactly those clauses (above 21 it is
checked in place), and any other clause passes ``_check_int_clause``
before it is written.

Tables kept per process.  The int cores read four tables per variable
count n, each built the first time a core needs it at that n, kept for
the life of the process, and never built above its cap:

* ``sampler._clause_tables(n, width)``, n <= 21 (``sampler._SAMPLE_SETSIZE``),
  width 2 or 3: ``order`` holds n!/(n - width)! ids and ``signed``
  C(n, width) * 2^width clauses; at n = 21, 7,980 and 10,640 for width 3
  and 420 and 840 for width 2.
* ``_dimacs_lines(n)``, n <= 21 (``_DIMACS_TABLE_MAX_VARS``): C(n, 3) * 8
  lines, 10,640 at n = 21.
* ``solver._clause_entries(n)``, n <= 21 (``_DIMACS_TABLE_MAX_VARS``): one
  ``_dpll`` entry per key of ``_dimacs_lines(n)``, keyed by the same
  tuples, so C(n, 3) * 8 entries, 10,640 at n = 21.
* ``solver._var_masks(n)`` and ``solver._literal_masks(n)``: n + 1 and
  2n + 1 masks of 2^n bits, for at most two values of n at a time.

At n = 10 and 12, the sizes the benchmark generates, the line and entry
tables hold 0.50 and 0.30 MB.  Besides these, the packaged word lists
are read once per process per fragment (``fragments._packaged_vocab``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence


class Literal(NamedTuple):
    """A possibly negated propositional variable."""

    var: int
    negated: bool = False

    def negate(self) -> "Literal":
        return Literal(self.var, not self.negated)

    def to_int(self) -> int:
        return -self.var if self.negated else self.var

    @classmethod
    def from_int(cls, value: int) -> "Literal":
        if value == 0:
            raise ValueError("0 does not encode a literal")
        return cls(abs(value), value < 0)


# A (possibly partial) truth assignment, keyed by variable id.
Assignment = dict


class _IntCnf(NamedTuple):
    """A formula as the int cores see it: variables 1..n_vars, clauses as
    canonical signed-int tuples (+v / -v, strictly increasing |v|)."""

    n_vars: int
    clauses: Sequence


def _check_int_clause(cl, n_vars: int) -> None:
    """Raise ValueError unless cl is a canonical int clause over 1..n_vars.

    Canonical means width 1..3 and strictly increasing variables, all in
    range.  Starting at 0 also rejects a 0 literal.
    """
    if not 1 <= len(cl) <= 3:
        raise ValueError(f"clause width must be 1..3, got {len(cl)}")
    prev = 0
    for v in cl:
        var = v if v > 0 else -v
        if var <= prev or var > n_vars:
            raise ValueError(f"clause {tuple(cl)} is not canonical over 1..{n_vars}")
        prev = var


def _increasing_vars(literals: Sequence[Literal]) -> bool:
    # sorted, duplicate-free and tautology-free together mean strictly
    # increasing variables.  A plain loop: every Clause built passes
    # through here, and it costs a third of all() over zip().  Starting
    # at 0 is safe because variable ids are 1-based.
    prev = 0
    for lit in literals:
        if lit.var <= prev:
            return False
        prev = lit.var
    return True


@dataclass(frozen=True)
class Clause:
    """A canonical disjunction of 1..3 literals: sorted, duplicate-free
    and tautology-free."""

    literals: tuple

    def __post_init__(self):
        lits = tuple(self.literals)
        object.__setattr__(self, "literals", lits)
        if not 1 <= len(lits) <= 3:
            raise ValueError(f"clause width must be 1..3, got {len(lits)}")
        for lit in lits:
            if not isinstance(lit, Literal):
                raise TypeError(f"expected Literal, got {type(lit).__name__}")
            if lit.var < 1:
                raise ValueError(f"variable ids are 1-based, got {lit.var}")
        if not _increasing_vars(lits):
            raise ValueError(f"clause {self.to_ints()} is not canonical")

    @classmethod
    def from_ints(cls, *values: int) -> "Clause":
        """Build a canonical clause from signed ints, sorting as needed."""
        lits = sorted(Literal.from_int(v) for v in values)
        return cls(tuple(lits))

    def to_ints(self) -> tuple:
        # Literal.to_int inlined: every boundary into the int cores converts here
        return tuple([-lit.var if lit.negated else lit.var for lit in self.literals])

    @property
    def width(self) -> int:
        return len(self.literals)

    def max_var(self) -> int:
        # canonical: the last literal has the largest variable
        return self.literals[-1].var


def _as_clause(ints) -> Clause:
    """The ``Clause`` of a signed-int clause, literal order kept (and checked)."""
    return Clause(tuple([Literal(abs(v), v < 0) for v in ints]))


def _normalize_ints(cl) -> Optional[tuple]:
    """Deduplicate a signed-int clause and sort it into canonical order.

    Returns None for a tautology (a variable in both polarities).  A
    repeated literal collapses, so a three-literal draw can normalize to
    a unit or a two-literal clause.  Idempotent on canonical input.
    """
    unique = sorted(set(cl), key=abs)
    if len({abs(v) for v in unique}) != len(unique):
        return None  # v and -v both present
    return tuple(unique)


@dataclass(frozen=True)
class CnfFormula:
    """A conjunction of clauses over variables 1..n_vars."""

    n_vars: int
    clauses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "clauses", tuple(self.clauses))
        if type(self.n_vars) is not int:  # a bool or float would reach the DIMACS header
            raise ValueError(f"n_vars must be an int, got {self.n_vars!r}")
        if self.n_vars < 0:
            raise ValueError("n_vars must be >= 0")
        for cl in self.clauses:
            if not isinstance(cl, Clause):
                raise TypeError(f"expected Clause, got {type(cl).__name__}")
            if cl.max_var() > self.n_vars:
                raise ValueError(f"literal {cl.max_var()} exceeds n={self.n_vars}")

    @classmethod
    def from_ints(cls, n_vars: int, clauses: Iterable) -> "CnfFormula":
        return cls(n_vars, tuple(Clause.from_ints(*ints) for ints in clauses))

    def to_int_clauses(self) -> list:
        return [list(cl.to_ints()) for cl in self.clauses]

    @property
    def m(self) -> int:
        return len(self.clauses)


def _as_formula(f: _IntCnf) -> CnfFormula:
    """The validated ``CnfFormula`` of an int formula."""
    return CnfFormula(f.n_vars, tuple([_as_clause(cl) for cl in f.clauses]))


def alpha(f: CnfFormula) -> Fraction:
    """Clause-to-variable ratio m/n as an exact rational.

    Kept exact on purpose: band membership checks downstream compare
    ratios against calibrated endpoints and must not wobble with float
    rounding.
    """
    if f.n_vars == 0:
        raise ValueError("alpha undefined for a formula with no variables")
    return Fraction(f.m, f.n_vars)


def evaluate(f: CnfFormula, assignment: Assignment) -> bool:
    """Evaluate f under a total assignment."""
    missing = [v for v in range(1, f.n_vars + 1) if v not in assignment]
    if missing:
        raise ValueError(f"assignment is partial; missing variables {missing}")
    for cl in f.clauses:
        if not any(assignment[lit.var] != lit.negated for lit in cl.literals):
            return False
    return True


def to_dimacs(f: CnfFormula) -> str:
    """Serialize to DIMACS CNF: header line then one 0-terminated clause per line."""
    return _dimacs(_IntCnf(f.n_vars, [cl.to_ints() for cl in f.clauses]))


# ``_dimacs`` and ``solver._dpll`` read canonical three-literal clauses
# from tables per variable count up to this many variables (see "Tables
# kept per process" above).
_DIMACS_TABLE_MAX_VARS = 21


@lru_cache(maxsize=None)
def _dimacs_lines(n_vars: int) -> dict:
    """Every canonical three-literal clause over 1..n_vars, as a tuple,
    mapped to its DIMACS line "a b c 0"."""
    lines = {}
    for a, b, c in combinations(range(1, n_vars + 1), 3):
        for x in (a, -a):
            for y in (b, -b):
                for z in (c, -c):
                    lines[x, y, z] = f"{x} {y} {z} 0"
    return lines


def _dimacs(f: _IntCnf) -> str:
    """The DIMACS core: checks each clause as it writes it.

    Up to ``_DIMACS_TABLE_MAX_VARS`` variables a three-literal tuple whose
    variables increase within 1..n_vars is a key of ``_dimacs_lines``,
    built once per process per variable count, so looking its line up is
    its check.  Another three-literal clause (a list, or any above that
    many variables, where a table would grow as n^3) is tested in place,
    0 < |a| < |b| < |c| <= n_vars, and written with one f-string.  Every
    clause that fails the test, or has another width, is written only
    after ``_check_int_clause``, which words any refusal, has passed it.
    """
    n_vars = f.n_vars
    table = _dimacs_lines(n_vars) if n_vars <= _DIMACS_TABLE_MAX_VARS else {}
    lines = [f"p cnf {n_vars} {len(f.clauses)}"]
    for cl in f.clauses:
        line = table.get(cl) if type(cl) is tuple else None
        if line is None:
            if len(cl) == 3 and 0 < abs(cl[0]) < abs(cl[1]) < abs(cl[2]) <= n_vars:
                line = f"{cl[0]} {cl[1]} {cl[2]} 0"
            else:
                _check_int_clause(cl, n_vars)
                line = " ".join(map(str, cl)) + " 0"
        lines.append(line)
    return "\n".join(lines) + "\n"


class DimacsError(ValueError):
    """Malformed DIMACS input; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def from_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text produced by :func:`to_dimacs` or compatible tools.

    Comment lines starting with 'c' are ignored.  Clauses must fit on
    one line and end with 0.  Literals are canonicalized; duplicate
    variables or complementary pairs within a clause are rejected.
    """
    n_vars = None
    declared_m = None
    clauses = []
    for line_no, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if n_vars is not None:
                raise DimacsError(line_no, "duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "cnf":
                raise DimacsError(line_no, f"malformed header {line!r}")
            try:
                n_vars, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(line_no, f"malformed header {line!r}") from None
            if n_vars < 0 or declared_m < 0:
                raise DimacsError(line_no, "header counts must be non-negative")
            continue
        if n_vars is None:
            raise DimacsError(line_no, "clause before 'p cnf' header")
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError(line_no, f"non-integer token in {line!r}") from None
        if not values or values[-1] != 0:
            raise DimacsError(line_no, "clause line missing 0 terminator")
        if 0 in values[:-1]:
            raise DimacsError(line_no, "0 terminator before end of line")
        values = values[:-1]
        if not values:
            raise DimacsError(line_no, "empty clause")
        if len(values) > 3:
            raise DimacsError(line_no, f"clause width {len(values)} unsupported (max 3)")
        for v in values:
            if abs(v) > n_vars:
                raise DimacsError(line_no, f"literal {v} exceeds n={n_vars}")
        norm = _normalize_ints(values)
        if norm is None:
            raise DimacsError(line_no, f"tautological clause {values}")
        if len(norm) != len(values):
            raise DimacsError(line_no, f"duplicate literal in clause {values}")
        clauses.append(_as_clause(norm))
    if n_vars is None:
        raise DimacsError(1, "missing 'p cnf' header")
    if declared_m != len(clauses):
        raise DimacsError(1, f"header declares {declared_m} clauses, found {len(clauses)}")
    return CnfFormula(n_vars, tuple(clauses))
