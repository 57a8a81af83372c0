import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from efkit.concepts import (
    CONSTRAINT_KEYS,
    ConstraintInstance,
    ConstraintKind,
    check_solvable,
    concept_holds_batch,
    constraint_from_fields,
    format_constraint_line,
    parse_fields,
    parse_int,
    parse_ints,
    parse_kind,
    reference_costs_batch,
)
from efkit import spaces
from efkit.hamming import SolutionSet, nearest_distances
from efkit.icn import ErrorFunction, alldifferent_reference_genome, ctx_from_constraint

from oracles import all_assignments, brute_force_hamming, concept_naive

ALLDIFF = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3)


def parse_constraint(line):
    """A constraint line read as the space file header reads it."""
    return constraint_from_fields(parse_fields(line, "constraint", CONSTRAINT_KEYS, ("p",)))


def test_concept_holds_basics():
    assert concept_holds_batch(ALLDIFF, [[1, 2, 3], [1, 1, 2]]).tolist() == [True, False]
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, 1, 5, p=6)
    assert concept_holds_batch(c, [[1, 2, 3], [1, 2, 4]]).tolist() == [True, False]
    c = ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 0, 4, p=2)
    assert concept_holds_batch(c, [[0, 2, 4], [0, 1, 4]]).tolist() == [True, False]
    c = ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 3)
    assert concept_holds_batch(c, [[2, 1], [1, 1]]).tolist() == [False, True]


def test_concept_input_validation():
    for rows in ([[1, 2]], [1, 2, 3], [[[1, 2, 3]]]):
        with pytest.raises(ValueError, match=re.escape("expected shape (m, 3)")):
            concept_holds_batch(ALLDIFF, rows)


# Each entry point that takes an assignment matrix, fed one over ALLDIFF.
MATRIX_ENTRIES = {
    "concept_holds_batch": lambda xs: concept_holds_batch(ALLDIFF, xs),
    "reference_costs_batch": lambda xs: reference_costs_batch(ALLDIFF, xs),
    "nearest_distances-queries": lambda xs: nearest_distances(xs, [[1, 2, 3]]),
    "nearest_distances-solutions": lambda xs: nearest_distances([[1, 2, 3]], xs),
    "SolutionSet": lambda xs: SolutionSet(ALLDIFF, xs, exhaustive=True),
    "LabeledSpace": lambda xs: spaces.LabeledSpace(ALLDIFF, xs, np.zeros(1, bool), None, False),
    "evaluate_batch": lambda xs: ErrorFunction(
        alldifferent_reference_genome(), ctx_from_constraint(ALLDIFF)
    ).evaluate_batch(xs),
}


@pytest.mark.parametrize("entry", MATRIX_ENTRIES.values(), ids=MATRIX_ENTRIES.keys())
def test_every_matrix_entry_rejects_the_same_inputs(entry):
    # Cast to int64, a float or bool row would be truncated and a uint64
    # value past 2^63 - 1 would wrap to a negative one.
    bad = [
        (np.array([[1.0, 2.0, 3.0]]), "expected integer values, got dtype float64"),
        (np.array([[True, False, True]]), "expected integer values, got dtype bool"),
        (np.array([[1, 2, 3]], dtype=object), "expected integer values, got dtype object"),
        (np.array([[2**63, 1, 2]], dtype=np.uint64), f"value {2**63} does not fit int64"),
        (np.array([[1, 2**64 - 1, 2]], dtype=np.uint64), f"value {2**64 - 1} does not fit int64"),
        (np.array([[1, 2]]), "expected shape (m, "),
    ]
    for xs, message in bad:
        with pytest.raises(ValueError, match=re.escape(message)):
            entry(xs)
    entry(np.array([[1, 2, 3]], dtype=np.uint64))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: concept_holds_batch(ALLDIFF, [[1.7, 2.2, 3.9]]), "got dtype float64"),
        (lambda: reference_costs_batch(ALLDIFF, [[1.7, 1.2, 3.9]]), "got dtype float64"),
        (lambda: concept_holds_batch(
            ConstraintInstance(ConstraintKind.LINEAR_SUM, 2, -3, 3, p=-2),
            np.array([[2**64 - 1, 2**64 - 1]], dtype=np.uint64),
        ), f"value {2**64 - 1} does not fit int64"),
        (lambda: nearest_distances([[1.9, 2, 3]], [[1, 2, 3]]), "got dtype float64"),
    ],
    ids=["holds-float", "costs-float", "linearsum-uint64-wraps", "nearest-float"],
)
def test_a_cast_never_turns_a_bad_matrix_into_a_result(call, message):
    # At a silent int64 cast these gave [True], [1], [True] and [0].
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("kind", list(ConstraintKind), ids=lambda k: k.value)
@pytest.mark.parametrize("label", [concept_holds_batch, reference_costs_batch],
                         ids=lambda f: f.__name__)
def test_values_outside_the_domain_are_rejected(kind, label):
    # Unchecked, such a value gets a label or cost as if it were in the
    # domain: alldiff over [1, 3] would hold for [1, 2, 9].
    p = {"linearsum": 6, "minimum": 2, "nooverlap": 1}.get(kind.value, 0)
    c = ConstraintInstance(kind, 3, 1, 4, p=p)
    label(c, [[1, 2, 3]])
    for bad in (0, 5, -7, 99):
        with pytest.raises(ValueError, match=re.escape(f"value {bad} outside domain [1, 4]")):
            label(c, [[1, 2, 3], [2, bad, 4]])


def test_instance_validation():
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 1, 1, 3)
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 3, 1)
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 1)
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 3, p=1)
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 1, 5, p=0)
    with pytest.raises(ValueError):
        ConstraintInstance(ConstraintKind.ORDERED, 2, 1, 3, p=2)


def test_hamming_reference_examples():
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 5)
    assert reference_costs_batch(c, [[1, 1, 2, 3]]).tolist() == [1]
    assert brute_force_hamming("alldiff", 0, 1, 5, (1, 1, 2, 3)) == 1
    c = ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 5, p=3)
    assert reference_costs_batch(c, [[1, 2, 5]]).tolist() == [2]
    assert brute_force_hamming("minimum", 3, 1, 5, (1, 2, 5)) == 2
    c = ConstraintInstance(ConstraintKind.ORDERED, 4, 1, 5)
    assert reference_costs_batch(c, [[1, 3, 2, 4]]).tolist() == [1]
    assert brute_force_hamming("ordered", 0, 1, 5, (1, 3, 2, 4)) == 1


SMALL_INSTANCES = [
    ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 3, 1, 4),
    ConstraintInstance(ConstraintKind.ALL_DIFFERENT, 4, 1, 4),
    ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, 1, 5, p=8),
    ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 5, p=3),
    ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, 3, 1, 5, p=2),
    ConstraintInstance(ConstraintKind.ORDERED, 3, 1, 4),
]


@pytest.mark.parametrize("c", SMALL_INSTANCES, ids=lambda c: format_constraint_line(c))
def test_hamming_reference_matches_brute_force(c):
    """Exhaustive: closed forms equal the brute-force oracle, and are 0
    exactly on concept-satisfying points."""
    kind = c.kind.value
    xs = list(all_assignments(c.n, c.lo, c.hi))
    costs = reference_costs_batch(c, xs).tolist()
    labels = concept_holds_batch(c, xs).tolist()
    for x, got, label in zip(xs, costs, labels):
        expected = brute_force_hamming(kind, c.p, c.lo, c.hi, x)
        assert got == expected, f"{x}: {got} != {expected}"
        assert (got == 0) == label


def test_alldiff_small_domain_has_no_solution():
    # d < n: no solution anywhere, said by the closed form without a search
    # (n=9 over [1, 8] has 8^9 assignments, past the enumeration cap).
    for n, hi in [(3, 2), (9, 8)]:
        c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, n, 1, hi)
        with pytest.raises(ValueError, match="alldiff with d < n has no solution"):
            reference_costs_batch(c, [[1] * n])


def test_nooverlap_that_does_not_fit_has_no_solution(monkeypatch):
    # d < (n - 1) * p + 1: said without a search. n=7 over [1, 9] would
    # enumerate 9^7 rows; n=9 over [1, 8] is past the enumeration cap.
    def no_search(c):
        raise AssertionError("enumerated")

    monkeypatch.setattr(spaces, "enumerate_complete", no_search)
    for n, hi, p in [(7, 9, 2), (9, 8, 1)]:
        c = ConstraintInstance(ConstraintKind.NO_OVERLAP_1D, n, 1, hi, p=p)
        with pytest.raises(ValueError, match=f"nooverlap n={n} p={p} does not fit in \\[1, {hi}\\]"):
            reference_costs_batch(c, [[1] * n])


def solvability_cases():
    """Every kind over n 2-4, lo -1 to 1 and d 2-5, with p over each
    parametric kind's boundary: [lo - 1, hi + 1] for Minimum,
    [n * lo - 1, n * hi + 1] for LinearSum and [1, d + 1] for NoOverlap1D."""
    K = ConstraintKind
    for n in range(2, 5):
        for lo in range(-1, 2):
            for d in range(2, 6):
                hi = lo + d - 1
                yield ConstraintInstance(K.ALL_DIFFERENT, n, lo, hi)
                yield ConstraintInstance(K.ORDERED, n, lo, hi)
                for p in range(lo - 1, hi + 2):
                    yield ConstraintInstance(K.MINIMUM, n, lo, hi, p)
                for p in range(n * lo - 1, n * hi + 2):
                    yield ConstraintInstance(K.LINEAR_SUM, n, lo, hi, p)
                for p in range(1, d + 2):
                    yield ConstraintInstance(K.NO_OVERLAP_1D, n, lo, hi, p)


def test_check_solvable_raises_iff_enumeration_finds_no_solution():
    cases = list(solvability_cases())
    assert len(cases) == 810
    for c in cases:
        solvable = any(concept_naive(c.kind.value, c.p, x) for x in all_assignments(c.n, c.lo, c.hi))
        try:
            check_solvable(c)
            raised = False
        except ValueError:
            raised = True
        assert raised != solvable, format_constraint_line(c)


def test_minimum_unsatisfiable_rejected():
    c = ConstraintInstance(ConstraintKind.MINIMUM, 3, 1, 5, p=7)
    with pytest.raises(ValueError):
        reference_costs_batch(c, [[1, 2, 3]])


def test_linearsum_unsatisfiable_rejected():
    c = ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, 1, 2, p=40)
    with pytest.raises(ValueError):
        reference_costs_batch(c, [[1, 2, 1]])


@pytest.mark.parametrize("c", SMALL_INSTANCES, ids=lambda c: format_constraint_line(c))
def test_batch_predicates_and_costs_match_scalar(c):
    xs = np.array(list(all_assignments(c.n, c.lo, c.hi)), dtype=np.int64)
    labels = concept_holds_batch(c, xs)
    for row, label in zip(xs, labels):
        assert bool(label) == concept_naive(c.kind.value, c.p, tuple(row))
    costs = reference_costs_batch(c, xs)
    for row, cost in zip(xs, costs):
        assert int(cost) == brute_force_hamming(c.kind.value, c.p, c.lo, c.hi, tuple(row))


@pytest.mark.parametrize(
    "c",
    [
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 0, 5, p=11),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 3, -2, 3, p=0),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 5, 1, 4, p=13),
        ConstraintInstance(ConstraintKind.LINEAR_SUM, 4, 1, 6, p=23),
        ConstraintInstance(ConstraintKind.ORDERED, 5, 1, 3),
        ConstraintInstance(ConstraintKind.ORDERED, 4, -3, 0),
        ConstraintInstance(ConstraintKind.MINIMUM, 4, -2, 3, p=0),
    ],
    ids=lambda c: format_constraint_line(c),
)
def test_closed_forms_beyond_small_spaces(c):
    """The closed forms also hold on wider and negative domains."""
    xs = list(all_assignments(c.n, c.lo, c.hi))
    for x, got in zip(xs, reference_costs_batch(c, xs).tolist()):
        assert got == brute_force_hamming(c.kind.value, c.p, c.lo, c.hi, x), x


def test_parse_and_format_constraint_line():
    line = "kind=nooverlap n=3 lo=0 hi=9 p=2"
    c = parse_constraint(line)
    assert c.kind is ConstraintKind.NO_OVERLAP_1D
    assert (c.n, c.lo, c.hi, c.p) == (3, 0, 9, 2)
    assert format_constraint_line(c) == line
    roundtrip = parse_constraint(format_constraint_line(c))
    assert roundtrip == c


def test_unknown_kind_rejected_at_parse_time():
    with pytest.raises(ValueError):
        parse_kind("amongst")
    with pytest.raises(ValueError):
        parse_constraint("kind=cumulative n=3 lo=1 hi=5 p=0")
    with pytest.raises(ValueError):
        parse_constraint("kind=alldiff n=three lo=1 hi=5")
    with pytest.raises(ValueError):
        parse_constraint("kind=alldiff lo=1 hi=5")


@pytest.mark.parametrize(
    "line, message",
    [
        ("kind=alldiff n=3 lo=1 hi=5 scale=9", "unknown constraint key 'scale'"),
        ("kind=alldiff n=3 lo=1 hi=5 n=4", "duplicate constraint key 'n'"),
        ("kind=alldiff n=3 lo=1 hi=5 junk", "constraint token 'junk' is not key=value"),
        ("kind=alldiff n=+3 lo=1 hi=5", "'+3' is not an integer"),
        ("kind=alldiff n=3 lo=1 hi=0_5", "'0_5' is not an integer"),
        ("kind=alldiff n=3 lo=\uff11 hi=5", "'\uff11' is not an integer"),
    ],
    ids=["unknown-key", "duplicate-key", "no-equals", "plus-sign", "underscore", "full-width-digit"],
)
def test_parse_constraint_line_is_strict(line, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_constraint(line)


def test_instance_bounds_keep_row_sums_in_int64():
    limit = 2**62
    ConstraintInstance(ConstraintKind.LINEAR_SUM, 2, 0, limit // 2 - 1, 0)
    for n, lo, hi, p in [(2, 0, limit // 2, 0), (2, -limit // 2, 0, 0), (4, 0, 5, -limit // 4)]:
        with pytest.raises(ValueError, match=re.escape("below 2^62")):
            ConstraintInstance(ConstraintKind.LINEAR_SUM, n, lo, hi, p)


def _or_none(parse, *args):
    try:
        return parse(*args)
    except ValueError:
        return None


@settings(deadline=None, derandomize=True, max_examples=500)
@given(text=st.text(alphabet="0123456789-+_ \t\u3000\uff13\u00b2\u0663x", max_size=24) | st.text(max_size=24))
@example(text="1 -2 007 -0")
@example(text="1\u30002")  # a non-ASCII separator between valid words
@example(text="1 --2")
def test_parse_ints_is_parse_int_word_by_word(text):
    expected = _or_none(lambda: [parse_int(word) for word in text.split()])
    assert _or_none(parse_ints, text) == expected


def _spanning_rows(span, n):
    """An all-different row and a row with one repeat, each holding 0 and
    span - 1 in its first n values."""
    distinct = [0, span - 1] + list(range(1, 11))
    return [distinct, distinct[: n - 1] + [1] + distinct[n:]]


@settings(deadline=None, derandomize=True, max_examples=400)
@given(
    span=st.integers(2, 70),
    n=st.integers(2, 12),
    lo=st.integers(-100, 100),
    rows=st.lists(st.lists(st.integers(0, 69), min_size=12, max_size=12), min_size=1, max_size=16),
)
@example(span=63, n=12, lo=-1, rows=[list(range(12)), [0] * 12])
@example(span=64, n=12, lo=-64, rows=[list(range(12)), list(range(11)) + [5]])
@example(span=65, n=12, lo=0, rows=[list(range(12)), list(range(11)) + [64]])
@example(span=5, n=6, lo=-3, rows=[list(range(12))] * 2)
@example(span=8, n=8, lo=-3, rows=_spanning_rows(8, 8))
@example(span=9, n=9, lo=-4, rows=_spanning_rows(9, 9))
@example(span=16, n=12, lo=-8, rows=_spanning_rows(16, 12))
@example(span=17, n=12, lo=-9, rows=_spanning_rows(17, 12))
@example(span=32, n=12, lo=-16, rows=_spanning_rows(32, 12))
@example(span=33, n=12, lo=-17, rows=_spanning_rows(33, 12))
def test_alldiff_label_matches_the_oracle(span, n, lo, rows):
    """Across the value-mask cut-offs (8, 16, 32 and 64 values): every
    span, negative domains, and n > d, where no row can be all-different."""
    c = ConstraintInstance(ConstraintKind.ALL_DIFFERENT, n, lo, lo + span - 1)
    xs = lo + np.array(rows, dtype=np.int64)[:, :n] % span
    xs[0, :2] = c.lo, c.hi  # the rows take exactly the values [lo, hi]
    got = concept_holds_batch(c, xs)
    assert got.tolist() == [concept_naive("alldiff", 0, tuple(row)) for row in xs.tolist()]
    if n > span:
        assert not got.any()


def test_concepts_imports_no_efkit_module():
    """concepts is the bottom layer: every other module may import it, so it
    imports none of them (a lazy import inside a function included)."""
    import ast

    import efkit.concepts

    tree = ast.parse(Path(efkit.concepts.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if name.startswith((".", "efkit"))], imported


def test_no_module_imports_a_name_it_never_uses():
    """What a linter's unused-import rule would flag, for the modules under
    src/efkit except the package's re-exporting __init__.py: an import left
    behind by a deletion fails here."""
    import ast

    import efkit

    unused = []
    for path in sorted(Path(efkit.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]
    assert not unused, unused


def test_every_src_name_has_a_user_outside_the_tests():
    """A top-level name in src/efkit that nothing in src/efkit, bench/ or
    scripts/ refers to, outside its own definition, is code kept alive only
    by tests. The package's __all__ and dunder names are exempt. A string
    equal to the name counts as a use: the bench wraps functions by name."""
    import ast
    from collections import defaultdict

    import efkit

    src = Path(efkit.__file__).parent
    root = src.parent.parent
    users = defaultdict(set)  # name -> the (file, top-level statement) pairs that use it
    for path in [*src.glob("*.py"), *(root / "bench").glob("*.py"), *(root / "scripts").glob("*.py")]:
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    users[node.id].add((path, index))
                elif isinstance(node, ast.Attribute):
                    users[node.attr].add((path, index))
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    users[node.value].add((path, index))
    unused = []
    for path in sorted(src.glob("*.py")):
        for index, stmt in enumerate(ast.parse(path.read_text()).body):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                exempt = name in efkit.__all__ or (name.startswith("__") and name.endswith("__"))
                if not exempt and not users[name] - {(path, index)}:
                    unused.append(f"{path.name}:{stmt.lineno}: {name}")
    assert not unused, unused
