import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphrates import (Alphabet, ColorCounts, ColorMeasure, Kernel, ModelParams,
                        NeighborhoodCounts, NeighborhoodMeasure, PairCounts,
                        PairMeasure, cap_degrees, consistify,
                        degree_distribution, empirical_measures, is_sub_consistent,
                        magnitude, phi, phi_counts, poisson_limit_law,
                        product_kernel_measure, quantize, relative_entropy,
                        sample_colored_graph, total_variation)
from graphrates.errors import InfeasibleError
from graphrates.measures import (_atom_list, _atom_table, _find, _float64, _merged, _real,
                                 _whole)
from graphrates.seeds import derive_child_seed

A1 = Alphabet(1)
A2 = Alphabet(2)


# ---------------------------------------------------------------------------
# constructors and validation


def test_color_measure_rejects_negative():
    with pytest.raises(ValueError):
        ColorMeasure(A2, [0.5, -0.1])


def test_color_measure_probability_mass_check():
    with pytest.raises(ValueError):
        ColorMeasure(A2, [0.5, 0.6], probability=True)
    ColorMeasure(A2, [0.5, 0.5], probability=True)


def test_pair_measure_requires_exact_symmetry():
    with pytest.raises(ValueError, match="symmetric"):
        PairMeasure(A2, [[1.0, 0.3], [0.300000001, 1.0]])


def test_neighborhood_measure_drops_nothing_and_rejects_zero_mass():
    with pytest.raises(ValueError):
        NeighborhoodMeasure(A1, {(0, (1,)): 0.0})
    nu = NeighborhoodMeasure(A1, {(0, (1,)): 0.25, (0, (0,)): 0.75}, probability=True)
    assert nu.mass(0, (1,)) == 0.25
    assert nu.mass(0, (7,)) == 0.0


def test_kernel_rejects_identically_zero():
    with pytest.raises(ValueError):
        Kernel(A2, np.zeros((2, 2)))


def test_counts_reject_fractional_and_bool_entries():
    # whole floats are integers; 4.5 or true must not be truncated to 4 or 1
    assert ColorCounts(4, [4.0]).counts.tolist() == [4]
    for bad in ([4.5], [True], [0, True], ["4"], [math.inf]):
        with pytest.raises(ValueError, match="a color count must be an integer"):
            ColorCounts(4, bad)
    with pytest.raises(ValueError, match="an edge count must be an integer, got 0.5"):
        PairCounts(4, [[0.5, 1], [1, 0]])
    # a count past int64 says so, rather than failing a later sign or sum check
    for bad in ([1e30], [2 ** 70], [2 ** 64, 4], [2 ** 63]):
        with pytest.raises(ValueError, match="a color count does not fit in int64"):
            ColorCounts(4, bad)
    with pytest.raises(ValueError, match="an edge count does not fit in int64"):
        PairCounts(4, [[0, 2 ** 63], [2 ** 63, 0]])


@pytest.mark.parametrize("build", [
    lambda n: Alphabet(n),
    lambda n: ColorCounts(n, [4]),
    lambda n: PairCounts(n, [[1]]),
    lambda n: NeighborhoodCounts(n, {(0, (0,)): 4}),
], ids=["Alphabet", "ColorCounts", "PairCounts", "NeighborhoodCounts"])
def test_sizes_are_never_truncated(build):
    # 4.0 is the integer 4; 4.7 is not read as 4, nor true as 1
    build(4.0)
    for bad in (4.7, True, "4"):
        with pytest.raises(ValueError, match="must be an integer"):
            build(bad)


def test_neighborhood_counts_reject_fractional_and_bool_entries():
    # a whole float is an integer; a fraction or a bool is never truncated
    assert NeighborhoodCounts(4.0, {(0, (1.0, 0)): 4.0}).atoms() == [((0, (1, 0)), 4)]
    for bad in ({(0, (1.5, 0)): 4}, {(0, (True, 0)): 4}, {(0, (1, 0)): 3.5},
                {(0, (1, 0)): True, (0, (0, 0)): 3}, {(0.5, (1, 0)): 4},
                {(0, (math.inf, 0)): 4}):
        with pytest.raises(ValueError, match="must be an integer"):
            NeighborhoodCounts(4, bad)
    with pytest.raises(ValueError, match="degree vector entry must be an integer"):
        NeighborhoodMeasure(A2, {(0, (1.5, 0)): 1.0})


def test_neighborhood_mass_rejects_fractional_keys():
    # the lookup checks its key as the constructor does, never truncating it
    nu = NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True)
    assert nu.mass(0, (1,)) == nu.mass(0.0, (1.0,)) == 1.0
    for a, ell in ((0, (1.5,)), (0.7, (1,)), (True, (1,)), (0, (True,))):
        with pytest.raises(ValueError, match="must be an integer"):
            nu.mass(a, ell)


@pytest.mark.parametrize("build, good", [
    (ColorMeasure, [0.5, 0.5]),
    (PairMeasure, [[1.0, 0.5], [0.5, 0.0]]),
    (Kernel, [[1.0, 0.5], [0.5, 0.0]]),
])
def test_measure_arrays_share_one_validator(build, good):
    raw = np.array(good)
    obj = build(A2, raw)
    raw[0] = 9.0  # the measure holds its own read-only copy
    held = obj.values if build is Kernel else obj.weights
    assert held.tolist() == good and not held.flags.writeable
    negative, infinite = np.array(good), np.array(good)
    negative[-1] = -1.0
    infinite[-1] = math.inf
    text, flag = np.array(good, dtype=object), np.array(good, dtype=object)
    text.flat[0], flag.flat[0] = "0.5", True  # numpy's float cast read 0.5 and 1.0
    for bad, message in ((np.ones(3), "shape"), (negative, "finite and >= 0"),
                         (infinite, "finite and >= 0"),
                         ({"a": 1}, "entry {'a': 1} is not a finite real number"),
                         (text.tolist(), "entry '0.5' is not a finite real number"),
                         (flag.tolist(), "entry True is not a finite real number")):
        with pytest.raises(ValueError, match=message):
            build(A2, bad)


@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["string", "bool", "null"])
def test_neighborhood_masses_are_read_as_real_numbers(bad):
    # numpy's float cast read "0.5" as 0.5 and True as 1.0
    message = re.escape(f"atom mass {bad!r} is not a finite real number")
    with pytest.raises(ValueError, match=message):
        NeighborhoodMeasure(A1, {(0, (1,)): bad, (0, (0,)): 0.5})
    with pytest.raises(ValueError, match=message):
        NeighborhoodMeasure.from_dict({"m": 1, "atoms": [{"color": 0, "ell": [1], "mass": bad}]})
    with pytest.raises(ValueError, match=message):
        NeighborhoodMeasure.from_arrays(A1, [0], [[1]], [bad])


def test_neighborhood_from_dict_reads_probability_as_a_json_bool():
    d = {"m": 1, "atoms": [{"color": 0, "ell": [1], "mass": 0.5}]}
    assert NeighborhoodMeasure.from_dict(d).probability is False
    assert NeighborhoodMeasure.from_dict(dict(d, probability=False)).probability is False
    for flag in ("no", 1, None):  # "no" was read as true by its truthiness
        with pytest.raises(ValueError, match=re.escape(f"probability must be true or false, "
                                                       f"got {flag!r}")):
            NeighborhoodMeasure.from_dict(dict(d, probability=flag))
    with pytest.raises(ValueError, match="probability measure has total mass 0.5"):
        NeighborhoodMeasure.from_dict(dict(d, probability=True))


def test_float64_passes_a_float64_array_and_reads_anything_else_entry_by_entry():
    held = np.array([[0.5, 2.0]])
    assert _float64(held, "x") is held
    for values in ([[0.5, 2]], np.array([[0.5, 2]], dtype=np.float32),
                   [[Fraction(1, 2), np.int64(2)]]):
        out = _float64(values, "x")
        assert out.dtype == np.float64 and out.tolist() == [[0.5, 2.0]]
    for bad, message in ((["1"], "x '1' is not"), ([[0.5], [0.5, 1]], "x [0.5] is not"),
                         ([math.inf], "x inf is not"), ([10 ** 400], "x is too large"),
                         ([False], "x False is not")):
        with pytest.raises(ValueError, match=re.escape(message)):
            _float64(bad, "x")


MU_A2 = ColorMeasure(A2, [0.5, 0.5], probability=True)
NU_A2 = NeighborhoodMeasure(A2, {(0, (1, 0)): 0.5, (1, (0, 0)): 0.5}, probability=True)


@pytest.mark.parametrize("call, error, message", [
    (lambda: NeighborhoodCounts(2, {(0, (1,)): 1, (0, (1, 0)): 1}), ValueError,
     "inconsistent degree-vector lengths"),
    (lambda: NeighborhoodMeasure(A2, {(0, (1, 0, 0)): 1.0}), ValueError,
     "degree vector has length 3, alphabet has m=2"),
    # the keys are read from flat object arrays: numpy would take a nested entry, even
    # one of length 1, as one more axis of integers
    (lambda: NeighborhoodMeasure(A1, {((0,), (1,)): 1.0}), ValueError,
     "color must be an integer, got (0,)"),
    (lambda: NeighborhoodMeasure(A1, {(0, ((1,),)): 1.0}), ValueError,
     "degree vector entry must be an integer, got (1,)"),
    (lambda: NeighborhoodMeasure.from_dict({"m": 1, "atoms": [
        {"color": [0], "ell": [1], "mass": 1.0}]}), ValueError,
     "color must be an integer, got [0]"),
    (lambda: ColorCounts(4, [3, 2]), ValueError, "counts sum to 5, expected n=4"),
    (lambda: ColorCounts(4, [[4]]), ValueError, "counts must be a 1-d nonnegative integer"),
    (lambda: PairCounts(4, [[1, 0]]), ValueError, "edge_counts must be a square matrix"),
    (lambda: PairCounts(4, [[0, 1], [0, 0]]), ValueError, "must be symmetric and >= 0"),
    (lambda: NeighborhoodCounts.from_arrays(4, [0, 0], [[1], [0]], [4, 0]), ValueError,
     "atom count must be positive, got 0"),
    (lambda: relative_entropy(MU_A2, PairMeasure(A2, np.eye(2))), ValueError,
     "measure types differ: ColorMeasure vs PairMeasure"),
    (lambda: total_variation(MU_A2, NU_A2), ValueError, "measure types differ"),
    (lambda: consistify(PairMeasure(A2, np.eye(2)), NU_A2, 0.0), ValueError,
     "eps must be positive, got 0.0"),
    (lambda: consistify(PairMeasure(A1, [[1.0]]),
                        NeighborhoodMeasure(A1, {(0, (2,)): 1.0}, probability=True), 0.1),
     ValueError, "(pair, nu) not sub-consistent: deficit -1"),
    (lambda: quantize(ColorCounts(4, [2, 2]), PairCounts(5, np.eye(2, dtype=int)), NU_A2, 1),
     ValueError, "size mismatch: omega_n.n=4, pair_n.n=5"),
    (lambda: quantize(ColorCounts(4, [4, 0]), PairCounts(4, [[0, 1], [1, 0]]), NU_A2, 1),
     InfeasibleError, "color 1 has zero vertices but positive adjacency target"),
], ids=["ragged-keys", "key-longer-than-m", "nested-color", "nested-entry",
        "nested-color-in-dict", "color-counts-sum", "color-counts-2d",
        "pair-counts-not-square", "pair-counts-asymmetric", "zero-atom-count",
        "entropy-types", "distance-types", "consistify-eps", "consistify-not-sub-consistent",
        "quantize-sizes", "quantize-empty-color"])
def test_constructors_and_pipeline_refuse_bad_input(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_counts_round_trip_dicts():
    cc = ColorCounts(5, [3, 2])
    assert ColorCounts.from_dict(cc.to_dict()).counts.tolist() == [3, 2]
    pc = PairCounts(5, [[2, 1], [1, 0]])
    assert PairCounts.from_dict(pc.to_dict()).edge_counts.tolist() == [[2, 1], [1, 0]]
    nc = NeighborhoodCounts(5, {(0, (1, 0)): 2, (1, (2, 0)): 3})
    assert NeighborhoodCounts.from_dict(nc.to_dict()).atoms() == nc.atoms()


def test_neighborhood_from_dict_refuses_a_repeated_atom():
    # a dict built from the records would keep only the last of the two
    atoms = [{"color": 0, "ell": [1], "mass": 0.5}, {"color": 0, "ell": [1], "mass": 0.5},
             {"color": 0, "ell": [0], "mass": 0.5}]
    with pytest.raises(ValueError, match="duplicate atom"):
        NeighborhoodMeasure.from_dict({"m": 1, "atoms": atoms})


def test_neighborhood_counts_from_dict_refuses_a_repeated_atom():
    atoms = [{"color": 0, "ell": [1], "count": 2}, {"color": 0, "ell": [1], "count": 2}]
    with pytest.raises(ValueError, match="duplicate atom"):
        NeighborhoodCounts.from_dict({"n": 4, "atoms": atoms})


def test_neighborhood_counts_from_dict_refuses_a_wrong_m():
    # the atoms' degree vectors fix m = 2; the document's m = 3 is not dropped
    doc = {"n": 2, "m": 3, "atoms": [{"color": 0, "ell": [1, 0], "count": 2}]}
    with pytest.raises(ValueError, match="degree vectors have length 2, but m=3"):
        NeighborhoodCounts.from_dict(doc)


def test_neighborhood_table_is_sorted_and_checked():
    # the dict constructor and from_arrays build one checked table in (color, ell) tuple order
    support = {(1, (0, 2)): 0.25, (0, (3, 0)): 0.25, (0, (0, 10)): 0.5}
    nu = NeighborhoodMeasure(A2, support, probability=True)
    expect = sorted(support.items())
    assert nu.atoms() == expect
    assert nu.ells.dtype == np.int64 and not nu.weights.flags.writeable
    colors, ells, masses = [1, 0, 0], [[0, 2], [3, 0], [0, 10]], [0.25, 0.25, 0.5]
    assert NeighborhoodMeasure.from_arrays(A2, colors, ells, masses).atoms() == expect
    for args, message in (
            (([0, 2], [[0, 0], [1, 0]], [0.5, 0.5]), "color 2 outside alphabet of size 2"),
            (([0, 0], [[0, 0], [0, -1]], [0.5, 0.5]), "negative entries: \\(0, -1\\)"),
            (([0, 0], [[1, 0], [1, 0]], [0.5, 0.5]), "duplicate atom \\(0, \\(1, 0\\)\\)"),
            (([0, 0], [[1, 0], [0, 0]], [0.5, math.nan]), "atom mass nan is not a finite real"),
            (([0, 0], [[1, 0], [0, 0]], np.array([0.5, math.nan])), "non-positive mass nan"),
            (([0, 0], [[1, 0], [0, 0]], [0.5, 0.6]), "total mass"),
            (([0, 0], [[1.0, 0], [0, 0]], [0.5, 0.5]), "integer arrays"),
            (([0], [[1, 0], [0, 0]], [0.5, 0.5]), "shapes")):
        with pytest.raises(ValueError, match=message):
            NeighborhoodMeasure.from_arrays(A2, *args, probability=True)
    with pytest.raises(ValueError, match="atom counts sum to 3, expected n=4"):
        NeighborhoodCounts.from_arrays(4, [0, 0], [[1], [0]], [2, 1])
    # the tally's key would give (0, (1, -1)) the key of (0, (0, 1)) and count it there
    with pytest.raises(ValueError, match="negative entries: \\(1, -1\\)"):
        NeighborhoodCounts.tally(np.array([0, 0]), np.array([[0, 1], [1, -1]]))


def test_neighborhood_counts_refuse_degree_sums_past_int64():
    # 2 * 2**62 adjacencies once wrapped to -2**63 in phi_counts; 2**64 raised OverflowError
    with pytest.raises(ValueError, match="degree sum 9223372036854775808 does not fit in int64"):
        NeighborhoodCounts(2, {(0, (2 ** 62,)): 2})
    with pytest.raises(ValueError, match="degree vector entry does not fit in int64"):
        NeighborhoodCounts(2, {(0, (2 ** 64,)): 2})
    with pytest.raises(ValueError, match="degree sum 9223372036854775808 does not fit"):
        NeighborhoodMeasure(A2, {(0, (2 ** 62, 2 ** 62)): 1.0})
    # a sum just inside the range is exact
    nc = NeighborhoodCounts(2, {(0, (2 ** 62,)): 1, (0, (2 ** 62 - 1,)): 1})
    assert phi_counts(nc)[1].tolist() == [[2 ** 63 - 1]]


# One order key sorts, merges and finds atoms; these tests hold it to Python's tuple
# order. WIDE's color radix 40 times forty degree radices 4 passes 2**63, so the key so
# far is ranked; HUGE's degrees of 2**31 and more are ranked as columns (its 2**61
# column would carry four ranked keys past 2**63), and TOP's 2**63 - 1 has no radix in
# int64 at all.
WIDE = [(39, (3,) * 40), (0, (3,) * 39 + (0,)), (39, (3,) * 39 + (2,)), (0, (0,) * 40),
        (17, (1, 2, 3) * 13 + (0,)), (0, (3,) * 39 + (0,))]
HUGE = [(0, (1, 2 ** 61)), (1, (1, 2 ** 61)), (1, (1, 5)), (0, (0, 2 ** 61)),
        (1, (0, 2 ** 31)), (0, (1, 3)), (1, (1, 5)), (0, (0, 2 ** 31 + 1))]
TOP = [(0, (2 ** 63 - 1,)), (0, (0,)), (0, (2 ** 63 - 1,))]


def _atom_tables(m, entries):
    """Lists of (color, ell) atoms drawn from a pool of at most 8, so that atoms repeat."""
    atom = st.tuples(st.integers(0, m - 1), st.tuples(*[entries] * m))
    return st.lists(atom, min_size=1, max_size=8).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=16))


ATOM_TABLES = st.one_of(
    st.integers(1, 3).flatmap(lambda m: _atom_tables(
        m, st.integers(0, 3) | st.sampled_from([2 ** 31, 2 ** 31 + 1, 2 ** 61]))),
    _atom_tables(40, st.integers(0, 3)))


def _arrays(atoms):
    m = len(atoms[0][1])
    return (np.array([a for a, _ in atoms], dtype=np.int64),
            np.array([ell for _, ell in atoms], dtype=np.int64).reshape(len(atoms), m))


@settings(max_examples=200, deadline=None)
@given(ATOM_TABLES)
@example(WIDE)
@example(HUGE)
@example(TOP)
def test_atom_table_sorts_as_tuples_and_refuses_a_repeat(atoms):
    distinct = list(dict.fromkeys(atoms))
    m = len(atoms[0][1])
    masses = np.arange(1.0, len(distinct) + 1)
    colors, ells, values = _atom_table(m, *_arrays(distinct), masses)
    got = [(a, tuple(ell)) for a, ell in zip(colors.tolist(), ells.tolist())]
    assert got == sorted(distinct)
    assert values.tolist() == [masses[distinct.index(atom)] for atom in got]
    ordered = sorted(atoms)
    repeats = [x for x, y in zip(ordered, ordered[1:]) if x == y]
    if repeats:
        with pytest.raises(ValueError, match=re.escape(f"duplicate atom {repeats[0]}")):
            _atom_table(m, *_arrays(atoms), np.ones(len(atoms)))


@settings(max_examples=200, deadline=None)
@given(ATOM_TABLES)
@example(WIDE)
@example(HUGE)
@example(TOP)
def test_merged_adds_equal_atoms_in_tuple_order(atoms):
    values = [k % 7 + 1 for k in range(len(atoms))]
    sums = {}
    for atom, v in zip(atoms, values):
        sums[atom] = sums.get(atom, 0) + v
    colors, ells, merged = _merged(*_arrays(atoms), np.array(values))
    assert _atom_list(colors, ells, merged) == sorted(sums.items())


@settings(max_examples=200, deadline=None)
@given(ATOM_TABLES)
@example(WIDE)
@example(HUGE)
@example(TOP)
def test_find_matches_a_dict_lookup(atoms):
    # every other distinct atom is in the table; the rest are looked up and absent
    distinct = list(dict.fromkeys(atoms))
    m = len(atoms[0][1])
    held = {atom: k + 1.0 for k, atom in enumerate(distinct[::2])}
    nu = NeighborhoodMeasure(Alphabet(m), held)
    at = _find(nu, *_arrays(atoms))
    assert np.append(nu.weights, 0.0)[at].tolist() == [held.get(x, 0.0) for x in atoms]


def test_mass_outside_the_alphabet_is_zero():
    nu = NeighborhoodMeasure(A2, {(0, (1, 0)): 0.5, (1, (0, 1)): 0.5}, probability=True)
    assert nu.mass(0, (1, 0)) == 0.5
    assert nu.mass(-1, (1, 0)) == nu.mass(2, (0, 1)) == nu.mass(-2 ** 63, (0, 0)) == 0.0


def test_mass_of_a_color_past_int64_is_zero():
    # the color is compared with the alphabet before it is read into int64
    nu = NeighborhoodMeasure(A2, {(0, (1, 0)): 0.5, (1, (0, 1)): 0.5}, probability=True)
    assert nu.mass(2 ** 63, (1, 0)) == nu.mass(-2 ** 63 - 1, (1, 0)) == 0.0
    with pytest.raises(ValueError, match="degree vector entry does not fit in int64"):
        nu.mass(2 ** 63, (2 ** 63, 0))
    with pytest.raises(ValueError, match="negative entries"):
        nu.mass(2 ** 63, (-1, 0))
    with pytest.raises(ValueError, match="color must be an integer"):
        nu.mass(2.5, (1, 0))


# ---------------------------------------------------------------------------
# relative entropy


def test_relative_entropy_identity_is_zero():
    mu = ColorMeasure(A2, [0.25, 0.75], probability=True)
    assert relative_entropy(mu, mu) == 0.0


def test_relative_entropy_frozen_example():
    # H((1/2,1/2) || (1/4,3/4)) = 0.5 ln 2 + 0.5 ln(2/3) = 0.5 ln(4/3)
    nu = ColorMeasure(A2, [0.5, 0.5], probability=True)
    mu = ColorMeasure(A2, [0.25, 0.75], probability=True)
    assert relative_entropy(nu, mu) == pytest.approx(0.14384103622589042, abs=1e-15)


def test_relative_entropy_infinite_when_support_escapes():
    nu = ColorMeasure(A2, [0.5, 0.5], probability=True)
    mu = ColorMeasure(A2, [1.0, 0.0], probability=True)
    assert relative_entropy(nu, mu) == math.inf


def test_relative_entropy_neighborhood_atomwise():
    nu = NeighborhoodMeasure(A1, {(0, (2,)): 1.0}, probability=True)
    ref = NeighborhoodMeasure(A1, {(0, (0,)): 1.0}, probability=True)
    assert relative_entropy(nu, ref) == math.inf
    assert relative_entropy(nu, nu) == 0.0


def test_relative_entropy_is_finite_against_a_subnormal_mass():
    # w/q = 0.5/1e-310 overflows a float; sum w (ln w - ln q) does not
    nu = ColorMeasure(A2, [0.5, 0.5], probability=True)
    mu = ColorMeasure(A2, [1.0, 1e-310], probability=True)
    expect = 0.5 * math.log(0.5) + 0.5 * (math.log(0.5) - math.log(1e-310))
    assert relative_entropy(nu, mu) == pytest.approx(expect, rel=1e-14)
    heavy = NeighborhoodMeasure(A1, {(0, (0,)): 0.5, (0, (1,)): 0.5}, probability=True)
    tiny = NeighborhoodMeasure(A1, {(0, (0,)): 1.0, (0, (1,)): 1e-310}, probability=True)
    assert relative_entropy(heavy, tiny) == pytest.approx(expect, rel=1e-14)


def test_relative_entropy_keeps_relative_accuracy_where_nu_is_near_mu():
    # w = q (1 + 1e-9): H is about 1e-9, which w (ln w - ln q) gets to about 7e-10
    # relative and w ln(w/q) to about 2e-8
    q = np.array([0.001, 0.01, 0.989])
    w = q * (1 + 1e-9)
    expect = sum(a * math.log1p(float((Fraction(a) - Fraction(b)) / Fraction(b)))
                 for a, b in zip(w.tolist(), q.tolist()))
    h = relative_entropy(ColorMeasure(Alphabet(3), w), ColorMeasure(Alphabet(3), q))
    assert h == pytest.approx(expect, rel=1e-12, abs=0)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
       st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3))
def test_relative_entropy_nonnegative_on_simplex_pairs(wa, wb):
    a3 = Alphabet(3)
    nu = ColorMeasure(a3, np.array(wa) / np.sum(wa), probability=True)
    mu = ColorMeasure(a3, np.array(wb) / np.sum(wb), probability=True)
    h = relative_entropy(nu, mu)
    assert h >= 0.0
    if np.array_equal(nu.weights, mu.weights):
        assert h == 0.0


# ---------------------------------------------------------------------------
# total variation


def test_total_variation_identity_and_disjoint():
    nu = NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True)
    other = NeighborhoodMeasure(A1, {(0, (2,)): 1.0}, probability=True)
    assert total_variation(nu, nu) == 0.0
    assert total_variation(nu, other) == 1.0


def test_total_variation_half_example():
    ell = (1, 0)
    nu = NeighborhoodMeasure(A2, {(0, ell): 1.0}, probability=True)
    mix = NeighborhoodMeasure(A2, {(0, ell): 0.5, (1, ell): 0.5}, probability=True)
    assert total_variation(nu, mix) == pytest.approx(0.5, abs=1e-15)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
def test_total_variation_is_a_metric(wa, wb, wc):
    a4 = Alphabet(4)
    pa = ColorMeasure(a4, np.array(wa) / np.sum(wa), probability=True)
    pb = ColorMeasure(a4, np.array(wb) / np.sum(wb), probability=True)
    pc = ColorMeasure(a4, np.array(wc) / np.sum(wc), probability=True)
    dab = total_variation(pa, pb)
    assert dab == pytest.approx(total_variation(pb, pa), abs=1e-15)
    assert 0.0 <= dab <= 1.0
    assert total_variation(pa, pa) == 0.0
    assert dab <= total_variation(pa, pc) + total_variation(pc, pb) + 1e-12


# ---------------------------------------------------------------------------
# product kernel measure and phi


def test_product_kernel_measure_single_color():
    omega = ColorMeasure(A1, [1.0], probability=True)
    out = product_kernel_measure(Kernel.constant(2.0), omega)
    assert out.weights.tolist() == [[2.0]]


def test_product_kernel_measure_uniform_two_colors():
    omega = ColorMeasure(A2, [0.5, 0.5], probability=True)
    C = Kernel(A2, np.full((2, 2), 3.0))
    out = product_kernel_measure(C, omega)
    assert np.allclose(out.weights, 0.75)
    assert out.total_mass == pytest.approx(3.0, abs=1e-15)


def test_phi_isolated_atom():
    nu = NeighborhoodMeasure(A2, {(1, (0, 0)): 1.0}, probability=True)
    nu1, phi2 = phi(nu)
    assert nu1.weights.tolist() == [0.0, 1.0]
    assert not phi2.any()


def test_phi_two_vertex_graph_measure():
    # one same-color edge on two vertices: M = delta_{(0, (1))}
    m = NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True)
    nu1, phi2 = phi(m)
    assert nu1.weights.tolist() == [1.0]
    assert phi2.tolist() == [[1.0]]


def test_phi_mass_bookkeeping_identity():
    nu = NeighborhoodMeasure(A2, {(0, (2, 1)): 0.25, (1, (0, 3)): 0.5,
                                  (0, (0, 0)): 0.25}, probability=True)
    _, phi2 = phi(nu)
    direct = sum(mass * magnitude(ell) for (a, ell), mass in nu.atoms())
    assert float(phi2.sum()) == pytest.approx(direct, abs=1e-14)


def test_is_sub_consistent_cases():
    nu = NeighborhoodMeasure(A1, {(0, (5,)): 1.0}, probability=True)
    assert not is_sub_consistent(PairMeasure(A1, [[1.0]]), nu)
    assert is_sub_consistent(PairMeasure(A1, [[6.0]]), nu)


def test_degree_distribution_examples():
    nu = NeighborhoodMeasure(A2, {(0, (0, 0)): 1.0}, probability=True)
    assert degree_distribution(nu) == {0: 1.0}
    m = NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True)
    assert degree_distribution(m) == {1: 1.0}


def test_degree_distribution_poisson_limit():
    mu = ColorMeasure(A1, [1.0], probability=True)
    qstar = poisson_limit_law(mu, Kernel.constant(2.0))
    d = degree_distribution(qstar)
    for k in range(8):
        assert d[k] == pytest.approx(math.exp(-2.0) * 2.0 ** k / math.factorial(k),
                                     abs=1e-12)


# ---------------------------------------------------------------------------
# counts and their measures


def test_pair_counts_adjacency_and_edges():
    pc = PairCounts(4, [[1, 2], [2, 0]])
    assert pc.adjacency.tolist() == [[2, 2], [2, 0]]
    assert pc.measure.weights.tolist() == [[0.5, 0.5], [0.5, 0.0]]


def test_phi_counts_integer_identity():
    # counts need not come from a realizable graph; the raw (possibly
    # asymmetric) adjacency tally is returned as-is
    nc = NeighborhoodCounts(4, {(0, (1, 0)): 2, (1, (2, 1)): 1, (1, (0, 1)): 1})
    color, adj = phi_counts(nc)
    assert color.tolist() == [2, 2]
    assert adj.tolist() == [[2, 0], [2, 2]]
    assert adj.dtype.kind == "i" and color.dtype.kind == "i"


# ---------------------------------------------------------------------------
# consistify


def test_consistify_identity_on_consistent_input():
    nu = NeighborhoodMeasure(A1, {(0, (1,)): 1.0}, probability=True)
    pair = PairMeasure(A1, [[1.0]])
    p2, n2 = consistify(pair, nu, 0.1)
    assert p2 is pair and n2 is nu


@pytest.mark.parametrize("delta,eps", [(0.8, 0.1), (0.3, 0.01), (1.7, 0.05)])
def test_consistify_single_deficit_construction(delta, eps):
    """A point mass at degree zero with pair mass delta to absorb.

    The repair must place mass delta/n on the degree-n vector and reproduce
    the pair measure exactly through phi.
    """
    nu = NeighborhoodMeasure(A1, {(0, (0,)): 1.0}, probability=True)
    pair = PairMeasure(A1, [[delta]])
    pair_hat, nu_hat = consistify(pair, nu, eps)
    _, phi2 = phi(nu_hat)
    assert abs(phi2[0, 0] - pair_hat.weights[0, 0]) <= 1e-12
    assert abs(pair_hat.weights[0, 0] - delta) <= eps
    assert total_variation(nu, nu_hat) <= eps
    heavy = [(a, ell) for (a, ell), _ in nu_hat.atoms() if magnitude(ell) > 0]
    assert len(heavy) == 1
    (a, ell), = heavy
    assert nu_hat.mass(a, ell) * ell[0] == pytest.approx(delta, abs=1e-12)


def test_consistify_requires_near_symmetric_phi2():
    nu = NeighborhoodMeasure(A2, {(0, (0, 1)): 1.0}, probability=True)
    pair = PairMeasure(A2, [[0.0, 1.0], [1.0, 0.0]])
    # phi2 is asymmetric here (0,1) vs (1,0): 1 vs 0
    with pytest.raises(ValueError):
        consistify(pair, nu, 0.1)


# ---------------------------------------------------------------------------
# quantize


def _target_pair():
    nu = NeighborhoodMeasure(
        A1, {(0, (0,)): 0.3, (0, (1,)): 0.4, (0, (2,)): 0.3}, probability=True)
    _, phi2 = phi(nu)
    return nu, phi2[0, 0]


def test_quantize_hits_targets_exactly():
    nu, mean_deg = _target_pair()
    n = 200
    cases = [(ColorCounts(n, [n]), PairCounts(n, [[int(round(mean_deg * n / 2))]]), nu, 31)]
    # 2 and 3 colors: the limit law snapped onto a sampled graph's exact counts
    for mu_w, C_raw in (([0.5, 0.5], [[3.0, 1.0], [1.0, 2.0]]),
                        ([0.3, 0.3, 0.4], [[3.0, 1.0, 0.5], [1.0, 2.0, 1.5], [0.5, 1.5, 4.0]])):
        alphabet = Alphabet(len(mu_w))
        mu, C = ColorMeasure(alphabet, mu_w, probability=True), Kernel(alphabet, C_raw)
        for n in (50, 500):
            cc, pc, _ = empirical_measures(sample_colored_graph(ModelParams(mu, C, n), n))
            cases += [(cc, pc, poisson_limit_law(mu, C), derive_child_seed(11, n, i))
                      for i in range(4)]
    for cc, pc, target, seed in cases:
        nu_n = quantize(cc, pc, target, seed)
        color, adj = phi_counts(nu_n)
        assert np.array_equal(color, cc.counts)
        assert np.array_equal(adj, pc.adjacency)
        assert sum(c for _, c in nu_n.atoms()) == cc.n


@pytest.mark.parametrize("seed", [7.9, True, -1, 2 ** 64 + 7],
                         ids=["fraction", "bool", "negative", "past-64-bits"])
def test_quantize_refuses_a_seed_outside_64_bits(seed):
    # default_rng ran True as seed 1 and 2**64 + 7 as a stream no config reaches, and
    # raised its own errors for 7.9 and -1
    nu, mean_deg = _target_pair()
    cc, pc = ColorCounts(200, [200]), PairCounts(200, [[int(round(mean_deg * 100))]])
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\), got "
                       + re.escape(repr(seed))):
        quantize(cc, pc, nu, seed)


def test_quantize_distance_shrinks_with_n():
    """Median distance to the target over 20 seeds is nonincreasing in n."""
    nu, mean_deg = _target_pair()
    medians = []
    for n in (100, 1000, 10000):
        cc = ColorCounts(n, [n])
        pc = PairCounts(n, [[int(round(mean_deg * n / 2))]])
        tvs = sorted(total_variation(quantize(cc, pc, nu, derive_child_seed(7, n, i)).measure, nu)
                     for i in range(20))
        medians.append(tvs[10])
    assert medians[0] >= medians[1] >= medians[2]


def test_quantize_on_already_empirical_target():
    n = 50
    nc = NeighborhoodCounts(n, {(0, (1,)): 40, (0, (0,)): 10})
    color, adj = phi_counts(nc)
    cc = ColorCounts(n, color.tolist())
    pc = PairCounts(n, [[int(adj[0, 0]) // 2]])
    out = quantize(cc, pc, nc.measure, seed=5)
    c2, a2 = phi_counts(out)
    assert np.array_equal(c2, color) and np.array_equal(a2, adj)


# ---------------------------------------------------------------------------
# cap_degrees


def test_cap_degrees_identity_when_within_cap():
    nc = NeighborhoodCounts(8, {(0, (1,)): 8})
    assert cap_degrees(nc) is nc


def test_cap_degrees_redistributes_heavy_vertex():
    n = 1000  # cap = 10
    heavy = 2 * 10
    nc = NeighborhoodCounts(n, {(0, (heavy,)): 1, (0, (0,)): n - 1})
    out = cap_degrees(nc)
    assert out.max_magnitude() <= 10
    assert all(np.array_equal(x, y)
               for x, y in zip(phi_counts(nc), phi_counts(out)))
    assert sum(c for _, c in out.atoms()) == n


def test_cap_degrees_infeasible_when_no_receivers():
    nc = NeighborhoodCounts(8, {(0, (4,)): 8})  # cap 2, low 1, nobody can absorb
    with pytest.raises(InfeasibleError):
        cap_degrees(nc)


def test_cap_degrees_two_colors():
    n = 1000
    nc = NeighborhoodCounts(n, {(0, (15, 9)): 2, (1, (3, 0)): 6,
                                (0, (0, 0)): 500, (1, (0, 0)): n - 508})
    out = cap_degrees(nc)
    assert out.max_magnitude() <= 10
    assert all(np.array_equal(x, y)
               for x, y in zip(phi_counts(nc), phi_counts(out)))


@pytest.mark.parametrize("call, message", [
    (lambda: _real(True, "x"), "x True is not a finite real number"),
    (lambda: _real("1.5", "x"), "x '1.5' is not a finite real number"),
    (lambda: _real(math.nan, "x", 0), "x nan is not a finite real number"),
    (lambda: _real(math.inf, "x", 0), "x inf is not a finite real number"),
    (lambda: _real(10 ** 400, "x"), "x is too large for a float"),
    (lambda: _real(-math.inf, "mean", 0), "mean must be nonnegative, got -inf"),
    (lambda: _real(-1, "beta", 0), "beta must be nonnegative, got -1.0"),
    (lambda: _real(0, "eps", 0, strict=True), "eps must be positive, got 0.0"),
    (lambda: _real(0.5, "s", 1, strict=True), "s must be > 1, got 0.5"),
    (lambda: _whole(2.5, "j", 0), "j must be an integer, got 2.5"),
    (lambda: _whole(-1, "j", 0), "j must be nonnegative, got -1"),
    (lambda: _whole(1, "n", 2), "n must be >= 2, got 1"),
    (lambda: _whole(65, "m", 1, 64), "m must be in [1, 64], got 65"),
], ids=["real-bool", "real-string", "real-nan", "real-inf", "real-past-float", "real-minus-inf",
        "real-negative", "real-zero-strict", "real-strict-low", "whole-fraction",
        "whole-negative", "whole-low", "whole-range"])
def test_scalar_readers_refuse_a_bad_value(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_scalar_readers_return_plain_numbers():
    for value in (np.float64(2.5), Fraction(5, 2), 2.5):
        assert _real(value, "x", 0, strict=True) == 2.5 and type(_real(value, "x")) is float
    assert _real(3, "x") == 3.0 and type(_real(3, "x")) is float
    for value in (np.int64(3), 3.0, 3):
        assert _whole(value, "n", 1, 3) == 3 and type(_whole(value, "n")) is int
