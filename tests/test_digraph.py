"""Graph construction, parsing, distances, gradients, Lipschitz sampling."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from digricci import digraph
from digricci import (
    GraphCurvatureError,
    NegativeWeightError,
    NotStronglyConnectedError,
    ParseError,
    SameVertexError,
    SelfLoopError,
    build_graph,
    distances,
    lipschitz_constant,
    load_graph,
    sample_lipschitz_functions,
)
from conftest import random_strongly_connected


# tokens an edge-list field may hold: ids int() takes or refuses, weights float() takes or refuses
ID_TOKENS = ["0", "1", "2", "3", "+1", "1_0", "-0", "1e3", "-1", "01", "x", "1.0", "\u0661"]
WEIGHT_TOKENS = ["nan", "inf", "-inf", "0", "-0.0", "-1.5", "2", "1e-300", "0x1", "1_0.5", "+.5", "w"]
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\u2028"]


@st.composite
def edge_list_texts(draw) -> str:
    """Edge-list text with comments, blank lines, every line break, 1-4 fields and odd tokens."""
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["arc", "arc", "arc", "blank", "comment"]))
        if kind == "blank":
            line = draw(st.sampled_from(["", "   ", "\t"]))
        elif kind == "comment":
            line = draw(st.sampled_from(["#", "# note", "  # 0 1 2"]))
        else:
            # one token in four is an odd one, and one line in six has 1 or 4 fields
            odd = st.integers(0, 3).map(lambda k: k == 0)
            ids = [draw(st.sampled_from(ID_TOKENS)) if draw(odd) else str(draw(st.integers(0, 5)))
                   for _ in range(2)]
            weights = [draw(st.sampled_from(WEIGHT_TOKENS)) if draw(odd)
                       else repr(draw(st.floats(0.1, 3.0))) for _ in range(2)]
            count = draw(st.sampled_from([1, 2, 2, 3, 3, 4]))
            fields = (ids + weights)[:count]
            line = draw(st.sampled_from([" ", "\t", "  "])).join(fields)
            line = draw(st.sampled_from(["", " "])) + line
            line += draw(st.sampled_from(["", " ", "#c", " # 1 2"]))
        lines.append(line + draw(st.sampled_from(LINE_BREAKS)))
    return "".join(lines)


def parse_outcome(parse, text: str):
    """The weight matrix's shape and bits, or the error's type and message."""
    try:
        mu, labels = parse(text)
    except GraphCurvatureError as exc:
        return type(exc), str(exc)
    return mu.shape, mu.tobytes(), labels


@settings(max_examples=300, deadline=None)
@given(edge_list_texts())
@example("0 1\r\n1 0 # back\x0b\x1c2 2\n")
@example("+1 1_0 nan\n1_0 0\n0 +1 -0.0\n")
@example("0 1 2 3\n1 1\n")
@example("0 1\n0 1 2.5\n")
@example("-1 2 w\n")
@example("1 1 -2\n")
def test_edge_list_parser_is_the_reference_parser(text):
    """The per-line parser accepts exactly what the reference does, with the same matrix bits.

    Otherwise it raises the same error type with the same message,
    which names the first bad line.
    """
    assert parse_outcome(digraph._parse_edge_list, text) == parse_outcome(
        oracles.parse_edge_list_reference, text
    )


class TestParsing:
    def test_edge_list_basic(self):
        g = load_graph("0 1 2.5\n1 2\n2 0 0.5\n# comment\n\n")
        assert g.n == 3
        assert g.arc_count == 3
        assert g.mu[0, 1] == 2.5
        assert g.mu[1, 2] == 1.0
        assert g.mu[2, 0] == 0.5

    def test_edge_list_rejects_duplicate_arc(self):
        with pytest.raises(ParseError):
            load_graph("0 1\n0 1 2.0\n1 0\n")

    def test_edge_list_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            load_graph("0 0\n")

    def test_edge_list_rejects_negative_weight(self):
        with pytest.raises(NegativeWeightError):
            load_graph("0 1 -1\n1 0\n")

    def test_edge_list_rejects_zero_weight(self):
        with pytest.raises(ParseError):
            load_graph("0 1 0\n1 0\n")

    def test_edge_list_rejects_garbage(self):
        with pytest.raises(ParseError):
            load_graph("zero one\n")

    def test_json_document(self):
        g = load_graph('{"n": 3, "arcs": [[0, 1], [1, 2, 2.0], [2, 0]]}')
        assert g.n == 3
        assert g.mu[1, 2] == 2.0

    def test_json_labels(self):
        g = load_graph('{"n": 2, "arcs": [[0, 1], [1, 0]], "labels": ["a", "b"]}')
        assert oracles.label(g, 0) == "a"
        assert oracles.label(g, 1) == "b"

    def test_json_rejects_out_of_range(self):
        with pytest.raises(ParseError):
            load_graph('{"n": 2, "arcs": [[0, 5]]}')

    def test_one_line_text_that_names_no_file_reports_the_parse_error(self):
        """The path-or-text message keeps its prefix and ends with the parser's own."""
        with pytest.raises(ParseError) as excinfo:
            load_graph('{"n": 2, "arcs": [[0, 1, 0]]}')
        message = str(excinfo.value)
        assert message.startswith("no such file and not valid edge text: ")
        assert message.endswith(": arc #0: zero-weight arc; omit it instead")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("0 1\n1 0\n", encoding="utf-8")
        g = load_graph(path)
        assert g.n == 2
        assert load_graph(str(path)).n == 2


class TestBuildGraph:
    def test_rejects_nonsquare(self):
        with pytest.raises(ParseError):
            build_graph(np.ones((2, 3)))

    def test_rejects_diagonal(self):
        mu = np.ones((2, 2))
        with pytest.raises(SelfLoopError):
            build_graph(mu)

    def test_rejects_negative(self):
        mu = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NegativeWeightError):
            build_graph(mu)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_naming_the_arc(self, bad):
        mu = np.array([[0.0, 1.0], [bad, 0.0]])
        with pytest.raises(ParseError, match="arc 1 -> 0 has non-finite weight"):
            build_graph(mu)

    def test_mu_is_read_only(self, g_c3):
        with pytest.raises(ValueError):
            g_c3.mu[0, 1] = 5.0

    def test_reversed_graph(self, g_tri):
        rg = oracles.reversed_graph(g_tri)
        assert np.array_equal(np.asarray(rg.mu), np.asarray(g_tri.mu).T)


def build_or_none(mu: np.ndarray):
    """build_graph(mu), or None when it refuses mu as not strongly connected."""
    try:
        return build_graph(mu)
    except NotStronglyConnectedError:
        return None


class TestStrongConnectivity:
    def test_fixtures_strong(self, g_c3, g_tri, g_k3):
        for g in (g_c3, g_tri, g_k3):
            assert (oracles.hop_distances(np.asarray(g.mu)) < oracles.INF).all()
            assert (distances(g).d == oracles.hop_distances(np.asarray(g.mu))).all()

    def test_path_graph_not_strong(self):
        with pytest.raises(NotStronglyConnectedError, match="no path from 1 to 0"):
            load_graph("0 1\n1 2\n")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * n, max_size=n * n).map(
            lambda bits: np.reshape(bits, (n, n))
        )
    ))
    def test_flag_holds_iff_every_hop_distance_is_finite(self, mask):
        # build_graph accepts a graph with arcs exactly when every hop distance is finite
        mu = np.where(mask, 1.0, 0.0)
        np.fill_diagonal(mu, 0.0)
        if not mu.any():
            with pytest.raises(ParseError, match="no arcs found"):
                build_graph(mu)
            return
        expected = bool((oracles.hop_distances(mu) < oracles.INF).all())
        assert (build_or_none(mu) is not None) == expected

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(2, 40),
        st.floats(0.0, 1.0),
        st.one_of(st.none(), st.integers(0, 39)),
        st.integers(0, 2**32 - 1),
    )
    @example(n=40, density=0.0, cut=20, seed=0)
    @example(n=40, density=0.0, cut=39, seed=0)
    def test_refusal_names_the_first_pair_with_no_path(self, n, density, cut, seed):
        # cut None: a random mask.  Otherwise a ring without the arc cut -> cut + 1
        # under sparse chords, so the searches from 0 meet long geodesics
        rng = np.random.default_rng(seed)
        if cut is None:
            mask = rng.random((n, n)) < density
        else:
            mask = rng.random((n, n)) < density / n
            ring = np.arange(n)
            mask[ring, (ring + 1) % n] = True
            mask[cut % n, (cut + 1) % n] = False
        mu = np.where(mask, 1.0, 0.0)
        np.fill_diagonal(mu, 0.0)
        expected = oracles.hop_distances(mu)
        if not mu.any() or (expected < oracles.INF).all():
            return
        x, y = np.argwhere(expected == oracles.INF)[0]
        with pytest.raises(NotStronglyConnectedError) as excinfo:
            build_graph(mu)
        assert str(excinfo.value) == f"graph is not strongly connected: no path from {x} to {y}"


class TestDistances:
    def test_c3_hand_values(self, g_c3):
        dm = distances(g_c3)
        assert np.array_equal(dm.d, oracles.HAND["c3"]["d"])
        assert dm.lam == 2.0

    def test_tri_hand_values(self, g_tri):
        dm = distances(g_tri)
        assert np.array_equal(dm.d, oracles.HAND["tri"]["d"])
        assert dm.lam == 2.0
        # vertex reach: every vertex of the triangle sees a 2-apart neighbor
        assert np.array_equal(dm.dvert, np.array([2.0, 2.0, 2.0]))

    def test_k3_hand_values(self, g_k3):
        dm = distances(g_k3)
        assert np.array_equal(dm.d, oracles.HAND["k3"]["d"])
        assert dm.lam == 1.0

    def test_weights_do_not_affect_distance(self):
        g1 = load_graph("0 1\n1 2\n2 0\n")
        g2 = load_graph("0 1 7\n1 2 0.5\n2 0 1.9\n")
        assert np.array_equal(distances(g1).d, distances(g2).d)

    def test_bfs_matches_floyd_warshall(self, corpus):
        for g in corpus:
            dm = distances(g)
            assert np.array_equal(dm.d, oracles.hop_distances(np.asarray(g.mu)))

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(1, 40),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_hop_expansion_is_floyd_warshall_exactly(self, n, density, ring, seed):
        # a ring under sparse chords makes long geodesics, so many levels;
        # without it, low densities give graphs that are not strongly connected
        mask = np.random.default_rng(seed).random((n, n)) < density
        if ring:
            mask[np.arange(n), (np.arange(n) + 1) % n] = True
        mu = np.where(mask, 1.0, 0.0)
        np.fill_diagonal(mu, 0.0)
        expected = oracles.hop_distances(mu)
        # every mask, strongly connected or not: -1 marks an unreachable head
        hops = digraph._hop_matrix(mu)
        assert hops.dtype.kind == "i"
        assert np.array_equal(np.where(hops < 0, oracles.INF, hops), expected)
        g = build_or_none(mu) if mu.any() else None
        assert (g is not None) == bool(mu.any() and (expected < oracles.INF).all())
        if g is not None:
            d = distances(g).d
            assert d.dtype.kind == "i"
            assert not d.flags.writeable
            assert np.array_equal(d, expected)

    def test_symmetrized_distance_definition(self, corpus):
        for g in corpus[:10]:
            dm = distances(g)
            dsym = np.maximum(dm.d, dm.d.T)
            mu = np.asarray(g.mu)
            nbr = (mu > 0) | (mu.T > 0)
            for x in range(g.n):
                assert dm.dvert[x] == dsym[x, nbr[x]].max()
            assert dm.lam == dm.dvert.max()

    def test_arcs_are_the_weighted_pairs_in_row_major_order(self, corpus):
        for g in corpus:
            arcs = distances(g).arcs
            assert np.array_equal(arcs, np.argwhere(np.asarray(g.mu) > 0))
            assert not arcs.flags.writeable

    def test_triangle_inequality(self, corpus):
        for g in corpus:
            d = distances(g).d
            n = g.n
            for y in range(n):
                assert (d <= d[:, y, None] + d[None, y, :] + 1e-12).all()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 6), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
    def test_requires_strong_connectivity(self, n, density, seed):
        # no graph reaches distances unless every hop distance is finite
        mask = np.random.default_rng(seed).random((n, n)) < density
        mu = np.where(mask, 1.0, 0.0)
        np.fill_diagonal(mu, 0.0)
        if not mu.any():
            return
        expected = oracles.hop_distances(mu)
        if (expected < oracles.INF).all():
            assert np.array_equal(distances(build_graph(mu)).d, expected)
        else:
            with pytest.raises(NotStronglyConnectedError):
                build_graph(mu)

    def test_permutation_invariance(self, rng):
        g = random_strongly_connected(rng)
        perm = rng.permutation(g.n)
        mu = np.asarray(g.mu)
        gp = build_graph(mu[np.ix_(perm, perm)])
        d, dp = distances(g).d, distances(gp).d
        assert np.array_equal(dp, d[np.ix_(perm, perm)])


class TestGradient:
    def test_hand_gradient(self, g_c3):
        dm = distances(g_c3)
        f = np.array([0.0, 1.0, 2.0])
        assert oracles.gradient(f, 0, 1, dm) == 1.0
        assert oracles.gradient(f, 0, 2, dm) == 1.0
        # going backwards the hop count doubles
        assert oracles.gradient(f, 1, 0, dm) == -0.5

    def test_same_vertex_rejected(self, g_c3):
        with pytest.raises(SameVertexError):
            oracles.gradient(np.zeros(3), 1, 1, distances(g_c3))

    def test_gradient_matrix_agrees_pointwise(self, g_tri, rng):
        dm = distances(g_tri)
        f = rng.normal(size=3)
        gm = oracles.gradient_matrix(f, dm)
        for x in range(3):
            for y in range(3):
                if x != y:
                    assert gm[x, y] == oracles.gradient(f, x, y, dm)

    def test_distance_rays_are_one_lipschitz(self, g_tri):
        # f = d(a, .) and f = -d(., a) have slope exactly 1 and never more
        dm = distances(g_tri)
        for a in range(3):
            assert lipschitz_constant(dm.d[a], dm) == pytest.approx(1.0)
            assert lipschitz_constant(-dm.d[:, a], dm) == pytest.approx(1.0)

    def test_asymmetry_matters(self, g_tri):
        # the raw column d(., a) is steeper than 1 against the arc direction
        dm = distances(g_tri)
        assert lipschitz_constant(dm.d[:, 2], dm) == pytest.approx(2.0)


class TestLipschitzSampler:
    def test_samples_are_one_lipschitz(self, corpus, rng):
        for g in corpus[:10]:
            dm = distances(g)
            for f in sample_lipschitz_functions(dm, 25, rng):
                assert lipschitz_constant(f, dm) <= 1.0 + 1e-12
                assert oracles.is_one_lipschitz(f, dm.d)

    def test_no_samples_is_an_empty_stack(self, g_tri):
        dm = distances(g_tri)
        assert sample_lipschitz_functions(dm, 0, np.random.default_rng(7)).shape == (0, 3)

    def test_deterministic_given_seed(self, g_tri):
        dm = distances(g_tri)
        a = sample_lipschitz_functions(dm, 10, np.random.default_rng(7))
        b = sample_lipschitz_functions(dm, 10, np.random.default_rng(7))
        assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=0, max_value=30))
def test_array_drawn_samples_are_the_per_sample_loop(seed, count):
    """Bit for bit the per-sample oracle, from the same three draws in the same order.

    Every sample is 1-Lipschitz.
    """
    g = random_strongly_connected(np.random.default_rng(seed), n_max=7)
    dm = distances(g)
    fs = sample_lipschitz_functions(dm, count, np.random.default_rng(seed))
    ref = oracles.lipschitz_samples_per_sample(dm, count, np.random.default_rng(seed))
    assert fs.shape == ref.shape == (count, g.n)
    assert fs.tobytes() == ref.tobytes()
    assert (lipschitz_constant(fs, dm) <= 1.0 + 1e-12).all()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_random_graph_distance_properties(seed):
    rng = np.random.default_rng(seed)
    g = random_strongly_connected(rng, n_max=6)
    dm = distances(g)
    d = dm.d
    assert (np.diag(d) == 0).all()
    off = d[~np.eye(g.n, dtype=bool)]
    assert (off >= 1).all()
    assert (off < g.n).all()
    assert dm.lam >= 1.0
