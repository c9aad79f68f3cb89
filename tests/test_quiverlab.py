import random
import time

import networkx as nx
import pytest

from singlab.errors import NotIdempotent, NotQuasiDominant, WindowExceedsBound
from singlab.fields import QQ, QQI, GaussianRational
from singlab.findim import (
    endomorphism_algebra,
    idempotent_from_projection,
    truncated_polynomial_algebra,
)
from singlab.linalg import ExactMatrix
from singlab.quiverlab import (
    Quiver,
    arrow_element,
    block_polynomial,
    derived_preprojective,
    drinfeld_cohomology,
    drinfeld_quotient,
    dsg_blocks,
    extended_dynkin,
    idempotent_element,
    path_basis,
    path_multiply,
    path_name,
    preprojective_relations,
    quasi_dominant,
    truncated_algebra_dim,
)
from singlab.polyring import Ring, parse_poly


def a2_quiver():
    return Quiver(("1", "2"), (("a", 0, 1),))


def test_vertex_idempotents():
    q = a2_quiver()
    e1 = idempotent_element(q, QQ, 0)
    e2 = idempotent_element(q, QQ, 1)
    assert not (e1 * e2).terms
    assert (e1 * e1).terms == e1.terms
    # sum of idempotents acts as the identity on every path
    a = arrow_element(q, QQ, 0)
    one = e1 + e2
    assert (one * a).terms == a.terms
    assert (a * one).terms == a.terms


def test_path_basis_and_multiply():
    q = a2_quiver()
    paths = path_basis(q, 2)
    assert [path_name(q, p) for p in paths] == ["e_1", "e_2", "a"]
    e1 = (0, ())
    a = (0, (0,))
    assert path_multiply(q, e1, a) == a
    assert path_multiply(q, a, e1) is None  # a ends at vertex 2


def test_truncated_dims_no_relations_counts_paths():
    q = a2_quiver()
    dims = truncated_algebra_dim(q, [], 3)
    assert dims == [2, 3, 3, 3]


def test_preprojective_a2_stabilises():
    q = a2_quiver()
    dq, rels = preprojective_relations(q)
    assert len(rels) == 2
    assert all(r.max_length() <= 2 for r in rels)
    dims = truncated_algebra_dim(dq, rels, 5)
    assert dims == [2, 4, 4, 4, 4, 4]  # dim Pi(A_2) = 4


def test_preprojective_affine_a1_grows_linearly():
    q = extended_dynkin("A1")
    dq, rels = preprojective_relations(q)
    dims = truncated_algebra_dim(dq, rels, 5)
    diffs = [b - a for a, b in zip(dims, dims[1:])]
    assert diffs[1:] == [diffs[1] + 2 * k for k in range(len(diffs) - 1)] or all(
        d2 - d1 == diffs[2] - diffs[1] for d1, d2 in zip(diffs[1:], diffs[2:])
    )


def test_deformed_relations_differ_by_lambda():
    q = a2_quiver()
    _, plain = preprojective_relations(q, field=QQI)
    _, deformed = preprojective_relations(q, lam=[1, 0], field=QQI)
    delta = deformed[0] - plain[0]
    assert list(delta.terms) == [(0, ())]
    assert delta.terms[(0, ())] == GaussianRational(-1)
    assert (deformed[1] - plain[1]).terms == {}


def test_derived_preprojective_h0_matches_oracle():
    q = a2_quiver()
    dg = derived_preprojective(q)
    dq, rels = preprojective_relations(q, field=dg.field)
    oracle = truncated_algebra_dim(dq, rels, 4, dg.field)
    assert dg.h0_truncated_dims(4) == oracle


def test_derived_preprojective_differential_degree_zero():
    q = a2_quiver()
    dg = derived_preprojective(q, lam=[2, 0])
    for i in range(q.n):
        rel = dg.d_t(i)
        assert rel.max_length() <= 2  # lands in the degree-0 part


def test_quasi_dominant():
    i = GaussianRational(0, 1)
    assert quasi_dominant([0, 1, 0])
    assert not quasi_dominant([-1, 0])
    assert quasi_dominant([i, 2])
    assert not quasi_dominant([-i])
    assert quasi_dominant([])


def test_blocks_a3_example():
    report = dsg_blocks("A3", [0, 1, 0])
    assert report.to_json() == [
        {"polynomial": "x^2 + y^2 + z^2", "type": "A1", "vertices": ["1"]},
        {"polynomial": "x^2 + y^2 + z^2", "type": "A1", "vertices": ["3"]},
    ]


def test_blocks_zero_weight_is_full_dynkin():
    for label, expected in (
        ("A4", "A4"),
        ("D4", "D4"),
        ("D6", "D6"),
        ("E6", "E6"),
        ("E7", "E7"),
        ("E8", "E8"),
    ):
        n = extended_dynkin(label).n - 1
        report = dsg_blocks(label, [0] * n)
        assert len(report.blocks) == 1
        assert report.to_json()[0]["type"] == expected


def test_blocks_all_nonzero_is_empty():
    report = dsg_blocks("E6", [1, 1, 1, 1, 1, 1])
    assert report.to_json() == []


def test_blocks_refuse_non_quasi_dominant():
    with pytest.raises(NotQuasiDominant):
        dsg_blocks("A3", [-1, 0, 0])


def test_polynomials_parse_in_three_variables():
    ring = Ring(("x", "y", "z"))
    for kind, size in (("A", 1), ("A", 5), ("D", 4), ("D", 7),
                       ("E6", 6), ("E7", 7), ("E8", 8)):
        parse_poly(ring, block_polynomial(kind, size))


def networkx_dynkin_oracle(vertices, edges):
    """Classify a component by explicit isomorphism against candidates."""
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    n = len(vertices)
    candidates = []
    path = nx.path_graph(n)
    candidates.append(("A", n, path))
    if n >= 4:
        d = nx.path_graph(n - 1)
        d.add_edge(n - 1, n - 3)
        candidates.append(("D", n, d))
    if n == 6:
        e = nx.path_graph(5)
        e.add_edge(5, 2)
        candidates.append(("E6", 6, e))
    if n == 7:
        e = nx.path_graph(6)
        e.add_edge(6, 3)
        candidates.append(("E7", 7, e))
    if n == 8:
        e = nx.path_graph(7)
        e.add_edge(7, 4)
        candidates.append(("E8", 8, e))
    for kind, size, graph in candidates:
        if nx.is_isomorphic(g, graph):
            return (kind, size)
    raise AssertionError("component matched no ADE candidate")


def brute_force_blocks(label, lam):
    """Independent component finding + networkx classification."""
    q = extended_dynkin(label)
    internal = [v for v in range(q.n) if v != q.extending]
    weight_of = dict(zip(internal, lam))
    zero = {
        v
        for v in internal
        if not (weight_of[v].re if isinstance(weight_of[v], GaussianRational)
                else weight_of[v])
        and not (weight_of[v].im if isinstance(weight_of[v], GaussianRational)
                 else 0)
    }
    g = nx.Graph()
    g.add_nodes_from(zero)
    for (a, b) in q.underlying_edges():
        if a in zero and b in zero:
            g.add_edge(a, b)
    blocks = []
    for comp in nx.connected_components(g):
        comp = sorted(comp)
        edges = [e for e in q.underlying_edges()
                 if e[0] in comp and e[1] in comp]
        kind, size = networkx_dynkin_oracle(comp, edges)
        blocks.append((kind, size, sorted(q.vertices[v] for v in comp)))
    blocks.sort(key=lambda b: b[2])
    return blocks


QUASI_DOMINANT_POOL = [
    0,
    0,
    0,
    1,
    2,
    GaussianRational(0, 1),
    GaussianRational(1, 1),
    GaussianRational(0, 2),
    GaussianRational(3, -1),
]


def test_blocks_match_brute_force_oracle():
    rng = random.Random(2024)
    labels = ["A2", "A3", "A5", "A7", "D4", "D5", "D6", "E6", "E7", "E8"]
    for label in labels:
        n = extended_dynkin(label).n - 1
        for _ in range(20):
            lam = [rng.choice(QUASI_DOMINANT_POOL) for _ in range(n)]
            report = dsg_blocks(label, lam)
            assert report.blocks == brute_force_blocks(label, lam)


def test_classification_matches_networkx_on_components():
    rng = random.Random(7)
    for label in ("A6", "D7", "E8"):
        q = extended_dynkin(label)
        internal = [v for v in range(q.n) if v != q.extending]
        for _ in range(10):
            lam = [rng.choice([0, 0, 1]) for _ in internal]
            for kind, size, verts in dsg_blocks(label, lam).blocks:
                idx = [q.vertices.index(v) for v in verts]
                edges = [
                    e for e in q.underlying_edges()
                    if e[0] in idx and e[1] in idx
                ]
                assert networkx_dynkin_oracle(idx, edges) == (kind, size)


def test_extended_dynkin_shapes():
    for label, vertices, edges in (
        ("A1", 2, 2),
        ("A4", 5, 5),
        ("D4", 5, 4),
        ("E6", 7, 6),
        ("E7", 8, 7),
        ("E8", 9, 8),
    ):
        q = extended_dynkin(label)
        assert q.n == vertices and len(q.arrows) == edges


# -- Drinfeld quotients -----------------------------------------------------


def end_r_plus_k():
    """End_R(R (+) k) for R = Q[x]/x^2, with e = id_R."""
    x_action = ExactMatrix.from_rows(QQ, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    alg, mats = endomorphism_algebra(QQ, [x_action], 3)
    e = idempotent_from_projection(alg, mats, 3, [0, 1])
    return alg, e


def test_drinfeld_dual_numbers_acyclic():
    a = truncated_polynomial_algebra(QQ, 2)
    d = drinfeld_quotient(a, a.unit_vector(), 7)
    dims = drinfeld_cohomology(d, [0, -1, -2, -3, -4])
    assert dims == {0: 0, -1: 0, -2: 0, -3: 0, -4: 0}


def test_drinfeld_zero_idempotent():
    a = truncated_polynomial_algebra(QQ, 2)
    d = drinfeld_quotient(a, a.zero_vector(), 4)
    assert drinfeld_cohomology(d, [0, -1, -2]) == {0: 2, -1: 0, -2: 0}


def test_drinfeld_rejects_non_idempotent():
    a = truncated_polynomial_algebra(QQ, 2)
    x = a.basis_vector(1)
    with pytest.raises(NotIdempotent):
        drinfeld_quotient(a, x, 3)


def stable_ext_oracle(degrees):
    """Stable Ext of k over R = Q[x]/x^2 via the 2-periodic complete
    resolution ... -x-> R -x-> R -x-> ...: apply Hom(-, k); the induced
    maps are multiplication by x on k, computed here from the module
    structure (x acts by 0), so every cohomology is k."""
    x_on_k = ExactMatrix.zero(QQ, 1, 1)
    dims = {}
    for j in degrees:
        # complex ... -> k -x*=0-> k -> ...: ker/im = 1 - 0 - 0
        incoming = x_on_k.rank()
        outgoing = x_on_k.rank()
        dims[j] = 1 - incoming - outgoing
    return dims


def test_drinfeld_end_algebra_matches_stable_ext():
    alg, e = end_r_plus_k()
    assert alg.dim == 5
    assert alg.is_idempotent(e)
    d = drinfeld_quotient(alg, e, 7)
    window = [0, -1, -2, -3, -4]
    dims = drinfeld_cohomology(d, window)
    oracle = stable_ext_oracle([-1, -2, -3, -4])
    assert dims[0] == 1  # End(k) in the stable category
    for j in (-1, -2, -3, -4):
        assert dims[j] == oracle[j] == 1


def test_drinfeld_h0_is_quotient_dimension():
    alg, e = end_r_plus_k()
    ae = [alg.multiply(alg.basis_vector(i), e) for i in range(alg.dim)]
    ea = [alg.multiply(e, alg.basis_vector(i)) for i in range(alg.dim)]
    aea = alg.left_ideal_times(
        alg.subspace_basis(ae), alg.subspace_basis(ea)
    )
    d = drinfeld_quotient(alg, e, 4)
    dims = drinfeld_cohomology(d, [0])
    assert dims[0] == alg.dim - len(aea)


def test_drinfeld_d_squared_zero():
    alg, e = end_r_plus_k()
    d = drinfeld_quotient(alg, e, 5)
    for deg in (-3, -2, -1):
        for key in d.component_basis(deg):
            image = d.differential(key, deg)
            acc = {}
            for tkey, c in image.items():
                for t2, c2 in d.differential(tkey, deg + 1).items():
                    acc[t2] = acc.get(t2, QQ.zero()) + c * c2
            assert not any(acc.values())


def test_drinfeld_window_guard():
    a = truncated_polynomial_algebra(QQ, 2)
    d = drinfeld_quotient(a, a.unit_vector(), 3)
    with pytest.raises(WindowExceedsBound):
        drinfeld_cohomology(d, [0, -1, -2, -3])


def test_quiver_json_roundtrip():
    q = extended_dynkin("D5")
    again = Quiver.from_json(q.to_json())
    assert again.vertices == q.vertices
    assert again.arrows == q.arrows
    assert again.extending == q.extending


def test_kleinian_polynomials_have_matching_milnor_numbers():
    # cross-module check: the Milnor number of each ADE polynomial in the
    # hard-coded table equals the rank of its Dynkin diagram, and the
    # Tjurina number agrees because every entry is quasi-homogeneous
    from singlab.polyring import milnor_algebra, tjurina_algebra

    ring = Ring(("x", "y", "z"))
    cases = [("A", n) for n in range(1, 6)]
    cases += [("D", n) for n in range(4, 7)]
    cases += [("E6", 6), ("E7", 7), ("E8", 8)]
    for kind, rank in cases:
        sigma = parse_poly(ring, block_polynomial(kind, rank))
        _, mu = milnor_algebra(sigma)
        _, tau = tjurina_algebra(sigma)
        assert mu == rank, (kind, rank, mu)
        assert tau == mu


def test_drinfeld_end_algebra_depth_10_scale():
    # Dense elimination could not reach depth 8 of this complex in minutes;
    # sparse elimination keeps depth 10 within a few seconds.
    alg, e = end_r_plus_k()
    start = time.perf_counter()
    d = drinfeld_quotient(alg, e, 10)
    window = list(range(0, -9, -1))
    dims = drinfeld_cohomology(d, window)
    elapsed = time.perf_counter() - start
    assert dims == {j: 1 for j in window}
    assert elapsed < 6.0, f"depth 10 took {elapsed:.2f} s"
