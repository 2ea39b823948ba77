"""Mesh generators, geometry, validation errors and file round-trips."""

import math
import random
import re

import numpy as np
import pytest

from oracles import duffy_rule, jittered_mesh, map_to_physical, mesh_topology_oracle
from wgstokes.mesh import (
    Mesh,
    MeshError,
    generate_structured_tet,
    generate_structured_tri,
    load_mesh,
    write_mesh,
)


def test_tri_n1_counts():
    m = generate_structured_tri(1)
    assert m.num_elements == 2
    assert m.num_facets == 5
    assert len(m.interior_facets) == 1
    assert len(m.boundary_facets) == 4


def test_tri_n2_counts_and_conformity():
    m = generate_structured_tri(2)
    assert m.num_elements == 8
    inner = m.facet_elems[m.interior_facets]
    assert np.all(inner >= 0)
    assert np.all(inner[:, 0] < inner[:, 1])


def test_tri_h_and_quasi_uniformity():
    m = generate_structured_tri(4)
    dia = m.elem_diameters
    assert dia.max() == pytest.approx(math.sqrt(2.0) / 4.0)
    assert m.num_elements == 32
    assert dia.max() / dia.min() == pytest.approx(1.0)


def test_tet_counts_and_volume():
    m = generate_structured_tet(1)
    assert m.num_elements == 6
    assert m.elem_volumes.sum() == pytest.approx(1.0, abs=1e-14)
    m2 = generate_structured_tet(2)
    assert m2.num_elements == 48
    assert m2.elem_volumes.sum() == pytest.approx(1.0, abs=1e-13)


def test_tet_boundary_area():
    m = generate_structured_tet(3)
    area = m.facet_measures[m.boundary_facets].sum()
    assert area == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("mesh", [generate_structured_tri(3), generate_structured_tet(2)])
def test_closed_surface_identity(mesh):
    # sum_i |e_i| n_i = 0 on every element
    for k in range(mesh.num_elements):
        measures = mesh.elem_facet_measures[k]
        resid = (measures[:, None] * mesh.elem_normals[k]).sum(axis=0)
        assert np.linalg.norm(resid) < 1e-12 * measures.sum()


@pytest.mark.parametrize("mesh", [generate_structured_tri(2), generate_structured_tet(1)])
def test_normal_orientation_convention(mesh):
    normals, bary, elems = mesh.facet_normals, mesh.facet_barycenters, mesh.facet_elems
    out0 = np.einsum("fd,fd->f", normals, bary - mesh.elem_centroids[elems[:, 0]])
    assert np.all(out0 > 0)
    assert np.allclose(np.linalg.norm(normals, axis=1), 1.0, atol=1e-14)
    inner = mesh.interior_facets
    assert np.all(elems[inner, 0] < elems[inner, 1])
    out1 = np.einsum(
        "fd,fd->f", normals[inner], bary[inner] - mesh.elem_centroids[elems[inner, 1]]
    )
    assert np.all(out1 < 0)
    assert np.all(elems[mesh.boundary_facets, 1] == -1)


def test_element_sign_flip():
    # the two elements of an interior facet see opposite outward normals;
    # the first one sees the stored facet normal
    m = generate_structured_tri(2)
    for f in m.interior_facets:
        k0, k1 = m.facet_elems[f]
        i0 = list(m.elem_facets[k0]).index(f)
        i1 = list(m.elem_facets[k1]).index(f)
        assert np.array_equal(m.elem_normals[k0, i0], m.facet_normals[f])
        assert np.array_equal(m.elem_normals[k1, i1], -m.facet_normals[f])


def test_element_geometry_reference_triangle():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = Mesh(verts, np.array([[0, 1, 2]]))
    centroid, volume = m.elem_centroids[0], m.elem_volumes[0]
    moment = m.elem_second_moments[0]
    assert centroid == pytest.approx([1.0 / 3.0, 1.0 / 3.0])
    assert volume == pytest.approx(0.5)
    # second moment against a dense quadrature oracle
    bary, w = duffy_rule(2, 6)
    pts = map_to_physical(verts, bary)
    oracle = volume * float(w @ ((pts - centroid) ** 2).sum(axis=1))
    assert moment == pytest.approx(oracle, rel=1e-13)
    assert moment == pytest.approx(1.0 / 18.0, rel=1e-14)
    assert m.elem_grad_scales[0] == pytest.approx(2.0 * 0.5 / (1.0 / 18.0), rel=1e-14)


def test_second_moment_oracle_tets():
    m = generate_structured_tet(2)
    bary, w = duffy_rule(3, 6)
    rng = np.random.default_rng(3)
    for k in rng.choice(m.num_elements, size=5, replace=False):
        pts = map_to_physical(m.vertices[m.elements[k]], bary)
        oracle = m.elem_volumes[k] * float(w @ ((pts - m.elem_centroids[k]) ** 2).sum(axis=1))
        assert m.elem_second_moments[k] == pytest.approx(oracle, rel=1e-12)


def test_duplicate_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(MeshError, match="mesh contains duplicate elements"):
        Mesh(verts, np.array([[0, 1, 2], [2, 1, 0]]))


def test_duplicate_element_inside_a_mesh_rejected():
    # the copy shares every facet three ways as well; the duplicate is reported
    m = generate_structured_tri(2)
    elements = np.vstack([m.elements, np.roll(m.elements[3], 1)])
    with pytest.raises(MeshError, match="mesh contains duplicate elements"):
        Mesh(m.vertices, elements)


def test_facet_of_three_elements_rejected():
    # three distinct triangles on the edge 0-1, none a copy of another
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    with pytest.raises(MeshError, match="non-conforming") as info:
        Mesh(verts, np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]]))
    assert "duplicate" not in str(info.value)


def test_inverted_element_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="element 0 has nonpositive signed volume"):
        Mesh(verts, np.array([[0, 2, 1]]))


def test_disconnected_mesh_rejected():
    verts = np.array(
        [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0], [6.0, 5.0], [5.0, 6.0]]
    )
    with pytest.raises(MeshError, match="mesh has no interior facets"):
        Mesh(verts, np.array([[0, 1, 2], [3, 4, 5]]))


def test_disconnected_mesh_with_interior_facets_rejected():
    verts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
             [5.0, 0.0], [6.0, 0.0], [6.0, 1.0], [5.0, 1.0]]
    with pytest.raises(MeshError, match="element adjacency graph has 2 components"):
        Mesh(verts, [[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]])


def test_sliver_element_rejected():
    # positive volume, but below 1e-14 h^d
    with pytest.raises(MeshError, match="element 0 is degenerate"):
        Mesh([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-15]], [[0, 1, 2]])


@pytest.mark.parametrize(
    "elements", [[[0, 1, 2], [0, 2, 4]], [[0, 1, 2], [0, 2, -1]]], ids=["past-end", "negative"]
)
def test_vertex_index_out_of_range_rejected(elements):
    # -1 would wrap to vertex 3 and give a valid unit square
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="outside"):
        Mesh(verts, np.array(elements))


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_non_finite_coordinates_rejected(bad):
    # a NaN volume passes the volume and sliver tests; an inf in vertex 3 made
    # element 0, which does not use it, look degenerate
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [bad, 1.0]]
    with pytest.raises(MeshError, match=r"^vertex 3 has non-finite coordinates \[.+, 1\.0\]$"):
        Mesh(verts, [[0, 1, 2], [1, 3, 2]])


@pytest.mark.parametrize(
    "elements", [[[0.7, 1.2, 2.9]], [[0.0, 1.0, 2.0], [1.0, math.nan, 2.0]]], ids=["fraction", "nan"]
)
def test_non_integer_element_indices_rejected(elements):
    verts = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    bad = len(elements) - 1
    with pytest.raises(MeshError, match=f"^element {bad} has non-integer vertex indices"):
        Mesh(verts, elements)
    # whole numbers stored as floats are indices
    assert Mesh(verts, [[0.0, 1.0, 2.0]]).elements.tolist() == [[0, 1, 2]]


def test_mesh_without_elements_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(MeshError, match="no elements"):
        Mesh(verts, np.zeros((0, 3), dtype=int))


def test_native_roundtrip(tmp_path):
    m = generate_structured_tri(2)
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    m2 = load_mesh(path)
    assert m2.dim == m.dim
    assert np.allclose(m2.vertices, m.vertices)
    assert np.array_equal(m2.elements, m.elements)
    assert np.array_equal(m2.facets, m.facets)


def test_native_roundtrip_tet(tmp_path):
    m = generate_structured_tet(2)
    path = tmp_path / "mesh3d.txt"
    write_mesh(m, path)
    m2 = load_mesh(path)
    assert np.allclose(m2.vertices, m.vertices)
    assert np.array_equal(m2.elements, m.elements)


def test_native_header_must_count_every_token(tmp_path):
    # a header that undercounts the elements must not load 7 of 8 triangles
    path = tmp_path / "mesh.txt"
    write_mesh(generate_structured_tri(2), path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text(lines[0].replace(" 8", " 7") + "".join(lines[1:]))
    with pytest.raises(MeshError, match="9 vertices and 7 elements"):
        load_mesh(path)


def test_native_negative_count_named(tmp_path):
    # the token count 3 + (-3)*2 + 1*3 = 0 would hide which header entry is wrong
    path = tmp_path / "mesh.txt"
    path.write_text("2 -3 1\n0 0\n1 0\n0 1\n1 2 3\n")
    message = "^malformed native mesh file: header 2 -3 1 has a negative count$"
    with pytest.raises(MeshError, match=message):
        load_mesh(path)


@pytest.mark.parametrize("index", ["999999999999999999999", "-9223372036854775809"])
def test_native_element_index_past_int64_named(tmp_path, index):
    # numpy raises OverflowError, not ValueError, for such a token
    path = tmp_path / "mesh.txt"
    path.write_text(f"2 4 2\n0 0\n1 0\n1 1\n0 1\n1 2 3\n1 {index} 4\n")
    message = (
        f"^malformed native mesh file: element 1 has vertex index {index}, "
        "outside the int64 range$"
    )
    with pytest.raises(MeshError, match=message):
        load_mesh(path)


def test_non_utf8_mesh_file_named(tmp_path):
    path = tmp_path / "mesh.msh"
    path.write_bytes(b"\xff\xfe\x00")
    with pytest.raises(MeshError, match=f"^mesh file {re.escape(str(path))} is not UTF-8 text: "):
        load_mesh(path)


GMSH_SQUARE = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 4
$EndElements
"""


def test_gmsh_reader(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE)
    m = load_mesh(path)
    assert m.dim == 2
    assert m.num_elements == 2
    assert m.elem_volumes.sum() == pytest.approx(1.0)


@pytest.mark.parametrize(
    "good,bad,match",
    [
        ("2.2 0 8\n", "", r"gmsh \$MeshFormat section has no version line"),
        ("2.2 0 8\n", "\n", r"gmsh \$MeshFormat section has no version line"),
        ("2.2 0 8\n", "4.1 0 8\n", "unsupported gmsh format version 4.1"),
        ("2 2 2 0 1 1 3 4\n", "2 4 2 0 1 1 2 3 4\n", "mixed triangle/tetrahedron gmsh file"),
    ],
    ids=["empty-format", "blank-version", "version-4", "mixed-cells"],
)
def test_gmsh_format_and_cell_errors(tmp_path, good, bad, match):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE.replace(good, bad))
    with pytest.raises(MeshError, match=match):
        load_mesh(path)


@pytest.mark.parametrize(
    "good,bad,match",
    [
        ("$Nodes\n4\n", "$Nodes\n5\n", "Nodes section: its count line says 5, but 4 lines"),
        ("$Elements\n2\n", "$Elements\n1\n", "Elements section: its count line says 1, but 2"),
        ("$Elements\n2\n", "$Elements\n3\n", "Elements section: its count line says 3, but 2"),
    ],
    ids=["node-overcount", "element-undercount", "element-overcount"],
)
def test_gmsh_section_count_must_match_its_lines(tmp_path, good, bad, match):
    # trusting the count would leave unset vertices or drop elements silently
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE.replace(good, bad))
    with pytest.raises(MeshError, match=match):
        load_mesh(path)


@pytest.mark.parametrize(
    "name,end,begin", [("Nodes", 4, 10), ("Elements", 11, 15)], ids=["nodes", "elements"]
)
def test_gmsh_end_line_before_its_section_named(tmp_path, name, end, begin):
    path = tmp_path / "square.msh"
    swapped = GMSH_SQUARE.replace(f"${name}\n", "@\n").replace(f"$End{name}\n", f"${name}\n")
    path.write_text(swapped.replace("@\n", f"$End{name}\n"))
    with pytest.raises(
        MeshError, match=rf"^gmsh \$End{name} on line {end} comes before \${name} on line {begin}$"
    ):
        load_mesh(path)


@pytest.mark.parametrize(
    "bad,count", [("2 2 2 0 1 1 3", 2), ("2 2 2 0 1 1 3 4 2", 4)], ids=["short", "long"]
)
def test_gmsh_element_node_count_must_match_its_type(tmp_path, bad, count):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE.replace("2 2 2 0 1 1 3 4", bad))
    with pytest.raises(
        MeshError, match=f"^gmsh element 2 on line 14 has {count} nodes, but type 2 takes 3$"
    ):
        load_mesh(path)


@pytest.mark.parametrize(
    "name,second,first_line",
    [("Nodes", "1\n5 2 2 0", 4), ("Elements", "1\n3 2 2 0 1 1 2 4", 11)],
    ids=["nodes", "elements"],
)
def test_gmsh_second_section_named(tmp_path, name, second, first_line):
    # reading only the first section would drop the second without a word
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE + f"${name}\n{second}\n$End{name}\n")
    with pytest.raises(
        MeshError, match=rf"^gmsh file has two \${name} sections, on lines {first_line} and 16$"
    ):
        load_mesh(path)


@pytest.mark.parametrize(
    "bad,tags,fields",
    [("2 2 -1 1 3 4", -1, 3), ("2 2 9 0 1 1 3 4", 9, 5)],
    ids=["negative", "past-the-line"],
)
def test_gmsh_element_tag_count_must_fit_its_line(tmp_path, bad, tags, fields):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE.replace("2 2 2 0 1 1 3 4", bad))
    with pytest.raises(
        MeshError,
        match=f"^gmsh element 2 on line 14 has tag count {tags}, but {fields} fields follow it$",
    ):
        load_mesh(path)


@pytest.mark.parametrize("fifth", ["2 9 9 0", "2 1.1 0 0"], ids=["inverts", "stretches"])
def test_gmsh_repeated_node_id_rejected(tmp_path, fifth):
    # either row of node 2 would move the elements that name it: the first
    # line inverts an element, the second loads a domain of area 1.05
    path = tmp_path / "square.msh"
    path.write_text(
        GMSH_SQUARE.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
            "4 0 1 0\n", f"4 0 1 0\n{fifth}\n"
        )
    )
    with pytest.raises(MeshError, match="node id 2 repeats: lines 7 and 10"):
        load_mesh(path)


def test_gmsh_unsupported_type(tmp_path):
    content = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
2
1 0 0 0
2 1 0 0
$EndNodes
$Elements
1
1 1 2 0 1 1 2
$EndElements
"""
    path = tmp_path / "line.msh"
    path.write_text(content)
    with pytest.raises(MeshError, match="gmsh element type 1 not supported"):
        load_mesh(path)


def test_gmsh_unknown_node_rejected(tmp_path):
    content = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
2
1 2 2 0 1 1 2 3
2 2 2 0 1 1 3 7
$EndElements
"""
    path = tmp_path / "square.msh"
    path.write_text(content)
    with pytest.raises(MeshError, match="unknown node 7"):
        load_mesh(path)


@pytest.mark.parametrize(
    "good,bad,lineno",
    [("2 1 0 0", "2 x 0 0", 7), ("2 2 2 0 1 1 3 4", "2 2 2 0 1 1 3 x", 14)],
    ids=["node", "element"],
)
def test_gmsh_malformed_line_named(tmp_path, good, bad, lineno):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE.replace(good, bad))
    with pytest.raises(MeshError, match=f"line {lineno}: '{bad}'"):
        load_mesh(path)


NATIVE_SQUARE = "2 4 2\n0 0\n1 0\n1 1\n0 1\n1 2 3\n1 3 4\n"
# NaN, inf, negative, past-int64 and over-long integers, section names and
# plain small numbers, which keep many mutants well formed
MUTANT_TOKENS = (
    "nan", "inf", "-inf", "1e308", "0.5", "-1", "0", "1", "2", "3", "4", "2.2", "x",
    str(2**63), str(-(2**63) - 1), "9" * 30, "$Nodes", "$EndElements",
)


def mutants(text: str, count: int, rng: random.Random):
    """`count` copies of `text`, each with one to three edits: a token
    replaced, inserted or deleted, or a line copied to another place."""
    lines = [ln.split() for ln in text.splitlines()]
    for _ in range(count):
        rows = [list(row) for row in lines]
        for _ in range(rng.randint(1, 3)):
            row = rows[rng.randrange(len(rows))]
            edit = rng.randrange(4)
            if edit == 0 and row:
                row[rng.randrange(len(row))] = rng.choice(MUTANT_TOKENS)
            elif edit == 1:
                row.insert(rng.randint(0, len(row)), rng.choice(MUTANT_TOKENS))
            elif edit == 2 and row:
                del row[rng.randrange(len(row))]
            else:
                rows.insert(rng.randint(0, len(rows)), list(row))
        yield "".join(" ".join(row) + "\n" for row in rows)


@pytest.mark.parametrize("base", [NATIVE_SQUARE, GMSH_SQUARE], ids=["native", "gmsh"])
def test_mutated_mesh_file_gives_a_mesh_or_a_mesh_error(tmp_path, base):
    path = tmp_path / "mesh.txt"
    path.write_text(base)
    assert load_mesh(path).num_elements == 2
    outcomes = {Mesh: 0, MeshError: 0}
    for text in mutants(base, 2500, random.Random(5)):
        path.write_text(text)
        try:
            load_mesh(path)
            outcomes[Mesh] += 1
        except MeshError:
            outcomes[MeshError] += 1
        except Exception as exc:  # any other error is a reader fault: show its input
            pytest.fail(f"{exc!r} from mesh file {text!r}")
    assert min(outcomes.values()) > 0, outcomes


def test_zero_subdivisions_rejected():
    with pytest.raises(MeshError):
        generate_structured_tri(0)
    with pytest.raises(MeshError):
        generate_structured_tet(0)


def loop_structured_elements(dim, n):
    """Cell-by-cell construction of the structured splits, the reference for
    the vectorised generators."""
    import itertools

    elements = []
    for cell in itertools.product(range(n), repeat=dim):
        if dim == 2:
            i, j = cell
            a, b = i * (n + 1) + j, (i + 1) * (n + 1) + j
            elements += [[a, b, b + 1], [a, b + 1, a + 1]]
            continue
        for perm in itertools.permutations(range(3)):
            corner = list(cell)
            path = [corner]
            for axis in perm:
                corner = corner.copy()
                corner[axis] += 1
                path.append(corner)
            tet = [(i * (n + 1) + j) * (n + 1) + k for i, j, k in path]
            if sum(perm[a] > perm[b] for a in range(3) for b in range(a + 1, 3)) % 2:
                tet[1], tet[2] = tet[2], tet[1]
            elements.append(tet)
    return np.array(elements)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structured_generators_match_loop_construction(n):
    # benchmark meshes and their reference errors depend on this exact numbering
    assert np.array_equal(generate_structured_tri(n).elements, loop_structured_elements(2, n))
    assert np.array_equal(generate_structured_tet(n).elements, loop_structured_elements(3, n))


def test_tet_mesh_uniform_diameters():
    m = generate_structured_tet(2)
    assert np.allclose(m.elem_diameters, math.sqrt(3.0) / 2.0)


def _relabelled(mesh, seed):
    """The same mesh with permuted vertex labels and shuffled element order."""
    rng = np.random.default_rng(seed)
    label = rng.permutation(mesh.num_vertices)  # old vertex i is new vertex label[i]
    vertices = np.empty_like(mesh.vertices)
    vertices[label] = mesh.vertices
    return Mesh(vertices, label[mesh.elements][rng.permutation(mesh.num_elements)])


def _gmsh_square(tmp_path):
    path = tmp_path / "square.msh"
    path.write_text(GMSH_SQUARE)
    return load_mesh(path)


@pytest.mark.parametrize(
    "build",
    [
        lambda _: generate_structured_tri(3),
        lambda _: generate_structured_tet(2),
        lambda _: jittered_mesh(2, 6, 1),
        lambda _: jittered_mesh(3, 3, 2),
        lambda _: _relabelled(jittered_mesh(2, 5, 3), 4),
        lambda _: _relabelled(jittered_mesh(3, 3, 5), 6),
        _gmsh_square,
    ],
    ids=[
        "tri-3", "tet-2", "tri-jittered-6", "tet-jittered-3",
        "tri-relabelled", "tet-relabelled", "gmsh-square",
    ],
)
def test_topology_matches_oracle(tmp_path, build):
    mesh = build(tmp_path)
    for name, expected in mesh_topology_oracle(mesh.elements, mesh.vertices).items():
        assert np.array_equal(getattr(mesh, name), expected), name


def test_facet_numbering_is_exact_for_vertex_ids_past_2_to_the_21():
    # one int64 key packing three ids below nv, (a*nv + b)*nv + c, wraps
    # around here, and the facet without the smallest id wraps once more
    # than the others, so its order would flip; the facets must still come
    # in lexicographic order
    nv = 3_100_008
    ids = np.array([3_100_001, 2**21, 3_100_002, 3_100_000])
    vertices = np.zeros((nv, 3))  # the vertices no element names stay unused
    vertices[ids] = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    mesh = Mesh(vertices, ids[None, :])
    assert mesh.num_facets == 4
    for name, expected in mesh_topology_oracle(mesh.elements, mesh.vertices).items():
        assert np.array_equal(getattr(mesh, name), expected), name


def _negative_zeros(mesh):
    """The same mesh with every zero coordinate written as -0.0."""
    vertices = mesh.vertices.copy()
    vertices[vertices == 0.0] = -0.0
    return Mesh(vertices, mesh.elements)


@pytest.mark.parametrize(
    "mesh",
    [jittered_mesh(2, 5, 1), jittered_mesh(3, 3, 2), _negative_zeros(jittered_mesh(3, 2, 3))],
    ids=["tri-jittered", "tet-jittered", "tet-negative-zeros"],
)
def test_geometry_is_bitwise_numpys_axis_reductions(mesh):
    # the geometry is summed component by component; it must equal, to the
    # bit, the numpy reductions over the vertex and component axes
    d = mesh.dim
    ev, fv = mesh.vertices[mesh.elements], mesh.vertices[mesh.facets]
    t = fv[:, 1] - fv[:, 0]
    span = np.column_stack([t[:, 1], -t[:, 0]]) if d == 2 else np.cross(t, fv[:, 2] - fv[:, 0])
    norm = np.linalg.norm(span, axis=1)
    pairs = np.triu_indices(d + 1, 1)
    expected = {
        "elem_centroids": ev.mean(axis=1),
        "elem_diameters": np.sqrt(((ev[:, pairs[0]] - ev[:, pairs[1]]) ** 2).sum(-1)).max(axis=1),
        "facet_barycenters": fv.mean(axis=1),
        "facet_measures": norm if d == 2 else 0.5 * norm,
        "elem_second_moments": mesh.elem_volumes
        * ((ev - ev.mean(axis=1)[:, None, :]) ** 2).sum(axis=(1, 2))
        / ((d + 1) * (d + 2)),
    }
    for name, value in expected.items():
        assert getattr(mesh, name).tobytes() == value.tobytes(), name
