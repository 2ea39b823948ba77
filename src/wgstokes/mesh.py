"""Simplicial meshes (triangles/tetrahedra) with the geometry the discretization needs.

A mesh is immutable after construction. Facet normals are stored once,
oriented outward with respect to the lower-indexed adjacent element (outward
from the domain on boundary facets). Everything the discretization needs per
element is computed once, as arrays with a leading element axis: outward
normals and measures of the local facets (local facet i is opposite local
vertex i), volumes, centroids, and the centroid second moment

    m_K = integral_K |x - x_K|^2 dx

in closed form, together with the derived constant d*|K|/m_K that scales the
piecewise weak-gradient basis.

The topology comes from one stable lexicographic sort of the local facets,
each written as its sorted vertex indices: a run of equal rows is one facet,
facets are numbered in lexicographic order, and the rows of a run come in
increasing element order, so the lower-indexed element is the first one.
Duplicate elements are found the same way, from a sort of the elements'
sorted vertex indices.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "DuplicateElementError",
    "InvertedElementError",
    "DisconnectedMeshError",
    "UnsupportedCellError",
    "structured_simplex_mesh",
    "generate_structured_tri",
    "generate_structured_tet",
    "load_mesh",
    "write_mesh",
]


class MeshError(ValueError):
    """Base class for mesh construction/validation failures."""


class DuplicateElementError(MeshError):
    pass


class InvertedElementError(MeshError):
    pass


class DisconnectedMeshError(MeshError):
    pass


class UnsupportedCellError(MeshError):
    pass


def _signed_volumes(vertices: np.ndarray, elements: np.ndarray) -> np.ndarray:
    d = vertices.shape[1]
    v = vertices[elements]
    edges = v[:, 1:, :] - v[:, :1, :]
    return np.linalg.det(edges) / math.factorial(d)


def _lex_runs(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows, the sorted rows, and a mask
    that is True where a run of equal rows starts in that order.

    The order is the one `np.unique(rows, axis=0)` gives, and equal rows keep
    their original order.
    """
    order = np.lexsort(rows.T[::-1])  # lexsort keys its last row first
    ordered = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(ordered[1:] != ordered[:-1], axis=1, out=starts[1:])
    return order, ordered, starts


class Mesh:
    """Conforming simplicial mesh of a connected domain in 2D or 3D.

    Stores struct-of-arrays connectivity and per-element geometry.
    Construction validates element orientation, conformity, connectedness
    and nondegeneracy.
    """

    def __init__(self, vertices: np.ndarray, elements: np.ndarray):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
            raise MeshError("vertices must be (nv, 2) or (nv, 3)")
        d = vertices.shape[1]
        if elements.ndim != 2 or elements.shape[1] != d + 1:
            raise MeshError(f"elements must be (ne, {d + 1}) for dim {d}")
        if len(elements) == 0:
            raise MeshError("mesh has no elements")
        # numpy would wrap a negative index to a real vertex and fail later
        # on one past the end, so check the range before any indexing
        outside = np.any((elements < 0) | (elements >= len(vertices)), axis=1)
        if np.any(outside):
            bad = int(np.argmax(outside))
            raise MeshError(
                f"element {bad} has vertex indices {elements[bad].tolist()} outside "
                f"[0, {len(vertices)})"
            )
        self.dim = d
        self.vertices = vertices
        self.elements = elements

        # a duplicated element would also share every facet three ways, so
        # this check runs before the facet count's more general complaint
        if not np.all(_lex_runs(np.sort(elements, axis=1))[2]):
            raise DuplicateElementError("mesh contains duplicate elements")

        vols = _signed_volumes(vertices, elements)
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise InvertedElementError(
                f"element {bad} has nonpositive signed volume {vols[bad]:.3e}"
            )
        self.elem_volumes = vols

        ev = vertices[elements]  # (ne, d+1, d)
        self.elem_centroids = ev.mean(axis=1)
        i, j = np.triu_indices(d + 1, 1)  # each vertex pair once
        diff = ev[:, i] - ev[:, j]
        self.elem_diameters = np.sqrt((diff**2).sum(-1)).max(axis=1)

        # reject slivers: grad_scale = d|K|/m_K blows up as the moment vanishes
        hmax = float(self.elem_diameters.max())
        if np.any(vols < 1e-14 * hmax**d):
            bad = int(np.argmin(vols))
            raise InvertedElementError(f"element {bad} is degenerate")

        self._build_facets()
        self._check_connected()

        # local facet i is opposite local vertex i; its stored normal is
        # outward for the element iff the element is the facet's first one
        fidx = self.elem_facets
        first = self.facet_elems[fidx, 0] == np.arange(len(fidx))[:, None]
        sign = np.where(first, 1.0, -1.0)
        self.elem_normals = self.facet_normals[fidx] * sign[..., None]  # (ne, d+1, d)
        self.elem_facet_measures = self.facet_measures[fidx]  # (ne, d+1)
        # integral_K |x - x_K|^2 dx over a simplex, in closed form: with x_K
        # the vertex average it equals |K|/((d+1)(d+2)) * sum_i |v_i - x_K|^2
        r2 = ((ev - self.elem_centroids[:, None, :]) ** 2).sum(axis=(1, 2))
        self.elem_second_moments = vols * r2 / ((d + 1) * (d + 2))
        self.elem_grad_scales = d * vols / self.elem_second_moments

    # ---- connectivity ----------------------------------------------------

    def _build_facets(self) -> None:
        d, ne = self.dim, len(self.elements)
        # local facet i consists of the element vertices excluding position i
        keep = np.array([[j for j in range(d + 1) if j != i] for i in range(d + 1)])
        keys = np.sort(self.elements[:, keep].reshape(ne * (d + 1), d), axis=1)
        # one sort numbers the facets in lexicographic order; row k of keys is
        # local facet k % (d+1) of element k // (d+1), so inside a run of equal
        # keys the lower element comes first
        order, ordered, new = _lex_runs(keys)
        starts = np.flatnonzero(new)
        counts = np.diff(starts, append=len(keys))
        if np.any(counts > 2):
            raise MeshError("non-conforming mesh: facet shared by more than 2 elements")
        facets = ordered[starts]
        self.facets = facets
        elem_facets = np.empty(len(keys), dtype=np.int64)
        elem_facets[order] = np.cumsum(new) - 1
        self.elem_facets = elem_facets.reshape(ne, d + 1)

        # the normal convention keys off the lower-indexed adjacent element
        second = counts == 2
        facet_elems = np.full((len(facets), 2), -1, dtype=np.int64)
        facet_elems[:, 0] = order[starts] // (d + 1)
        facet_elems[second, 1] = order[starts[second] + 1] // (d + 1)
        self.facet_elems = facet_elems
        self.boundary_facets = np.flatnonzero(~second)
        self.interior_facets = np.flatnonzero(second)

        fv = self.vertices[facets]  # (nf, d, d)
        self.facet_barycenters = fv.mean(axis=1)
        if d == 2:
            t = fv[:, 1] - fv[:, 0]
            self.facet_measures = np.linalg.norm(t, axis=1)
            normals = np.column_stack([t[:, 1], -t[:, 0]])
        else:
            c = np.cross(fv[:, 1] - fv[:, 0], fv[:, 2] - fv[:, 0])
            self.facet_measures = 0.5 * np.linalg.norm(c, axis=1)
            normals = c
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        # flip so each normal points away from its first adjacent element
        sign = np.sign(
            np.einsum(
                "fd,fd->f",
                normals,
                self.facet_barycenters - self.elem_centroids[facet_elems[:, 0]],
            )
        )
        self.facet_normals = normals * sign[:, None]

    def _check_connected(self) -> None:
        ne = len(self.elements)
        if ne == 1:
            return
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        pairs = self.facet_elems[self.interior_facets]
        if len(pairs) == 0:
            raise DisconnectedMeshError("mesh has no interior facets")
        g = coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(ne, ne)
        )
        ncomp, _ = connected_components(g, directed=False)
        if ncomp != 1:
            raise DisconnectedMeshError(
                f"element adjacency graph has {ncomp} components"
            )

    # ---- queries ---------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_elements(self) -> int:
        return len(self.elements)

    @property
    def num_facets(self) -> int:
        return len(self.facets)


# ---- generators ----------------------------------------------------------


def generate_structured_tri(n: int) -> Mesh:
    """Unit square, n x n cells, each split into 2 triangles along the x=y diagonal."""
    if n < 1:
        raise MeshError("n must be >= 1")
    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel()])
    # lower-left vertex of cell (i, j) is i*(n+1) + j, cells in row-major order
    i, j = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    a = (i * (n + 1) + j).ravel()
    b, c, d = a + n + 1, a + n + 2, a + 1
    elements = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3)
    return Mesh(vertices, elements)


def generate_structured_tet(n: int) -> Mesh:
    """Unit cube, n^3 cells, each split into 6 tetrahedra (path split).

    Tet p of a cell traverses the cube from (0,0,0) to (1,1,1) along the
    axis order given by permutation p; odd permutations are reordered so
    every tetrahedron has positive signed volume. The split is conforming
    across cells.
    """
    if n < 1:
        raise MeshError("n must be >= 1")
    import itertools

    xs = np.linspace(0.0, 1.0, n + 1)
    gx, gy, gz = np.meshgrid(xs, xs, xs, indexing="ij")
    vertices = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])

    # vertex offsets of the 6 path tets from the cell's lower corner
    stride = np.array([(n + 1) ** 2, n + 1, 1])
    perms = np.array(list(itertools.permutations(range(3))))
    offsets = np.column_stack([np.zeros(6, dtype=np.int64), np.cumsum(stride[perms], axis=1)])
    # parity of the permutation decides the orientation
    odd = np.linalg.det(np.eye(3)[perms]) < 0
    offsets[odd] = offsets[odd][:, [0, 2, 1, 3]]
    i, j, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    corner = (((i * (n + 1) + j) * (n + 1)) + k).ravel()
    elements = (corner[:, None, None] + offsets[None]).reshape(-1, 4)
    return Mesh(vertices, elements)


def structured_simplex_mesh(dim: int, n: int) -> Mesh:
    """Structured mesh of the unit square (dim=2) or unit cube (dim=3)."""
    if dim == 2:
        return generate_structured_tri(n)
    if dim == 3:
        return generate_structured_tet(n)
    raise MeshError(f"dim must be 2 or 3, got {dim}")


# ---- io ------------------------------------------------------------------


def write_mesh(mesh: Mesh, path: str | Path) -> None:
    """Native text format: `dim nv ne` header, nv coordinate lines, ne 1-based index lines."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write(f"{mesh.dim} {mesh.num_vertices} {mesh.num_elements}\n")
        for v in mesh.vertices:
            fh.write(" ".join(f"{c:.17g}" for c in v) + "\n")
        for e in mesh.elements:
            fh.write(" ".join(str(i + 1) for i in e) + "\n")


def _load_native(tokens: list[str]) -> Mesh:
    try:
        dim, nv, ne = (int(t) for t in tokens[:3])
        end = 3 + nv * dim + ne * (dim + 1)
        if len(tokens) != end:
            raise ValueError(
                f"header gives {nv} vertices and {ne} elements in {dim}D, "
                f"so {end} tokens, but the file has {len(tokens)}"
            )
        vertices = np.array(tokens[3 : 3 + nv * dim], dtype=float).reshape(nv, dim)
        elements = np.array(tokens[3 + nv * dim : end], dtype=np.int64).reshape(ne, dim + 1)
    except ValueError as exc:
        raise MeshError(f"malformed native mesh file: {exc}") from exc
    return Mesh(vertices, elements - 1)


def _load_gmsh(text: str) -> Mesh:
    lines = [ln.strip() for ln in text.splitlines()]

    def section(name):
        try:
            a = lines.index(f"${name}")
            b = lines.index(f"$End{name}")
        except ValueError as exc:
            raise MeshError(f"gmsh file missing ${name} section") from exc
        return a + 1, lines[a + 1 : b]

    def malformed(start, row, exc):
        # start is the index of the section's first line, so +1 is 1-based
        return MeshError(
            f"malformed gmsh line {start + row + 1}: {lines[start + row]!r} ({exc})"
        )

    def records(name):
        # like _load_native, trust no count: it must match the lines present
        start, body = section(name)
        try:
            count = int(body[0])
        except (ValueError, IndexError) as exc:
            raise malformed(start, 0, exc) from exc
        if count != len(body) - 1:
            raise MeshError(
                f"gmsh ${name} section: its count line says {count}, but "
                f"{len(body) - 1} lines follow it"
            )
        return start, body[1:]

    fmt = section("MeshFormat")[1][0].split()
    if not fmt[0].startswith("2.2"):
        raise MeshError(f"unsupported gmsh format version {fmt[0]}")

    start, node_lines = records("Nodes")
    coords = np.empty((len(node_lines), 3))
    ids = {}
    try:
        for row, ln in enumerate(node_lines, 1):
            parts = ln.split()
            num = int(parts[0])
            coords[row - 1] = [float(p) for p in parts[1:4]]
            if num in ids:
                break
            ids[num] = row - 1
    except (ValueError, IndexError) as exc:
        raise malformed(start, row, exc) from exc
    if len(ids) != len(node_lines):
        # keeping either row would silently move the elements that name the id
        raise MeshError(
            f"gmsh node id {num} repeats: lines {start + ids[num] + 2} and {start + row + 1}"
        )

    start, elem_lines = records("Elements")
    parsed = []
    try:
        for row, ln in enumerate(elem_lines, 1):
            parts = [int(p) for p in ln.split()]
            parsed.append((parts[0], parts[1], parts[3 + parts[2] :]))
    except (ValueError, IndexError) as exc:
        raise malformed(start, row, exc) from exc
    cells = []
    cell_type = None
    for num, etype, nodes in parsed:
        if etype not in (2, 4):
            raise UnsupportedCellError(f"gmsh element type {etype} not supported")
        if cell_type is None:
            cell_type = etype
        elif cell_type != etype:
            raise UnsupportedCellError("mixed triangle/tetrahedron gmsh file")
        try:
            cells.append([ids[n] for n in nodes])
        except KeyError as exc:
            raise MeshError(f"gmsh element {num} names unknown node {exc.args[0]}") from None
    if cell_type is None:
        raise MeshError("gmsh file contains no elements")
    dim = 2 if cell_type == 2 else 3
    if dim == 2 and np.max(np.abs(coords[:, 2])) > 1e-12:
        raise MeshError("triangle mesh with nonzero z coordinates")
    return Mesh(coords[:, :dim], np.array(cells))


def load_mesh(path: str | Path) -> Mesh:
    """Read a mesh from the native text format or a Gmsh MSH 2.2 ASCII file.

    A file whose first line is `$MeshFormat` is read as Gmsh, any other as native.
    """
    text = Path(path).read_text(encoding="utf-8")
    if text.lstrip().startswith("$MeshFormat"):
        return _load_gmsh(text)
    return _load_native(text.split())
