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

The topology comes from one stable sort of the local facets, each written
as its sorted vertex indices, keyed by the first two packed into one exact
integer and, in 3D, the third: a run of equal rows is one facet, facets are
numbered in lexicographic order, and the rows of a run come in increasing
element order, so the lower-indexed element is the first one. Duplicate
elements are found from the same runs, as two rows of one facet that omit
the same vertex.

The geometry is computed from component-major coordinates, so each numpy
call runs over contiguous rows, and each short sum is written out in the
order numpy's reduction over that axis adds it: every array is bitwise what
`.mean`, `.sum` and `np.linalg.norm` over the vertex or component axis give.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

__all__ = [
    "Mesh",
    "MeshError",
    "structured_simplex_mesh",
    "generate_structured_tri",
    "generate_structured_tet",
    "load_mesh",
    "write_mesh",
]


class MeshError(ValueError):
    """Invalid mesh input: a mesh that cannot be built, validated or read."""


def _signed_volumes(edges: np.ndarray) -> np.ndarray:
    """Signed volume of each simplex from its (ne, d, d) edges v_k - v_0."""
    return np.linalg.det(edges) / math.factorial(edges.shape[-1])


def _ordered_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Sum of equal-shape arrays in the order `np.add.reduce` adds that many
    values along a contiguous axis: one by one below 8 terms; from 8 to 15,
    eight running terms added pairwise, then the rest one by one (numpy's
    pairwise summation). numpy also starts from +0.0, which changes only a
    sum whose terms are all -0.0; a caller whose terms can be adds 0.0.
    """
    if len(terms) < 8:
        total = terms[0] + terms[1]
        rest = terms[2:]
    else:
        pairs = [terms[k] + terms[k + 1] for k in range(0, 8, 2)]
        total = (pairs[0] + pairs[1]) + (pairs[2] + pairs[3])
        rest = terms[8:]
    for term in rest:
        total += term
    return total


def _local_facets(elements: np.ndarray) -> np.ndarray:
    """(ne*(d+1), d): the vertex ids of every local facet, each row in
    increasing order. Row k is local facet k % (d+1) of element k // (d+1),
    the one opposite that local vertex."""
    ne, d = elements.shape[0], elements.shape[1] - 1
    keep = [[j for j in range(d + 1) if j != i] for i in range(d + 1)]
    ids = elements[:, keep]  # (ne, d+1, d)
    out = np.empty_like(ids)
    a, b = ids[..., 0], ids[..., 1]
    if d == 2:
        np.minimum(a, b, out=out[..., 0])
        np.maximum(a, b, out=out[..., 1])
    else:  # a sorting network of three compare-exchanges
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        c = ids[..., 2]
        np.maximum(hi, c, out=out[..., 2])
        mid = np.minimum(hi, c, out=hi)
        np.minimum(lo, mid, out=out[..., 0])
        np.maximum(lo, mid, out=out[..., 1])
    return out.reshape(ne * (d + 1), d)


def _lex_runs(ids: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Stable lexicographic order of the rows of `ids` (vertex ids below
    `nv`), and a mask that is True where a run of equal rows starts in that
    order. Equal rows keep their original order.

    The first two ids pack into one exact key, a*nv + b (nv**2 < 2**63 for
    any vertex array below 3e9 rows); a third id is one more sort key.
    """
    packed = ids[:, 0] * nv
    packed += ids[:, 1]
    rest = ids.T[2:]
    order = np.lexsort((*rest, packed))  # lexsort keys its last entry first
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    key = packed[order]
    np.not_equal(key[1:], key[:-1], out=new[1:])
    for col in rest:
        key = col[order]
        new[1:] |= key[1:] != key[:-1]
    return order, new


def _has_duplicates(elements: np.ndarray, order: np.ndarray, starts: np.ndarray,
                    counts: np.ndarray) -> bool:
    """Whether two elements have the same vertex ids, from the runs of their
    sorted local facets (`_lex_runs` of `_local_facets`).

    Two such elements share every local facet and omit the same vertex from
    it. When no run is longer than two rows, those two are the whole run, so
    comparing the vertex each of a run's two rows omits decides. Longer runs
    come only from meshes that are rejected anyway, and there the elements'
    sorted rows are compared directly.
    """
    if counts.max() > 2:
        return len(np.unique(np.sort(elements, axis=1), axis=0)) < len(elements)
    pair = starts[counts == 2]
    r0, r1 = order[pair], order[pair + 1]
    omitted = elements.ravel()  # row k of _local_facets omits vertex k of this
    d1 = elements.shape[1]
    return bool(np.any((omitted[r0] == omitted[r1]) & (r0 // d1 != r1 // d1)))


class Mesh:
    """Conforming simplicial mesh of a connected domain in 2D or 3D.

    Stores struct-of-arrays connectivity and per-element geometry.
    Construction validates finite coordinates, whole-number vertex indices,
    element orientation, conformity, connectedness and nondegeneracy.
    """

    def __init__(self, vertices: np.ndarray, elements: np.ndarray):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        elements = np.asarray(elements)
        if vertices.ndim != 2 or vertices.shape[1] not in (2, 3):
            raise MeshError("vertices must be (nv, 2) or (nv, 3)")
        if not np.isfinite(vertices).all():  # a NaN volume passes every test below
            bad = int(np.argmin(np.isfinite(vertices).all(axis=1)))
            raise MeshError(f"vertex {bad} has non-finite coordinates {vertices[bad].tolist()}")
        d = vertices.shape[1]
        if elements.ndim != 2 or elements.shape[1] != d + 1:
            raise MeshError(f"elements must be (ne, {d + 1}) for dim {d}")
        if len(elements) == 0:
            raise MeshError("mesh has no elements")
        if elements.dtype.kind == "f":  # the int64 cast would truncate without a word
            whole = (np.isfinite(elements) & (elements == np.trunc(elements))).all(axis=1)
            if not whole.all():
                bad = int(np.argmin(whole))
                raise MeshError(
                    f"element {bad} has non-integer vertex indices {elements[bad].tolist()}"
                )
        elements = np.ascontiguousarray(elements, dtype=np.int64)
        # numpy would wrap a negative index to a real vertex and fail later
        # on one past the end, so check the range before any indexing
        nv = len(vertices)
        if elements.min() < 0 or elements.max() >= nv:
            bad = int(np.argmax(np.any((elements < 0) | (elements >= nv), axis=1)))
            raise MeshError(
                f"element {bad} has vertex indices {elements[bad].tolist()} outside "
                f"[0, {nv})"
            )
        self.dim = d
        self.vertices = vertices
        self.elements = elements

        # one sort of the local facets numbers the facets; a duplicated
        # element would also share every facet three ways, so its check reads
        # the same runs and comes before the facet count's more general
        # complaint
        ids = _local_facets(elements)
        order, new = _lex_runs(ids, nv)
        starts = np.flatnonzero(new)
        counts = np.diff(starts, append=len(order))
        if _has_duplicates(elements, order, starts, counts):
            raise MeshError("mesh contains duplicate elements")

        # vertex coordinates component-major, (d, d+1, ne), so that each
        # operation below runs over contiguous rows
        x = np.take(vertices.T, elements.T, axis=1)
        # v_l - v_k for each vertex pair k < l; the first d are the edges
        # from vertex 0
        diff = np.empty((d, d * (d + 1) // 2, len(elements)))
        at = 0
        for k in range(d):
            np.subtract(x[:, k + 1 :], x[:, k : k + 1], out=diff[:, at : at + d - k])
            at += d - k
        vols = _signed_volumes(diff[:, :d].transpose(2, 1, 0))
        if np.any(vols <= 0.0):
            bad = int(np.argmin(vols))
            raise MeshError(f"element {bad} has nonpositive signed volume {vols[bad]:.3e}")
        self.elem_volumes = vols

        # every sum below is written out in the order numpy's reduction over
        # the short axis adds it, so each value is bitwise what
        # .mean/.sum/linalg.norm over that axis gives
        centroids = _ordered_sum([x[:, k] for k in range(d + 1)])
        centroids /= d + 1
        self.elem_centroids = np.ascontiguousarray(centroids.T)
        # the longest edge: the largest squared length, then one sqrt, which
        # is monotone and correctly rounded
        diff *= diff
        self.elem_diameters = np.sqrt(_ordered_sum(list(diff)).max(axis=0))

        # reject slivers: grad_scale = d|K|/m_K blows up as the moment vanishes
        hmax = float(self.elem_diameters.max())
        if np.any(vols < 1e-14 * hmax**d):
            bad = int(np.argmin(vols))
            raise MeshError(f"element {bad} is degenerate")
        if counts.max() > 2:
            raise MeshError("non-conforming mesh: facet shared by more than 2 elements")

        self._build_facets(ids, order, new, starts, counts)
        self._check_connected()

        # local facet i is opposite local vertex i; its stored normal is
        # outward for the element iff the element is the facet's first one,
        # that is iff its row starts the facet's run
        fidx = self.elem_facets
        first = np.empty(len(order), dtype=bool)
        first[order] = new
        sign = np.where(first.reshape(fidx.shape), 1.0, -1.0)
        self.elem_normals = np.take(self.facet_normals, fidx, axis=0) * sign[..., None]
        self.elem_facet_measures = np.take(self.facet_measures, fidx)  # (ne, d+1)
        # integral_K |x - x_K|^2 dx over a simplex, in closed form: with x_K
        # the vertex average it equals |K|/((d+1)(d+2)) * sum_i |v_i - x_K|^2
        dev = x - centroids[:, None, :]
        dev *= dev
        r2 = _ordered_sum([dev[c, k] for k in range(d + 1) for c in range(d)])
        self.elem_second_moments = vols * r2 / ((d + 1) * (d + 2))
        self.elem_grad_scales = d * vols / self.elem_second_moments

    # ---- connectivity ----------------------------------------------------

    def _build_facets(self, ids, order, new, starts, counts) -> None:
        """Number the facets from the runs of the sorted local facets
        (`_lex_runs` of `_local_facets`) and compute their geometry.

        Facets are numbered in lexicographic order of their vertex ids; row k
        of `ids` is local facet k % (d+1) of element k // (d+1), so inside a
        run the lower element comes first.
        """
        d, ne = self.dim, len(self.elements)
        lead = order[starts]  # the first row of each run
        self.facets = facets = np.take(ids, lead, axis=0)
        elem_facets = np.empty(len(order), dtype=np.int64)
        elem_facets[order] = np.cumsum(new) - 1
        self.elem_facets = elem_facets.reshape(ne, d + 1)

        # the normal convention keys off the lower-indexed adjacent element
        second = counts == 2
        facet_elems = np.full((len(facets), 2), -1, dtype=np.int64)
        facet_elems[:, 0] = lead // (d + 1)
        facet_elems[second, 1] = order[starts[second] + 1] // (d + 1)
        self.facet_elems = facet_elems
        self.boundary_facets = np.flatnonzero(~second)
        self.interior_facets = np.flatnonzero(second)

        # component-major again, (d, d, nf); sums in numpy's order
        x = np.take(self.vertices.T, facets.T, axis=1)
        t = x[:, 1] - x[:, 0]
        if d == 2:
            measures = np.sqrt(_ordered_sum(list(t * t)))
            normals = np.stack([t[1], -t[0]])
            normals /= measures
        else:
            s = x[:, 2] - x[:, 0]
            normals = np.empty_like(t)  # the cross product t x s
            for k, (p, q) in enumerate(((1, 2), (2, 0), (0, 1))):
                np.multiply(t[p], s[q], out=normals[k])
                normals[k] -= t[q] * s[p]
            norm = np.sqrt(_ordered_sum(list(normals * normals)))
            measures = 0.5 * norm
            normals /= norm
        self.facet_measures = measures
        bary = _ordered_sum([x[:, k] for k in range(d)])
        bary += 0.0  # numpy's sum of -0.0 coordinates is +0.0 (_ordered_sum)
        bary /= d
        self.facet_barycenters = bary = np.ascontiguousarray(bary.T)
        normals = np.ascontiguousarray(normals.T)
        # flip so each normal points away from its first adjacent element
        away = bary - np.take(self.elem_centroids, facet_elems[:, 0], axis=0)
        normals *= np.sign(np.einsum("fd,fd->f", normals, away))[:, None]
        self.facet_normals = normals

    def _check_connected(self) -> None:
        ne = len(self.elements)
        if ne == 1:
            return
        from scipy.sparse import coo_matrix
        from scipy.sparse.csgraph import connected_components

        pairs = np.take(self.facet_elems, self.interior_facets, axis=0)
        if len(pairs) == 0:
            raise MeshError("mesh has no interior facets")
        g = coo_matrix(
            (np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(ne, ne)
        )
        ncomp, _ = connected_components(g, directed=False)
        if ncomp != 1:
            raise MeshError(f"element adjacency graph has {ncomp} components")

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
        if min(dim, nv, ne) < 0:
            raise ValueError(f"header {dim} {nv} {ne} has a negative count")
        end = 3 + nv * dim + ne * (dim + 1)
        if len(tokens) != end:
            raise ValueError(
                f"header gives {nv} vertices and {ne} elements in {dim}D, "
                f"so {end} tokens, but the file has {len(tokens)}"
            )
        vertices = np.array(tokens[3 : 3 + nv * dim], dtype=float).reshape(nv, dim)
        cells = tokens[3 + nv * dim : end]
        try:
            elements = np.array(cells, dtype=np.int64).reshape(ne, dim + 1)
        except OverflowError:  # not a ValueError: name the entry instead
            k = next(i for i, t in enumerate(cells) if not -(2**63) <= int(t) < 2**63)
            raise ValueError(
                f"element {k // (dim + 1)} has vertex index {cells[k]}, outside the int64 range"
            ) from None
    except ValueError as exc:
        raise MeshError(f"malformed native mesh file: {exc}") from exc
    return Mesh(vertices, elements - 1)


def _load_gmsh(text: str) -> Mesh:
    lines = [ln.strip() for ln in text.splitlines()]

    def section(name):
        starts = [i for i, ln in enumerate(lines) if ln == f"${name}"]
        if len(starts) > 1:  # reading one alone would drop the other without a word
            first, second = (i + 1 for i in starts[:2])
            raise MeshError(f"gmsh file has two ${name} sections, on lines {first} and {second}")
        if not starts or f"$End{name}" not in lines:
            raise MeshError(f"gmsh file missing ${name} section")
        a, b = starts[0], lines.index(f"$End{name}")
        if b < a:
            raise MeshError(
                f"gmsh $End{name} on line {b + 1} comes before ${name} on line {a + 1}"
            )
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

    try:
        version = section("MeshFormat")[1][0].split()[0]
    except IndexError:
        raise MeshError("gmsh $MeshFormat section has no version line") from None
    if not version.startswith("2.2"):
        raise MeshError(f"unsupported gmsh format version {version}")

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
            parsed.append((parts[0], parts[1], parts[2], parts[3:]))
    except (ValueError, IndexError) as exc:
        raise malformed(start, row, exc) from exc
    cells = []
    cell_type = None
    for row, (num, etype, ntags, fields) in enumerate(parsed, 1):
        if not 0 <= ntags <= len(fields):
            raise MeshError(
                f"gmsh element {num} on line {start + row + 1} has tag count {ntags}, "
                f"but {len(fields)} fields follow it"
            )
        nodes = fields[ntags:]
        if etype not in (2, 4):
            raise MeshError(f"gmsh element type {etype} not supported")
        if cell_type is None:
            cell_type = etype
        elif cell_type != etype:
            raise MeshError("mixed triangle/tetrahedron gmsh file")
        want = 3 if etype == 2 else 4
        if len(nodes) != want:
            raise MeshError(
                f"gmsh element {num} on line {start + row + 1} has {len(nodes)} nodes, "
                f"but type {etype} takes {want}"
            )
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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise MeshError(f"mesh file {path} is not UTF-8 text: {exc}") from exc
    if text.lstrip().startswith("$MeshFormat"):
        return _load_gmsh(text)
    return _load_native(text.split())
