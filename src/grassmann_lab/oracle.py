"""Exhaustive ground truth for small parameters.

Enumerates every isometric embedding of J(l, m) into the Grassmann graph
by vertex-ordered backtracking with exact-distance pruning and
cross-validates the classifier against it; at n == 2k the classified
images are checked against the number of apartments, which the frames of
F_q^n count in closed form.  Budgets are counted in search nodes, never
in wall time, so runs reproduce exactly.

Two embeddings with the same image differ by an automorphism of
J(l, m).  The search breaks that whole group along a stabilizer chain of
its vertex order, so each image is reached by exactly one leaf instead
of once per automorphism, and a second leaf on one image is an internal
error.  With ``jobs`` above 1, worker processes search below the first
vertex's candidates, and the answer, node count and budget stop
included, is the one-job search's.

Candidates are bitsets of Grassmannian ids.  Siblings share one prefix,
the AND of the distance sets of the placements above their parent, so
each node adds only its own distance set.  The two bottom depths run as
one loop: each leaf-parent's leaves are added as one batch, checked
against the images found so far as a batch, and charged as one node
each, so node counts and budget stops are those of a walk that tries
one candidate at a time.
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, field as dc_field

from .config import caps, set_caps
from .embeddings import check_classification_params, classify
from .errors import InternalInvariantError, ValidationError
from .fields import GF
from .grassmannian import GrassmannianSpec
from .johnson import johnson_diameter, johnson_distance, johnson_vertices
from .subspaces import intern, memoized


@dataclass(frozen=True)
class SearchConfig:
    l: int
    m: int
    n: int
    k: int
    p: int
    e: int = 1
    budget: int = 10_000_000
    symmetry_reduction: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.jobs < 1:
            raise ValidationError(f"need at least one job, got jobs={self.jobs}")
        if self.budget < 0:
            raise ValidationError(f"need a budget of at least 0 nodes, got {self.budget}")

    def field(self) -> GF:
        return GF.get(self.p, self.e)


@dataclass
class OracleResult:
    images: set[tuple[int, ...]]  # sorted dense-id tuples
    nodes: int
    complete: bool
    spec: GrassmannianSpec = dc_field(repr=False)


def _bfs_vertex_order(l: int, m: int) -> list[int]:
    """Vertices of J(l, m) ordered so every vertex after the first is
    adjacent to an earlier one (breadth-first from the lexicographic
    minimum), which maximizes pruning during placement."""
    vertices = johnson_vertices(l, m)
    root = vertices[0]
    order = [root]
    seen = {root}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in vertices:
                if u not in seen and johnson_distance(v, u, m) == 1:
                    seen.add(u)
                    order.append(u)
                    nxt.append(u)
        frontier = nxt
    return order


def _chain_floors(order: list[int], l: int, m: int) -> list[list[int]]:
    """For each depth s, the earlier depths t with placed[t] < placed[s].

    Reading ``order`` as a base of Aut J(l, m) (ground-set permutations,
    with complementation when l == 2m), depth t bounds every later depth
    whose vertex lies in the orbit of order[t] under the pointwise
    stabilizer G_t of order[0..t-1].  Placements are injective, so these
    constraints keep exactly one labeling of each image (Puget, *Breaking
    symmetries in all different problems*, IJCAI 2005).

    The orbits come in closed form.  Call two ground elements equivalent
    when they lie in the same members of order[0..t-1]; the permutations
    in G_t are those that fix each such cell.  So an m-set B' is in the
    orbit of B when it meets every cell as often as B does.  A
    complemented permutation fixes order[0..t-1] exactly when it maps each
    cell onto the cell of opposite membership, which needs the two to be
    equally large; then B' is also in the orbit when it meets the
    opposite of each cell c in |c| - |B & c| elements.
    """
    nv = len(order)
    floors: list[list[int]] = [[] for _ in range(nv)]
    signature = [0] * l  # bit i: the element lies in order[i]
    for t in range(nv):
        cells: dict[int, int] = {}
        for x in range(l):
            cells[signature[x]] = cells.get(signature[x], 0) | 1 << x
        sigs, masks = list(cells), list(cells.values())
        flip = (1 << t) - 1
        complementable = l == 2 * m and all(
            cells.get(v ^ flip, 0).bit_count() == cells[v].bit_count() for v in sigs)
        if len(cells) == l and not complementable:
            break  # G_t is trivial, and so is every later stabilizer

        def meets(vertex):
            return tuple((vertex & c).bit_count() for c in masks)

        target = meets(order[t])
        orbit_keys = {target}
        if complementable:
            position = {v: i for i, v in enumerate(sigs)}
            opposite = [0] * len(sigs)
            for i, v in enumerate(sigs):
                opposite[position[v ^ flip]] = masks[i].bit_count() - target[i]
            orbit_keys.add(tuple(opposite))
        for s in range(t + 1, nv):
            if meets(order[s]) in orbit_keys:
                floors[s].append(t)
        for x in range(l):
            signature[x] |= (order[t] >> x & 1) << t
    return floors


def _plan(l: int, m: int) -> tuple[list[list[int]], list[list[int]]]:
    """The Johnson distances between the vertices of :func:`_bfs_vertex_order`,
    by depth, and the chain floors of that order: what :func:`_search`
    reads of J(l, m)."""
    order = _bfs_vertex_order(l, m)
    jdist = [[johnson_distance(a, b, m) for b in order] for a in order]
    return jdist, _chain_floors(order, l, m)


def _search(spec: GrassmannianSpec, plan, budget: int,
            roots) -> tuple[set[tuple[int, ...]], int, bool]:
    """Place order[0], order[1], ... on Grassmannian ids at the exact
    Johnson distances from every earlier placement, order[0] on each of
    ``roots`` in ascending order.

    The stabilizer-chain floors of :func:`_chain_floors` keep one labeling
    per image: at each depth one mask drops every candidate at or below
    the largest placement that must stay below it, so each image is
    reached by exactly one leaf, stored as its sorted ids, and a repeated
    image raises InternalInvariantError.

    left[t] holds the untried candidates of depth t, taken lowest bit
    first.  The siblings at depth u - 1 share prefix[u]: the AND of the
    distance sets of placed[0..u-2] and the floors they set, made once
    when depth u - 1 is entered.  Each sibling adds its own distance set
    and floor; siblings under an empty prefix have no children and are
    charged as nodes at once.  A node at depth nv - 3 walks its
    leaf-parent candidates itself (at nv = 2 the roots are the
    leaf-parents), and each leaf-parent's leaves are one batch of sorted
    tuples.  Every leaf is charged as a node; a budget cut inside a batch
    keeps its lowest budget - nodes leaves, and a batch that meets the
    images found so far raises, naming its first repeated image.  So the
    images, node count and budget stop are those of a depth-first walk
    that tries one candidate at a time.
    """
    jdist, floors = plan
    nv = len(jdist)
    dsets = spec.distance_sets()
    # floors[u] split: placements before depth u - 1 go into prefix[u],
    # depth u - 1 applies its own
    early = [[s for s in floors[u] if s < u - 1] for u in range(nv)]
    late = [u - 1 in floors[u] for u in range(nv)]
    images: set[tuple[int, ...]] = set()
    placed = [0] * nv
    left = [0] * nv
    prefix = [-1] * nv
    nodes = 0
    cands = 0
    for root in roots:
        cands |= 1 << root
    t, u = -1, 0  # depth of the last placement; depth that cands are for
    while True:
        if cands:
            # the prefix of depth u + 1, shared by the siblings in cands
            if early[u + 1]:
                pre = -1 << max(map(placed.__getitem__, early[u + 1])) + 1
            else:
                pre = -1
            jrow = jdist[u + 1]
            for s in range(u):
                pre &= dsets[placed[s]][jrow[s]]
                if not pre:
                    break
            if not pre:
                nodes += cands.bit_count()
                if nodes > budget:
                    return images, budget + 1, False
            elif u < nv - 2:
                prefix[u + 1] = pre
                left[u] = cands
                t = u
            else:
                # u is the leaf-parent depth: each candidate's leaves are
                # one batch
                above = placed[:u]
                jleaf = jrow[u]
                floored = late[u + 1]
                while cands:
                    low = cands & -cands
                    cands ^= low
                    b = low.bit_length() - 1
                    nodes += 1
                    if nodes > budget:
                        return images, nodes, False
                    leaves = pre & dsets[b][jleaf]
                    if floored:
                        leaves &= -1 << b + 1
                    if not leaves:
                        continue
                    batch = []
                    while leaves:
                        low = leaves & -leaves
                        leaves ^= low
                        batch.append(tuple(sorted(above + [b, low.bit_length() - 1])))
                    cut = len(batch) > budget - nodes
                    if cut:
                        del batch[budget - nodes:]
                    if not images.isdisjoint(batch):
                        image = next(im for im in batch if im in images)
                        raise InternalInvariantError(
                            f"image {list(image)} reached by a second leaf; "
                            f"the symmetry-breaking floors are not complete")
                    images.update(batch)
                    if cut:
                        return images, budget + 1, False
                    nodes += len(batch)
        while t >= 0 and not left[t]:
            t -= 1
        if t < 0:
            return images, nodes, True
        low = left[t] & -left[t]
        left[t] ^= low
        c = low.bit_length() - 1
        nodes += 1
        if nodes > budget:
            return images, nodes, False
        placed[t] = c
        u = t + 1
        cands = prefix[u] & dsets[c][jdist[u][t]]
        if late[u]:
            cands &= -1 << c + 1


def _search_worker(args) -> dict[int, tuple[set[tuple[int, ...]], int]]:
    """Per root of a chunk, ascending, its images and nodes, each root
    searched under what its predecessors left of the budget, up to the
    first root that the rest of the budget does not finish."""
    worker_caps, cfg, roots = args
    set_caps(**asdict(worker_caps))
    spec = GrassmannianSpec(cfg.field(), cfg.n, cfg.k)
    plan = _plan(cfg.l, cfg.m)
    left = cfg.budget
    done = {}
    for root in roots:
        images, nodes, complete = _search(spec, plan, left, [root])
        if not complete:
            break
        done[root] = images, nodes
        left -= nodes
    return done


def _merge(images: set[tuple[int, ...]], part: set[tuple[int, ...]]):
    if not images.isdisjoint(part):
        raise InternalInvariantError(
            f"image {list(min(images & part))} reached below two roots; "
            f"the symmetry-breaking floors are not complete")
    images |= part


def _search_in_workers(spec: GrassmannianSpec, cfg: SearchConfig, plan,
                       roots: list[int]) -> tuple[set[tuple[int, ...]], int, bool]:
    """The serial search over ``roots``, node count included, from roots
    searched in worker processes.

    Walking the roots in ascending order, the workers' result for a root
    stands in for the serial search's while the nodes of it and of the
    roots before it fit the budget.  A worker spends on a root's
    predecessors at most what the serial search does, so it finishes
    every root that the serial search finishes; from the first root that
    the serial search would not finish, the rest is searched here with
    what is left of the budget, which bounds that extra run too.
    """
    # imported here: the pool costs every one-job process its start-up time
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    chunks = [roots[i::cfg.jobs] for i in range(min(cfg.jobs, len(roots)))]
    # spawn on every platform, so workers see only what args carry; spawn
    # starts a process per submitted chunk up to max_workers
    with ProcessPoolExecutor(max_workers=min(len(chunks), os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        done = {}
        for part in pool.map(_search_worker, [(caps(), cfg, chunk) for chunk in chunks]):
            done.update(part)
    images: set[tuple[int, ...]] = set()
    nodes = 0
    for i, root in enumerate(roots):
        if root not in done or nodes + done[root][1] > cfg.budget:
            rest, rest_nodes, complete = _search(spec, plan, cfg.budget - nodes, roots[i:])
            _merge(images, rest)
            return images, nodes + rest_nodes, complete
        part, part_nodes = done.pop(root)
        _merge(images, part)
        nodes += part_nodes
    return images, nodes, True


def enumerate_embeddings(cfg: SearchConfig) -> OracleResult:
    """All images of isometric embeddings of J(l, m), deduplicated as sets.

    Each Johnson vertex is placed on a subspace at the exact graph
    distance from every previously placed image.  Exceeding the node
    budget yields a partial result flagged incomplete, with budget + 1
    nodes.  When J(l, m) is wider than the Grassmann graph (diameter
    min(m, l-m) above min(k, n-k)) or has more vertices, no embedding
    exists, and the empty result is complete without J(l, m) being built.
    """
    if not 0 < cfg.m < cfg.l:
        raise ValidationError(f"need 0 < m < l, got l={cfg.l}, m={cfg.m}")
    spec = GrassmannianSpec(cfg.field(), cfg.n, cfg.k)
    if (johnson_diameter(cfg.l, cfg.m) > min(cfg.k, cfg.n - cfg.k)
            or math.comb(cfg.l, cfg.m) > len(spec)):
        return OracleResult(set(), 0, True, spec)
    if cfg.symmetry_reduction:
        initial = [0]
    else:
        initial = list(range(len(spec)))
    plan = _plan(cfg.l, cfg.m)
    if cfg.jobs > 1 and len(initial) > 1:
        images, nodes, complete = _search_in_workers(spec, cfg, plan, initial)
    else:
        images, nodes, complete = _search(spec, plan, cfg.budget, initial)
    return OracleResult(images, nodes, complete, spec)


# cross validation ---------------------------------------------------------


@dataclass
class CrossValidationReport:
    config: SearchConfig
    image_count: int
    nodes: int
    complete: bool
    bfs_agrees: bool | None
    all_classified: bool | None
    apartment_match: bool | None
    tag_histogram: dict[str, int]
    failures: list[dict]

    @property
    def ok(self) -> bool:
        checks = [self.complete]
        for flag in (self.bfs_agrees, self.all_classified, self.apartment_match):
            if flag is not None:
                checks.append(flag)
        return all(checks) and not self.failures

    def summary(self) -> dict:
        return {
            "schema_version": 1,
            "params": {"l": self.config.l, "m": self.config.m, "n": self.config.n,
                       "k": self.config.k, "p": self.config.p, "e": self.config.e},
            "image_count": self.image_count,
            "nodes": self.nodes,
            "complete": self.complete,
            "bfs_agrees": self.bfs_agrees,
            "all_classified": self.all_classified,
            "apartment_match": self.apartment_match,
            "tag_histogram": self.tag_histogram,
            "failures": self.failures,
            "ok": self.ok,
        }


def _bfs_distances_agree(spec: GrassmannianSpec) -> bool:
    """Preflight: graph-geodesic distance equals the algebraic formula.

    A breadth-first search from every vertex over the bitsets the search
    reads (GrassmannianSpec.distance_sets): the frontier at depth d must
    be exactly the set at distance d, and nothing may be left over."""
    sets = spec.distance_sets()
    # a one-vertex graph has diameter 0 and no set at distance 1
    adjacent = [(row + (0,))[1] for row in sets]
    everything = (1 << len(sets)) - 1
    for src, row in enumerate(sets):
        seen = frontier = 1 << src
        for want in row:
            if frontier != want:
                return False
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= adjacent[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        if frontier or seen != everything:
            return False
    return True


def _apartment_count(spec: GrassmannianSpec, through_vertex_0: bool) -> int:
    """The apartments of the Grassmann graph at n == 2k: one per unordered
    frame of n independent points, |GL(n, q)| / ((q - 1)^n n!).

    Through one vertex there are count * C(n, k) / len(spec) of them:
    GL(n, q) is transitive on k-spaces, so every vertex lies in equally
    many apartments, and each apartment has C(n, k) members.
    """
    q, n = spec.field.q, spec.n
    count = (math.prod(q ** n - q ** i for i in range(n))
             // ((q - 1) ** n * math.factorial(n)))
    if through_vertex_0:
        count = count * math.comb(n, spec.k) // len(spec)
    return count


def cross_validate(cfg: SearchConfig,
                   result: OracleResult | None = None) -> CrossValidationReport:
    """Feed every enumerated image to the classifier and check the global
    shape of the answer: no rejections, and when n == 2k == l == 2m, that
    the images are exactly the apartments.  An accepted image is rebuilt
    exactly and, when l == 2m, is a parabolic apartment of dimensions
    (k - m, k + m): the classifier certifies both, so all_classified
    covers them.

    The apartment check is a count resting on the classification.  At
    l == 2m every image must classify as a parabolic apartment with
    dimensions (k - m, k + m) = (0, n), so it is the apartment of its n
    star points, which span F_q^n and so form a frame.  An apartment
    determines its frame, so the images, distinct sets, are distinct
    apartments, and they are all of them exactly when there are as many
    as there are frames (:func:`_apartment_count`).  The reduced search
    pins its first vertex to vertex 0, so there the images are apartments
    through vertex 0, counted the same way.  A search that stopped on its
    budget has no count to match: the check is None.

    Classification checks are skipped (reported as None) at parameters
    that check_classification_params refuses, e.g. m == 1 probes, and
    after a search stopped by its budget: it found only some of the
    images, so classifying those would certify nothing about the rest.
    """
    if result is None:
        result = enumerate_embeddings(cfg)
    spec = result.spec
    # the preflight checks the distance table the search read; a search of
    # no nodes read none
    bfs_ok = _bfs_distances_agree(spec) if result.nodes else None
    histogram: dict[str, int] = {}
    failures: list[dict] = []
    all_classified: bool | None = None
    try:
        check_classification_params(cfg.l, cfg.m, cfg.k, cfg.n)
    except ValidationError:
        classifiable = False  # outside the classifier's hypotheses
    else:
        classifiable = result.complete
    if classifiable:
        # ids follow RREF rows, so the searched table's rows are in classify's order
        dmat = spec.distance_matrix()
        with memoized():
            # memo results equal to a member are then the member itself
            intern(spec.subspaces)
            for image in sorted(result.images):
                members = frozenset(spec.by_id(i) for i in image)
                try:
                    cls = classify(members,
                                   table=[bytes(map(dmat[i].__getitem__, image))
                                          for i in image])
                except Exception as exc:  # noqa: BLE001 - reported, not swallowed
                    failures.append({
                        "image_ids": list(image),
                        "rows": [[list(r) for r in spec.by_id(i).rows] for i in image],
                        "error": str(exc)})
                    continue
                histogram[cls.case] = histogram.get(cls.case, 0) + 1
        all_classified = not failures
    apartment_match = None
    if (all_classified is not None
            and cfg.n == 2 * cfg.k and cfg.l == cfg.n and cfg.m == cfg.k):
        apartment_match = (all_classified and len(result.images)
                           == _apartment_count(spec, cfg.symmetry_reduction))
    return CrossValidationReport(
        cfg, len(result.images), result.nodes, result.complete, bfs_ok,
        all_classified, apartment_match, histogram, failures)
