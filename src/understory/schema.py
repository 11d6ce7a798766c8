"""Memory schemas and sequence matching.

A memory schema is a forest of schema nodes: the roots form an implicit
sequel chain in declaration order, every other node hangs under exactly one
parent edge.  Matching a schema against an event corpus picks a subsequence
of roots and an equally long subsequence of corpus events (the anchors),
splits the corpus into blocks around the anchors, and covers every
remaining event with a node of the anchoring root's tree, all under one
consistent substitution.  Schema nodes nothing matched must at least have
all their variables pinned down.

The search tries chain lengths l from longest to shortest.  For each l it
is one depth-first walk, over an explicit stack, along one path of
choices: l anchor positions, then l root indexes, then one tree node for
each other event of the blocks, in position order.  Every level tries its
candidates in increasing order (tree nodes in document order), so the
first admissible path the walk completes is the lexicographically first
anchor vector, then root vector, then covering, and the walk's depth is
bounded by the corpus, not by Python's recursion limit.  Root/event
unifiers come from a table filled lazily, one match_event per pair the
walk first asks about.  An anchor prefix is dropped as soon as no
increasing run of roots unifies with it pair by pair, and a root prefix as
soon as its unifiers conflict, so the walk skips only paths that cannot
match.  The covering walks a linked list of its block's unused kids
(Knuth's dancing links: a kid is unlinked when picked and linked back
when the walk backs out), so a pick never rescans used kids, and it skips
a kid whose earlier twin (an equal expression in the same tree, no "pre$"
edge on either) is unused: that twin already failed there.  A kid that
differs from the event in a word fails before any variable is bound.  A
complete path that maps every node needs no check of unmatched nodes,
and a schema without "pre$" edges no check of conditions.

understand() extends this to an ordered list of schemas over one corpus:
the corpus is cut into contiguous segments, one per schema, and declared
cross-schema sequel links carry truth from one segment's instance to the
next.  Cut vectors are searched depth first in lexicographic order, so a
segment prefix that many vectors share is matched once, and after each
segment the rules run over that segment's instance and links only; the
links fire as RULE3 rules.  One unifier table per schema serves all of that
schema's searches in one call, so a root/event pair is unified once however
many segments hold the event.  A suffix search that failed is remembered by
(schema, segment start, link view) and never run again, which keeps dead
ends polynomial when schemas can claim segments of several lengths.
understand() tells which segment ends it searches and why leaving out the
others changes nothing.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .matching import _match_into, confirm_unmatched, match_event, merge
from .memory import (
    EventEdge,
    GoalSupport,
    MemoryState,
    SchemaInstance,
    run_fixpoint_group,
)
from .model import (
    EMPTY_SUBSTITUTION,
    CorpusDocument,
    EventExpression,
    SchemaEdge,
    Substitution,
    _Frozen,
    _set,
)

# ---------------------------------------------------------------------------
# Schema structure


class MemorySchema(_Frozen):
    """A named forest of schema nodes with labeled edges and fs links.

    `edges` holds only the declared edges, in document order, so that
    rendering a parsed schema reproduces the source; `all_edges()` adds the
    sequel chain over `roots`.  `roots` and `edges` are tuples, and `nodes`
    and `fs_links` read-only views of copies of the mappings given, so no
    field changes after construction.  So the constructor derives the tree
    structure, `all_edges()`, the goal supports and the diagnostics on the
    tree's shape once, and every structural query, validation included, is
    a lookup.  Schemas compare by identity.
    """

    __slots__ = ("name", "roots", "nodes", "edges", "fs_links", "_structure")

    def __init__(self, name: str, roots: tuple[str, ...],
                 nodes: Mapping[str, EventExpression], edges: tuple[SchemaEdge, ...],
                 fs_links: Mapping[str, str]) -> None:
        _set(self, "name", name)
        _set(self, "roots", tuple(roots))
        _set(self, "nodes", MappingProxyType(dict(nodes)))
        _set(self, "edges", tuple(edges))
        _set(self, "fs_links", MappingProxyType(dict(fs_links)))
        _set(self, "_structure", _derive_structure(self))

    def __repr__(self) -> str:
        return "<MemorySchema %s>" % (self.name,)

    def all_edges(self) -> tuple[SchemaEdge, ...]:
        """Declared edges plus the synthesized root sequel chain."""
        return self._structure.all_edges

    def tree_of(self, root_id: str) -> tuple[str, ...]:
        """Node ids of the tree under a root, in document order, root first."""
        if root_id not in self.roots:
            return (root_id,)
        return (root_id,) + self._structure.kids[self.roots.index(root_id)]


class CrossLink(NamedTuple):
    """A declared sequel link from one schema's root to another's."""

    from_schema: str
    from_node: str
    to_schema: str
    to_node: str

    def arrow(self) -> str:
        return "%s.%s -sequel-> %s.%s" % (
            self.from_schema, self.from_node, self.to_schema, self.to_node,
        )


class SchemaDocument(_Frozen):
    """An ordered list of memory schemas, each name once, plus declared
    cross-schema links.

    Documents compare by identity.
    """

    __slots__ = ("schemas", "links", "__weakref__")

    def __init__(self, schemas: tuple[MemorySchema, ...],
                 links: tuple[CrossLink, ...] = ()) -> None:
        schemas = tuple(schemas)
        seen = set()
        for mp in schemas:
            if mp.name in seen:
                raise ValueError("duplicate schema name: %r" % (mp.name,))
            seen.add(mp.name)
        _set(self, "schemas", schemas)
        _set(self, "links", tuple(links))


class _Structure(NamedTuple):
    """What MemorySchema derives once from its declared fields."""

    all_edges: tuple[SchemaEdge, ...]
    kids: tuple[tuple[str, ...], ...]    # per root index: its tree, root left out
    supports: tuple[GoalSupport, ...]    # resolvable goal-"$" edges, sorted
    unresolved: frozenset[SchemaEdge]    # goal-"$" edges with no support
    pre_tests: tuple[SchemaEdge, ...]    # "pre$" edges, all_edges() order
    twins: dict[str, str]                # kid -> nearest earlier twin kid
    problems: tuple[str, ...]            # diagnostics on the tree's shape


def _derive_structure(mp: MemorySchema) -> _Structure:
    """The structure and the diagnostics on its shape, from one pass over
    the declared edges and one over the nodes."""
    name, roots, nodes = mp.name, mp.roots, mp.nodes
    root_set = set(roots)
    consecutive = set(zip(roots, roots[1:]))
    restated = set()
    problems: list[str] = []
    parents: dict[str, list[str]] = {}
    successors: dict[str, list[str]] = {}
    goal_tests = []
    pre_tests = []
    for e in mp.edges:
        source, target = e.source, e.target
        plain_sequel = e.label == "sequel" and not e.test
        if plain_sequel:
            successors.setdefault(source, []).append(target)
        elif e.test:
            if e.label == "goal":
                goal_tests.append(e)
            elif e.label == "pre":
                pre_tests.append(e)
        if target not in root_set:
            parents.setdefault(target, []).append(source)
        elif plain_sequel and (source, target) in consecutive:
            # Restating a consecutive root pair's sequel edge is harmless.
            restated.add((source, target))
        elif source in nodes and target in nodes:
            problems.append("schema %s: edge %s makes a root a child"
                            % (name, e.arrow()))
    chain = []
    for a, b in zip(roots, roots[1:]):
        if (a, b) not in restated:
            chain.append(SchemaEdge(a, "sequel", b))
            successors.setdefault(a, []).append(b)
    for outs in successors.values():
        outs.sort()
    # A node hangs under the source of its first tree edge.  Walking down
    # from the roots, without recursion, reaches exactly the nodes whose
    # parent chain ends at a root; orphans and cycles are never reached.
    children: dict[str, list[str]] = {}
    for node_id, sources in parents.items():
        children.setdefault(sources[0], []).append(node_id)
    root_of: dict[str, str] = {}
    kids_of: dict[str, list[str]] = {}
    for r in roots:
        root_of[r] = r
        kids_of[r] = []
    stack = list(root_of)
    while stack:
        current = stack.pop()
        for child in children.get(current, ()):
            root_of[child] = root_of[current]
            stack.append(child)
    for node_id in nodes:
        if node_id in root_set:
            continue
        root = root_of.get(node_id)
        if root is not None:
            kids_of[root].append(node_id)
        count = 0
        for p in parents.get(node_id, ()):
            count += p in nodes
        if count == 0:
            problems.append("schema %s: node %s has no tree parent" % (name, node_id))
        elif count > 1:
            problems.append("schema %s: node %s has %d tree parents"
                            % (name, node_id, count))
        elif root is None:
            problems.append("schema %s: node %s is unreachable from any root"
                            % (name, node_id))
    supports = []
    unresolved = set()
    for e in sorted(goal_tests, key=lambda e: (e.source, e.target)):
        sup = _support_chain(mp, e, successors)
        if sup is None:
            unresolved.add(e)
        else:
            supports.append(sup)
    if unresolved:
        for e in mp.edges:
            if e in unresolved and e.source in nodes:
                problems.append(
                    "schema %s: goal edge %s has no sequel chain ending in an fs link"
                    % (name, e.arrow()))
    # Two kids of one tree are twins when their expressions are equal and
    # no "pre$" edge touches either: the covering search may swap them.
    touched = {end for e in pre_tests for end in (e.source, e.target)}
    twins: dict[str, str] = {}
    latest: dict[tuple[str, EventExpression], str] = {}
    for root, kids in kids_of.items():
        for kid in kids:
            if kid not in touched:
                key = (root, nodes[kid])
                if key in latest:
                    twins[kid] = latest[key]
                latest[key] = kid
    return _Structure(
        all_edges=mp.edges + tuple(chain),
        kids=tuple(tuple(kids_of[root]) for root in roots),
        supports=tuple(supports),
        unresolved=frozenset(unresolved),
        pre_tests=tuple(pre_tests),
        twins=twins,
        problems=tuple(problems),
    )


def validate_memory_schema(mp: MemorySchema) -> list[str]:
    """Structural diagnostics; an empty list means the schema is well formed.

    This is the check for schemas built by hand; the parser does not call
    it.  The parser rejects bad roots, unknown endpoints and duplicates
    with located errors as it reads them, and raises on the diagnostics
    on the tree's shape, which come with the derived structure.
    """
    diags: list[str] = []
    if not mp.roots:
        diags.append("schema %s: no roots declared" % mp.name)
    for r in sorted({r for r in mp.roots if mp.roots.count(r) > 1}):
        diags.append("schema %s: root %s listed twice" % (mp.name, r))
    for r in mp.roots:
        if r not in mp.nodes:
            diags.append("schema %s: root %s is not a node" % (mp.name, r))
    for e in mp.edges:
        for end in (e.source, e.target):
            if end not in mp.nodes:
                diags.append("schema %s: edge %s uses unknown node %s"
                             % (mp.name, e.arrow(), end))
    for src, dst in mp.fs_links.items():
        for end in (src, dst):
            if end not in mp.nodes:
                diags.append("schema %s: fs link %s = %s uses unknown node %s"
                             % (mp.name, src, dst, end))
    seen_edges: set[SchemaEdge] = set()
    for e in mp.edges:
        if e in seen_edges:
            diags.append("schema %s: duplicate edge %s" % (mp.name, e.arrow()))
        seen_edges.add(e)
    diags.extend(mp._structure.problems)
    return diags


def _support_chain(mp: MemorySchema, edge: SchemaEdge,
                   successors: Mapping[str, Sequence[str]]) -> Optional[GoalSupport]:
    """The support chain of one goal-"$" edge, or None when it has none.

    Breadth-first along plain sequel edges from the edge source; the first
    node reached that carries an fs link ends the chain, so the chain is as
    short as possible (ties broken toward smaller node ids).
    """
    queue: list[tuple[str, ...]] = [(edge.source,)]
    visited = {edge.source}
    while queue:
        path = queue.pop(0)
        last = path[-1]
        if last in mp.fs_links:
            return GoalSupport(
                source=edge.source,
                target=edge.target,
                chain=path,
                final_state=mp.fs_links[last],
            )
        for nxt in successors.get(last, []):
            if nxt not in visited:
                visited.add(nxt)
                queue.append(path + (nxt,))
    return None


# ---------------------------------------------------------------------------
# Sequence matching


class MatchResult(NamedTuple):
    """One admissible way a schema covers a corpus.

    anchors pair chosen roots with chosen events in order; node_map covers
    every other corpus event with a tree node; unmatched nodes were
    confirmed through the substitution instead of an event.
    """

    schema_name: str
    chain_length: int
    anchors: tuple[tuple[str, str, int], ...]  # (root id, event id, position)
    node_map: tuple[tuple[str, str], ...]      # (node id, event id), sorted
    unmatched: frozenset[str]
    substitution: Substitution
    supports: tuple[GoalSupport, ...]

    def node_events(self) -> dict[str, str]:
        mapping = {root: ev for root, ev, _ in self.anchors}
        mapping.update(dict(self.node_map))
        return mapping


def build_instance(mp: MemorySchema, result: MatchResult) -> SchemaInstance:
    return SchemaInstance(mp.name, mp.all_edges(), result.node_events())


def match_sequence(
    mp: MemorySchema, corpus: CorpusDocument, state: MemoryState
) -> Optional[MatchResult]:
    """Best admissible match of one schema against the whole corpus.

    The chain length l is maximized; ties prefer the lexicographically
    smallest anchor position vector, then the smallest root index vector,
    then the first covering found when block events, in position order,
    try tree nodes in document order.  For each l, one walk without
    recursion picks anchors, roots and covering nodes as one path, in that
    order.  Each root is unified with each event at most once, when the
    walk first needs the pair.  Every event of a match takes a node of its
    own, so a corpus with more events than the schema has nodes returns
    None without a walk.  Returns None when no admissible match exists.
    """
    return _search(mp, corpus.events, state, False)


_UNSEEN = object()

# One block event, the kids of its block's root that may cover it, and its
# block's unused kids as a doubly linked list (after, before).
_Task = tuple[EventExpression, tuple[str, ...], list[int], list[int]]


def _search(
    mp: MemorySchema,
    events: Sequence[EventExpression],
    state: MemoryState,
    first_root_licensed: bool,
    offset: int = 0,
    table: Optional[dict[tuple[int, int], Optional[Substitution]]] = None,
) -> Optional[MatchResult]:
    """match_sequence over a run of corpus events that starts after
    position `offset`; anchors carry corpus positions.

    `table` maps (root index, corpus position) to the root's unifier with
    that event, or None when they do not unify.  It is filled lazily, one
    match_event per pair the search asks about, and understand() passes one
    table per schema to all of that schema's searches.
    """
    n = len(events)
    k = len(mp.roots)
    # Every event of a match takes a node of its own.
    if n == 0 or k == 0 or n > len(mp.nodes):
        return None
    # A goal-"$" edge without a support chain can never satisfy condition
    # checks, whatever the candidate; bail out before searching.
    structure = mp._structure
    if structure.unresolved:
        return None
    if table is None:
        table = {}
    roots, nodes = mp.roots, mp.nodes
    kids, twins = structure.kids, structure.twins

    def unifier(i: int, pos: int) -> Optional[Substitution]:
        subst = table.get((i, pos + offset), _UNSEEN)
        if subst is _UNSEEN:
            subst = table[i, pos + offset] = match_event(nodes[roots[i]], events[pos - 1])
        return subst

    # One depth-first walk per chain length l over one path of choices:
    # levels 0..l-1 pick increasing anchor positions, levels l..2l-1
    # increasing root indexes, and level 2l+t the kid that covers block
    # event t.  Each level scans its candidates upward from c and pushes the
    # first that fits, writing what the next level reads (low[d + 1] or
    # substs[d - l + 1]), so a pop has nothing there to undo; a level that
    # runs out pops back to the level above, which resumes after its pick.
    # So the first complete path is the first admissible match in tie-break
    # order, and the walk's depth is bounded by the corpus, not by Python's
    # recursion limit.
    low = [-1] * (n + 1)
    substs = [EMPTY_SUBSTITUTION] * (n + 1)
    for l in range(min(n, k), 0, -1):
        l2 = 2 * l
        path: list[int] = []
        node_map: dict[str, str] = {}
        tasks: list[_Task] = []
        c = 1
        while True:
            d = len(path)
            pick = -1
            if d < l:
                # Anchors.  Keep position p only when some root i above
                # low[d] unifies with it; low[d + 1] is the least such i.
                # So low[d] ends the earliest increasing run of unifying
                # roots over path[:d], every complete anchor vector has an
                # increasing root vector whose roots each unify with their
                # anchor, and no other vector is built.
                for p in range(c, n - l + d + 2):
                    for i in range(low[d] + 1, k - l + d + 1):
                        if unifier(i, p) is not None:
                            low[d + 1] = i
                            pick = p
                            break
                    if pick >= 0:
                        break
            elif d < l2:
                # Roots, merging each unifier into the prefix's substitution
                # once, however many root vectors share the prefix.
                j = d - l
                pos = path[j]
                for i in range(c, k - l + j + 1):
                    subst = unifier(i, pos)
                    if subst is None:
                        continue
                    if j:
                        subst = merge(substs[j], subst)
                        if subst is None:
                            continue
                    elif i == 0 and not first_root_licensed \
                            and not state.query(events[pos - 1].id):
                        # The first root's anchor must already be held true
                        # (unless an incoming declared link from an already
                        # true root is about to make it true), so no vector
                        # starts with root 0.
                        continue
                    substs[j + 1] = subst
                    pick = i
                    break
            elif d - l2 < len(tasks):
                # Kids.  Cover the block event with an unused node of its
                # root's tree.  Only unused kids are walked: each block's
                # unused kids form a doubly linked list ("dancing links"),
                # a pick is unlinked when it is pushed and linked back in
                # when it is popped, and the level resumes after it.  So a
                # w-wide star is covered in O(w) steps, not O(w^2).  A
                # node whose earlier twin is unused is skipped: that twin
                # was tried at this level under the same substitution and
                # failed, and swapping twins cannot change the outcome.
                # Most tries miss on a word, which _match_into compares
                # before it binds anything, so a miss allocates nothing.
                # node_map holds the kid levels' picks in level order, so
                # popitem() (last in, first out) undoes the latest.
                ev, candidates, after, before = tasks[d - l2]
                end = len(candidates)
                x = after[c - 1]
                while x < end:
                    node_id = candidates[x]
                    twin = twins.get(node_id)
                    if twin is None or twin in node_map:
                        extended = _match_into(nodes[node_id], ev, substs[d - l])
                        if extended is not None:
                            substs[d - l + 1] = extended
                            node_map[node_id] = ev.id
                            after[before[x]] = after[x]
                            before[after[x]] = before[x]
                            pick = x
                            break
                    x = after[x]
            else:
                anchors = tuple([(roots[i], events[pos - 1].id, pos + offset)
                                 for i, pos in zip(path[l:l2], path)])
                result = _admissible(mp, state, anchors, node_map, substs[d - l])
                if result is not None:
                    return result
            if pick >= 0:
                path.append(pick)
                if d == l2 - 1:
                    tasks = _split_blocks(events, path[:l], [kids[i] for i in path[l:]])
                # Anchors and roots go on upward from the pick; the first
                # root and every kid level start again from the first.
                c = 0 if d == l - 1 or d >= l2 - 1 else pick + 1
            elif path:
                x = path.pop()
                c = x + 1
                if d > l2:
                    node_map.popitem()
                    _, _, after, before = tasks[d - 1 - l2]
                    after[before[x]] = before[after[x]] = x
            else:
                break
    return None


def _split_blocks(events: Sequence[EventExpression], anchor: Sequence[int],
                  kids: Sequence[tuple[str, ...]]) -> list[_Task]:
    """Every non-anchor event in position order, with the kids of its block
    and the block's unused-kid list, every kid linked.

    Block j runs from anchor j up to the next anchor and is covered by
    kids[j]; positions before the first anchor join block 0.  A block of w
    kids gets two arrays of w + 1 slots, shared by its events: after[x] and
    before[x] are the unused neighbours of kid index x, and slot w (also
    reached as index -1) is the list head, so after[-1] is the first unused
    kid and w ends the list.
    """
    tasks: list[_Task] = []
    j, tree, after = -1, kids[0], None
    for pos, ev in enumerate(events, 1):
        if j + 1 < len(anchor) and pos == anchor[j + 1]:
            j += 1
            if j:
                tree, after = kids[j], None
        else:
            if after is None:
                w = len(tree)
                after, before = list(range(1, w + 1)) + [0], list(range(-1, w))
            tasks.append((ev, tree, after, before))
    return tasks


def _admissible(mp: MemorySchema, state: MemoryState,
                anchors: tuple[tuple[str, str, int], ...], node_map: Mapping[str, str],
                subst: Substitution) -> Optional[MatchResult]:
    """The match a complete path gives, or None when it is not admissible:
    nodes nothing matched must be pinned down by the substitution, and
    "pre$" edges between matched nodes state conditions on the current
    memory, so each needs its target already true."""
    structure = mp._structure
    nodes = mp.nodes
    mapping = {root: ev_id for root, ev_id, _ in anchors}
    mapping.update(node_map)
    unmatched = ()
    if len(mapping) < len(nodes):
        unmatched = [nd for nd in nodes if nd not in mapping]
        if not confirm_unmatched([nodes[nd] for nd in unmatched], subst):
            return None
    if structure.pre_tests and not all(
            state.query(mapping[e.target]) for e in structure.pre_tests
            if e.source in mapping and e.target in mapping):
        return None
    return MatchResult(
        schema_name=mp.name,
        chain_length=len(anchors),
        anchors=anchors,
        node_map=tuple(sorted(node_map.items())),
        unmatched=frozenset(unmatched),
        substitution=subst,
        supports=structure.supports,
    )


# ---------------------------------------------------------------------------
# Understanding


class Segment(NamedTuple):
    """One contiguous corpus slice claimed by one schema."""

    schema_name: str
    start: int
    end: int
    event_ids: tuple[str, ...]


class UnderstandingReport(NamedTuple):
    verdict: str  # "understandable" | "not-understandable"
    chain_length: int
    anchor_chain: tuple[str, ...]
    segments: tuple[Segment, ...]
    results: tuple[MatchResult, ...]
    state: MemoryState
    diagnostics: tuple[str, ...]

    @property
    def understandable(self) -> bool:
        return self.verdict == "understandable"


class SegmentationFailure(Exception):
    """No way to cut the corpus let every schema match its segment.

    `state` is the memory before any segment matched: the corpus with the
    asserted events held true.
    """

    def __init__(self, matched: int, total: int, diagnostics: Sequence[str],
                 state: MemoryState) -> None:
        self.matched = matched
        self.total = total
        self.diagnostics = tuple(diagnostics)
        self.state = state
        super().__init__(
            "segmentation failed: best attempt matched %d of %d schemas"
            % (matched, total))


def check_understandable(
    state: MemoryState,
    corpus: CorpusDocument,
    results: Sequence[MatchResult],
    segments: Sequence[Segment] = (),
) -> UnderstandingReport:
    """Final verdict: all events held true plus a confirmed sequel chain.

    The chain is the longest forward run of corpus events whose consecutive
    pairs carry confirmed sequel edges; a chain of one does not count.  Ties
    go to the earliest start, then to the nearest next event.
    """
    ids = corpus.event_ids()
    n = len(ids)
    position = {ev_id: i for i, ev_id in enumerate(ids)}
    # Positions each position reaches by one confirmed sequel edge forward.
    later: list[list[int]] = [[] for _ in range(n)]
    for a, lbl, b in state.confirmed:
        if lbl == "sequel" and a in position and b in position \
                and position[b] > position[a]:
            later[position[a]].append(position[b])
    for outs in later:
        outs.sort()
    # Longest chain starting at each position, scanning right to left.
    length_from = [1] * n
    for i in range(n - 1, -1, -1):
        length_from[i] = 1 + max((length_from[j] for j in later[i]), default=0)
    best = max(length_from, default=0)
    chain: tuple[str, ...] = ()
    if best >= 2:
        current = length_from.index(best)
        chain_list = [ids[current]]
        for remaining in range(best - 1, 0, -1):
            current = next(j for j in later[current] if length_from[j] == remaining)
            chain_list.append(ids[current])
        chain = tuple(chain_list)
    diagnostics = []
    missing = [i for i in ids if i not in state.truths]
    for ev_id in missing:
        diagnostics.append("event %s is not held true" % ev_id)
    if best < 2:
        diagnostics.append("no confirmed sequel chain longer than one event")
    verdict = "understandable" if not missing and best >= 2 else "not-understandable"
    return UnderstandingReport(
        verdict=verdict,
        chain_length=best,
        anchor_chain=chain,
        segments=tuple(segments),
        results=tuple(results),
        state=state,
        diagnostics=tuple(diagnostics),
    )


class _Level(NamedTuple):
    """What schemas 0..i-1 leave behind for schema i in understand()."""

    mark: int                       # trail length after schema i-1's segment
    lines: Optional[list[str]]      # the rules that segment fired, if traced
    result: Optional[MatchResult]   # schema i-1's match, None at level 0
    start: int                      # schema i-1's segment is events[start:end]
    end: int                        # (both 0 at level 0)
    matched: Mapping[str, str]      # result.node_events()
    licensed: bool                  # a link licenses schema i's first root
    ends: Iterator[int]             # schema i's segment ends still to try


def understand(
    doc: SchemaDocument,
    corpus: CorpusDocument,
    assertions: Sequence[str] = (),
    trace: Optional[list[str]] = None,
) -> UnderstandingReport:
    """Match every schema to a contiguous corpus segment and grow memory.

    Cut vectors are tried smallest first, in lexicographic order, by a depth
    first search over segment ends: schema i is matched once per distinct
    placement of schemas 0..i, so a prefix shared by many cut vectors is
    matched once, and a prefix that fails is never extended.  After each
    segment the rules run to fixpoint over that segment's instance and the
    links into it only: earlier instances cover earlier events, so nothing
    they read can change.  Truths earned by earlier segments (and carried
    over declared cross-schema sequel links) are visible to later match
    conditions.  The first cut vector that lets every schema match wins;
    when none does, the failure reports the first attempt that matched the
    most schemas.

    The search holds one working memory, and each level a mark in its undo
    trail, so backing out of a segment takes back what its rules added.
    Each schema has one root/event unifier table, filled lazily and shared
    by all of its searches.  A placement of schemas i..m-1 that failed from
    some segment start is not searched again under another prefix with the
    same start and link view.  And segment_ends leaves out three kinds of
    end of schema i:
    - an end whose segment holds a position known to be foreign to schema
      i: no node of schema i matches its event on its own, while every
      event of a match is matched alone by its root or kid.  A failed
      search of schema i finds the first such position in its segment.
    - once the best attempt has reached past schema i, an end whose next
      event is foreign to schema i+1.
    - every end after the first whose segment has more events than schema
      i has nodes, since a match gives every event a node of its own.  That
      first one is reported as a failed search without running one.
    None of this changes the order of the search or what it returns: what
    is left out could only fail, and no deeper than the best attempt
    already reached when it was left out, while only a deeper attempt
    replaces the best one.  For the same reason the search stops once a
    failed attempt first reaches the last schema, when no cut can succeed:
    a failing attempt gets no deeper, so only a success could change the
    outcome.
    """
    schemas = doc.schemas
    m = len(schemas)
    n = len(corpus)
    base = MemoryState.for_corpus(corpus)
    for ev_id in assertions:
        base.assert_true(ev_id)
    if m == 0:
        raise SegmentationFailure(0, 0, ("schema document declares no schemas",),
                                  base)
    if n < m:
        raise SegmentationFailure(0, m, (
            "the corpus has %d event(s), fewer than the %d schemas; every "
            "schema needs a segment of at least one event" % (n, m),), base)
    # links[i]: the declared links from schema i-1 into schema i.
    by_pair: dict[tuple[str, str], list[CrossLink]] = {}
    for link in doc.links:
        by_pair.setdefault((link.from_schema, link.to_schema), []).append(link)
    links = [()] + [tuple(by_pair.get((a.name, b.name), ()))
                    for a, b in zip(schemas, schemas[1:])]
    best_matched = -1
    best_diags: tuple[str, ...] = ()
    # tables[i]: schema i's root/event unifiers, shared by all its searches.
    tables: list[dict[tuple[int, int], Optional[Substitution]]] = [{} for _ in schemas]
    # The keys of levels whose segment ends all ran out.
    failed: set[tuple] = set()
    # foreign[i]: the corpus positions known to hold an event no node of
    # schema i matches on its own, sorted; tested: for each (schema,
    # position) pair tested, whether the position is foreign to it.
    foreign: list[list[int]] = [[] for _ in schemas]
    tested: dict[tuple[int, int], bool] = {}
    state = base.copy()
    state.trail = []

    def segment_ends(i: int, start: int) -> Iterator[int]:
        # Every later schema needs at least one event; the last ends at n.
        size = len(schemas[i].nodes)
        known = foreign[i]
        for end in ((n,) if i == m - 1 else
                    range(start + 1, min(n - m + i + 2, start + size + 2))):
            at = bisect_right(known, start)
            if at < len(known) and known[at] <= end:
                return
            if end - start <= size and i < best_matched and is_foreign(i + 1, end + 1):
                continue
            yield end

    def is_foreign(i: int, pos: int) -> bool:
        # Whether no node of schema i matches the event at pos on its own,
        # tested once per pair; a foreign position goes into foreign[i].
        if (i, pos) not in tested:
            ev = corpus.events[pos - 1]
            tested[i, pos] = not any(
                _match_into(node, ev, EMPTY_SUBSTITUTION) is not None
                for node in schemas[i].nodes.values())
            if tested[i, pos]:
                insort(foreign[i], pos)
        return tested[i, pos]

    def level_key(i: int, matched: Mapping[str, str], start: int) -> tuple:
        # Level i's key: i, its start, and its link view, which holds, for
        # each link into schema i, the event its from_node matched and
        # whether that event is true.  Events from the start on hold only
        # the base truths, since every instance and link writes into its own
        # segment, so the key fixes everything the search below the level
        # reads.
        sources = [matched.get(link.from_node) for link in links[i]]
        return (i, start, tuple((ev, ev in state.truths) for ev in sources))

    # levels[i] is what schemas 0..i-1 left behind for schema i.
    levels = [_Level(0, [], None, 0, 0, {}, False, segment_ends(0, 0))]
    while levels:
        i = len(levels) - 1
        level = levels[i]
        state.undo(level.mark)
        start = level.end
        end = next(level.ends, None)
        if end is None:
            levels.pop()
            if i:
                failed.add(level_key(i, level.matched, start))
            continue
        mp = schemas[i]
        segment = corpus.events[start:end]
        too_long = end - start > len(mp.nodes)
        result = None if too_long else _search(mp, segment, state, level.licensed,
                                                start, tables[i])
        if result is None:
            if not too_long:
                # Records the first foreign position of the segment, if any.
                any(is_foreign(i, pos) for pos in range(start + 1, end + 1))
            if i > best_matched:
                best_matched = i
                best_diags = ("schema %s found no admissible match over events %s"
                              % (mp.name, ", ".join(ev.id for ev in segment)),)
                # No cut can succeed when the corpus has more events than
                # the schemas have nodes, or when no node of the last schema
                # matches the last event on its own, which its segment always
                # holds.  A verdict is_foreign records in foreign[m - 1] here
                # is never read: the search ends at once.
                if i == m - 1 and (n > sum(len(schema.nodes) for schema in schemas)
                                   or is_foreign(m - 1, n)):
                    break
            continue
        instance = build_instance(mp, result)
        matched = instance.node_events
        new_edges = [EventEdge(level.matched[link.from_node], "sequel",
                               matched[link.to_node], link.arrow())
                     for link in links[i]
                     if link.from_node in level.matched and link.to_node in matched]
        if i > 0 and not new_edges:
            if i > best_matched:
                best_matched = i
                best_diags = ("no declared sequel link carries %s into %s"
                              % (schemas[i - 1].name, mp.name),)
            continue
        # Rule-trace lines are formatted only when someone reads them.
        chunk: Optional[list[str]] = None if trace is None else []
        run_fixpoint_group(state, [(instance, result.supports)], new_edges, chunk)
        if i < m - 1 and failed and level_key(i + 1, matched, end) in failed:
            continue
        if i == m - 1:
            state.trail = None
            done = levels[1:] + [_Level(0, chunk, result, start, end, matched, False,
                                        iter(()))]
            if trace is not None:
                for level in done:
                    trace.extend(level.lines)
            segments = [Segment(level.result.schema_name, level.start + 1, level.end,
                                tuple(ev.id for ev in corpus.events[level.start:level.end]))
                        for level in done]
            return check_understandable(state, corpus,
                                        [level.result for level in done], segments)
        # A link into the next first root from an event already true
        # licenses that root's anchor: the link's RULE3 would make it true
        # at once.
        roots = schemas[i + 1].roots
        licensed = bool(roots) and any(
            matched.get(link.from_node) in state.truths
            for link in links[i + 1] if link.to_node == roots[0])
        levels.append(_Level(len(state.trail), chunk, result, start, end, matched,
                             licensed, segment_ends(i + 1, end)))
    raise SegmentationFailure(best_matched, m, best_diags, base)
