"""Seeded random builders shared by the property and acceptance tests.

Three families: raw rule-engine groups (instances over an event universe,
not necessarily arising from any match), schema/corpus pairs built so that
a full match exists (the propagation property must then hold), and small
schema/corpus pairs for comparing the sequence matcher with its oracle.
"""

from __future__ import annotations

import random
from typing import Sequence

from understory import EventExpression, MemoryState, Var, Word
from understory.memory import EventEdge, GoalSupport, SchemaInstance
from understory.model import CorpusDocument, SchemaEdge
from understory.schema import MemorySchema, validate_memory_schema

from oracles import ORACLE_MAX_EVENTS, ORACLE_MAX_NODES

TREE_LABELS = ("part", "cons", "cause", "accompany", "inherit")


# ---------------------------------------------------------------------------
# Rule-engine groups (criterion: fixpoint laws)


def random_instance(rng: random.Random, events: Sequence[str],
                    name: str) -> tuple[SchemaInstance, tuple[GoalSupport, ...]]:
    node_count = rng.randint(1, 8)
    nodes = ["n%d" % i for i in range(1, node_count + 1)]
    node_events = {}
    for node in nodes:
        if rng.random() < 0.85:
            node_events[node] = rng.choice(events)
    labels = ("inherit", "accompany", "part", "pre", "goal", "cause",
              "cons", "sequel")
    edges: list[SchemaEdge] = []
    seen = set()
    for _ in range(rng.randint(0, 10)):
        src = rng.choice(nodes)
        dst = rng.choice(nodes)
        label = rng.choice(labels)
        if label in ("pre", "goal"):
            test = rng.random() < 0.5
        else:
            test = rng.random() < 0.05  # inert on other labels; keep both sides honest
        quad = (src, label, dst, test)
        if quad in seen:
            continue
        seen.add(quad)
        edges.append(SchemaEdge(src, label, dst, test))
    supports = []
    for e in edges:
        if e.label == "goal" and e.test and rng.random() < 0.8:
            chain = [e.source]
            for _ in range(rng.randint(0, 2)):
                chain.append(rng.choice(nodes))
            supports.append(GoalSupport(e.source, e.target, tuple(chain),
                                        rng.choice(nodes)))
    return SchemaInstance(name, tuple(edges), node_events), tuple(supports)


def random_group(rng: random.Random):
    """A memory state plus rule inputs: (state, parts, event_edges)."""
    event_count = rng.randint(1, 8)
    events = ["ev%d" % i for i in range(1, event_count + 1)]
    truths = {ev for ev in events if rng.random() < 0.35}
    state = MemoryState(frozenset(events), set(truths), set())
    part_count = 1 if rng.random() < 0.7 else 2
    parts = [random_instance(rng, events, "g%d" % i)
             for i in range(1, part_count + 1)]
    event_edges = []
    for _ in range(rng.randint(0, 3)):
        a, b = rng.choice(events), rng.choice(events)
        event_edges.append(EventEdge(a, "sequel", b, "%s -sequel-> %s" % (a, b)))
    return state, parts, tuple(event_edges)


# ---------------------------------------------------------------------------
# Schema/corpus pairs with a guaranteed full match


def theorem_pair(rng: random.Random):
    """(schema, corpus, assertions, node_to_event) where the match covers
    every node and asserting the listed events must make everything true."""
    root_count = rng.randint(2, 3)
    variant = rng.choice(("plain", "pre", "goal"))
    roots: list[str] = []
    order: list[str] = []  # node document order, block layout
    edges: list[SchemaEdge] = []
    kids_of: dict[str, list[str]] = {}
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return "s%d" % counter

    for i in range(root_count):
        root = fresh()
        roots.append(root)
        order.append(root)
        kids = []
        kid_count = rng.randint(0, 2)
        if variant == "goal" and i == root_count - 1 and kid_count == 0:
            kid_count = 1  # the final state lives on the last root's kid
        for _ in range(kid_count):
            kid = fresh()
            kids.append(kid)
            order.append(kid)
            edges.append(SchemaEdge(root, rng.choice(TREE_LABELS), kid, False))
        kids_of[root] = kids

    assertion_extra: list[str] = []
    fs_links: dict[str, str] = {}
    if variant == "pre":
        host = rng.choice(roots)
        kid = fresh()
        kids_of[host].append(kid)
        order.insert(order.index(host) + len(kids_of[host]), kid)
        edges.append(SchemaEdge(host, "pre", kid, True))
        assertion_extra.append(kid)  # its event must already be true to match
    elif variant == "goal":
        host = rng.choice(roots)
        kid = fresh()
        kids_of[host].append(kid)
        order.insert(order.index(host) + len(kids_of[host]), kid)
        edges.append(SchemaEdge(host, "goal", kid, True))
        fs_links[roots[-1]] = kids_of[roots[-1]][0]

    nodes = {}
    for node_id in order:
        nodes[node_id] = EventExpression(node_id, (
            ("actor", Var("P")),
            ("action", Word("act_%s" % node_id)),
        ))
    mp = MemorySchema("generated", tuple(roots), nodes, tuple(edges), fs_links)
    assert not validate_memory_schema(mp), validate_memory_schema(mp)

    # Corpus in block layout: each root's event first, then its kids'.
    node_to_event: dict[str, str] = {}
    events = []
    position = 0
    for root in roots:
        for node_id in [root] + kids_of[root]:
            position += 1
            ev_id = "ev%d" % position
            node_to_event[node_id] = ev_id
            events.append(EventExpression(ev_id, (
                ("actor", Word("kim")),
                ("action", Word("act_%s" % node_id)),
            )))
    corpus = CorpusDocument(tuple(events))
    assertions = [node_to_event[roots[0]]]
    assertions.extend(node_to_event[nid] for nid in assertion_extra)
    return mp, corpus, assertions, node_to_event


# ---------------------------------------------------------------------------
# Small pairs for the sequence-match oracle comparison


MATCH_WORDS = ("wake", "wash", "go", "eat")


def match_instance(rng: random.Random):
    """(schema, corpus, state) small enough for the exhaustive oracle."""
    counter = 0

    def fresh() -> str:
        nonlocal counter
        counter += 1
        return "s%d" % counter

    roots = []
    nodes = {}
    edges = []
    for _ in range(rng.randint(1, 3)):
        root = fresh()
        roots.append(root)
        slots = [("actor", Var("P")), ("action", Word(rng.choice(MATCH_WORDS)))]
        nodes[root] = EventExpression(root, tuple(slots))
        if rng.random() < 0.6 and len(nodes) < 5:
            kid = fresh()
            kslots = [("actor", Var("P")), ("action", Word(rng.choice(MATCH_WORDS)))]
            if rng.random() < 0.3:
                kslots.append(("to", Var("D")))
            if rng.random() < 0.15:
                kslots.append(("mod", Var("Z")))  # may stay unbound
            nodes[kid] = EventExpression(kid, tuple(kslots))
            label, test = rng.choice((("part", False), ("cons", False),
                                      ("cause", False), ("pre", True)))
            edges.append(SchemaEdge(root, label, kid, test))
    mp = MemorySchema("m", tuple(roots), nodes, tuple(edges), {})
    assert not validate_memory_schema(mp)

    corpus, state = match_corpus(rng, rng.randint(1, 6))
    return mp, corpus, state


def match_corpus(rng: random.Random, n: int):
    """(corpus, state): n events for match_instance schemas, about half of
    them held true."""
    events = []
    for j in range(1, n + 1):
        slots = [("actor", Word(rng.choice(("kim", "lee")))),
                 ("action", Word(rng.choice(MATCH_WORDS + ("sleep",))))]
        if rng.random() < 0.3:
            slots.append(("to", Word(rng.choice(("school", "park")))))
        events.append(EventExpression("e%d" % j, tuple(slots)))
    corpus = CorpusDocument(tuple(events))
    state = MemoryState.for_corpus(corpus)
    for ev in corpus.events:
        if rng.random() < 0.5:
            state.assert_true(ev.id)
    return corpus, state


def twin_instance(rng: random.Random):
    """(schema, corpus, state) for the oracle where one root has 2-3 kids
    with equal expressions, some of them hung under a pre$ edge."""
    start = (("actor", Var("P")), ("action", Word("start")))
    step = (("actor", Var("P")), ("action", Word("step")))
    if rng.random() < 0.5:
        step += (("obj", Var("X")),)  # twins that share a variable
    roots = ["r%d" % i for i in range(rng.randint(1, 2))]
    nodes = {root: EventExpression(root, start) for root in roots}
    host = rng.choice(roots)
    edges = []
    for j in range(rng.randint(2, 3)):
        kid = "k%d" % j
        nodes[kid] = EventExpression(kid, step)
        label, test = ("pre", True) if rng.random() < 0.3 else (rng.choice(TREE_LABELS), False)
        edges.append(SchemaEdge(host, label, kid, test))
    if rng.random() < 0.5:
        nodes["o"] = EventExpression("o", (("action", Word("step")),))
        edges.append(SchemaEdge(rng.choice(roots), "part", "o"))
    mp = MemorySchema("m", tuple(roots), nodes, tuple(edges), {})
    assert not validate_memory_schema(mp)

    events = []
    for j in range(1, rng.randint(2, 6) + 1):
        slots = [("actor", Word("lee" if rng.random() < 0.05 else "kim")),
                 ("action", Word("start" if j == 1 or rng.random() < 0.15 else "step"))]
        if rng.random() < 0.8:
            slots.append(("obj", Word("cup" if rng.random() < 0.2 else "tea")))
        events.append(EventExpression("e%d" % j, tuple(slots)))
    corpus = CorpusDocument(tuple(events))
    state = MemoryState.for_corpus(corpus)
    for ev in corpus.events:
        if rng.random() < 0.8:
            state.assert_true(ev.id)
    return mp, corpus, state


def wide_star_instance(rng: random.Random):
    """(schema, corpus, state) for the oracle where one or two roots host
    4-6 kids, most of them twins that share ?X, and the corpus gives a late
    step event another obj, so coverings fail late and the covering search
    must undo several kid picks before it can try another node."""
    start = (("actor", Var("P")), ("action", Word("start")))
    shared = (("actor", Var("P")), ("action", Word("step")), ("obj", Var("X")))
    plain = (("actor", Var("P")), ("action", Word("step")))
    roots = ["r%d" % i for i in range(1 if rng.random() < 0.5 else 2)]
    nodes = {root: EventExpression(root, start) for root in roots}
    edges = []
    for j in range(rng.randint(4, ORACLE_MAX_NODES - 2)):
        kid = "k%d" % j
        pick = rng.random()
        if pick < 0.6:
            slots = shared
        elif pick < 0.9:
            slots = plain
        else:  # a private variable: not a twin of any other kid
            slots = plain + (("mod", Var("M%d" % j)),)
        nodes[kid] = EventExpression(kid, slots)
        label, test = ("pre", True) if rng.random() < 0.15 else ("part", False)
        edges.append(SchemaEdge(rng.choice(roots), label, kid, test))
    mp = MemorySchema("m", tuple(roots), nodes, tuple(edges), {})
    assert not validate_memory_schema(mp)

    count = rng.randint(4, ORACLE_MAX_EVENTS - 1)
    late = rng.randint(max(2, count - 2), count)
    events = []
    for j in range(1, count + 1):
        slots = [("actor", Word("kim")),
                 ("action", Word("start" if j == 1 or rng.random() < 0.2 else "step")),
                 ("obj", Word("cup" if j == late else "tea"))]
        if rng.random() < 0.7:
            slots.append(("mod", Word("fast")))
        events.append(EventExpression("e%d" % j, tuple(slots)))
    corpus = CorpusDocument(tuple(events))
    state = MemoryState.for_corpus(corpus)
    for ev in corpus.events:
        if rng.random() < 0.8:
            state.assert_true(ev.id)
    return mp, corpus, state


# ---------------------------------------------------------------------------
# Large inputs


def star_texts(kids: int) -> tuple[str, str]:
    """(.mps text, .events text) for one root with `kids` part children.

    The corpus has kids + 1 events: e0 matches the root r, and every other
    event matches any child k1..k<kids>, so a full match covers all of them.
    """
    ids = ["k%d" % i for i in range(1, kids + 1)]
    schema = "memory_schema star { roots: [r]\n%s%s%s}\n" % (
        "node r = schema { actor: ?P action: start }\n",
        "".join("node %s = schema { actor: ?P action: step }\n" % k for k in ids),
        "".join("r -part-> %s\n" % k for k in ids))
    corpus = "event e0 { actor: kim action: start }\n" + "".join(
        "event e%d { actor: kim action: step }\n" % i for i in range(1, kids + 1))
    return schema, corpus


# ---------------------------------------------------------------------------
# Linked schema chains for understand()


def linked_chain_texts(rng: random.Random, m: int, roots: int, kids: int = 1,
                       dead_end: bool = False,
                       mixed: bool = False) -> tuple[str, str]:
    """(.mps text, .events text) for a chain of m linked schemas.

    Each schema has `roots` roots, each root up to `kids` children, and each
    consecutive pair of schemas is linked first root to first root.  Every
    node has its own action word and the corpus holds one event per node,
    block by block in schema order, so the block boundaries are a cut that
    works once e1 is asserted.  A dead end appends one event nothing
    matches: no cut works, and the best attempt matches m - 1 schemas.
    With `mixed`, a node may share the previous node's word, children hang
    under part, cons or pre$ edges and links join random roots, so the cut
    search meets many near misses.
    """
    schemas, events = [], []
    word = 0
    for i in range(m):
        nodes, edges, root_ids = [], [], []
        for j in range(roots):
            root_ids.append("r%d" % j)
            tree = ["r%d" % j] + ["k%d_%d" % (j, x)
                                  for x in range(1, rng.randint(0, kids) + 1)]
            for node in tree:
                if not (mixed and word and rng.random() < 0.25):
                    word += 1
                nodes.append("  node %s = schema { actor: ?P action: w%d }\n"
                             % (node, word))
                events.append("event e%d { actor: kim action: w%d }\n"
                              % (len(events) + 1, word))
            for kid in tree[1:]:
                label = rng.choice(("part", "cons", "pre$")) if mixed else "part"
                edges.append("  %s -%s-> %s\n" % (tree[0], label, kid))
        schemas.append("memory_schema s%d { roots: [%s]\n%s%s}\n"
                       % (i, ", ".join(root_ids), "".join(nodes), "".join(edges)))
    for i in range(1, m):
        src, dst = ((rng.randrange(roots), rng.randrange(roots)) if mixed
                    else (0, 0))
        schemas.append("link s%d.r%d -sequel-> s%d.r%d\n" % (i - 1, src, i, dst))
    if dead_end:
        events.append("event e%d { actor: kim action: stray }\n" % (len(events) + 1))
    return "".join(schemas), "".join(events)


def flexible_chain_texts(m: int) -> tuple[str, str]:
    """(.mps text, .events text) for m linked schemas that each claim one
    event or two.

    Every schema is one root r { action: a } with a ground kid
    k { action: a } that may stay unmatched, and links root to root into
    the next.  The corpus holds m + m // 2 `a` events and then one stray
    event nothing matches, so no cut works.  The stray is foreign to the
    last schema, so the cut search stops the first time a failed attempt
    reaches it.
    """
    return _flexible_chain_texts(m, "a", "part", "stray")


def blocked_chain_texts(m: int) -> tuple[str, str]:
    """The flexible chain with a last schema that never matches, though
    nothing else tells the cut search so.

    The last schema's kid is k { action: b } under r -pre$-> k, and the
    stray is a `b` event.  No event is foreign to a schema it could fall
    to, the corpus fits in the schemas' nodes and the last event matches
    k, but k's event is never true at match time.  Only remembering
    failed cut suffixes keeps the search polynomial: forgetting them,
    each +2 in m makes it about 4 times longer.
    """
    return _flexible_chain_texts(m, "b", "pre$", "b")


def _flexible_chain_texts(m: int, last_kid: str, last_edge: str,
                          last_event: str) -> tuple[str, str]:
    schemas = "".join(
        "memory_schema s%d { roots: [r]\n"
        "  node r = schema { action: a }\n"
        "  node k = schema { action: %s }\n"
        "  r -%s-> k\n}\n" % ((i, "a", "part") if i < m - 1 else
                             (i, last_kid, last_edge)) for i in range(m))
    links = "".join("link s%d.r -sequel-> s%d.r\n" % (i - 1, i) for i in range(1, m))
    count = m + m // 2
    events = "".join("event e%d { action: a }\n" % j for j in range(1, count + 1))
    return schemas + links, events + "event e%d { action: %s }\n" % (count + 1, last_event)
