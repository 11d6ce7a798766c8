"""Seeded generator for the benchmark's three document families.

Every document is a `.mps` schema file plus an `.events` corpus file.  Each
schema node carries an action word used by no other node of the document,
and the corpus holds one event per node, laid out block by block in schema
order.  So the generator knows, before the engine runs, which event every
node must match, which segment every schema must claim and how long the
confirmed sequel chain must be.  Those facts travel with the document as a
`Doc` and are what `check.py` compares the engine's output against.

A round is a fixed list of document structures; the seed picks the
contents (words, actor, extra slots) and the order.  Every round therefore
costs the engine the same, and the spread between runs is the machine's.  Round `k` of seed `s` is generated from its own random stream,
so a run can take as many rounds as its time allows and no document repeats.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ACTORS = ("kim", "lee", "ana", "raj", "ola", "tom", "eva", "ngo", "ida", "sam")
VERBS = ("wake", "wash", "go", "read", "pay", "ring", "cook", "walk", "meet",
         "call", "buy", "sing", "pack", "wait", "park", "rest")
TIMES = ("dawn", "noon", "dusk", "night")

WORKLOADS = ("linked-chain", "many-links", "deep-trees")

# Round sizes.  A round holds a fixed set of structures, so a run's per-
# document times fall into one group per structure.  With n documents per
# round, the median and the 90th percentile land in the middle of a group
# (never on the edge between two, where they would jump from run to run)
# when n ends in 5; so does n for the understood documents that `story`
# times.

# linked-chain: (schemas m, roots r, max part kids per root c).  Every shape
# appears LINKED_VARIANTS times per round; the first LINKED_DEAD of them end
# in a trailing stray event (35 documents, 10 dead ends).
LINKED_SHAPES = ((2, 1, 1), (3, 2, 0), (2, 3, 1), (3, 3, 1), (4, 2, 1))
LINKED_VARIANTS = 7
LINKED_DEAD = 2

# many-links: chain lengths m (one one-root schema per event).
MANY_LINKS_SIZES = (40, 70, 100, 130, 160)

# deep-trees: (depth of the cons/part chain, width of the part star, whether
# the chain hangs under the first root, and for two-schema documents the
# root of the small lead schema that links into the large one).
DEEP_SHAPES = (
    (20, 120, False, None), (50, 40, True, None), (70, 20, True, None),
    (40, 30, True, "r0"), (60, 20, False, "r1"),
)


@dataclass
class Block:
    schema: str
    start: int  # 1-based, inclusive
    end: int
    events: tuple[str, ...]


@dataclass
class Doc:
    """One generated document and everything the engine must report for it."""

    name: str
    schemas_text: str
    events_text: str
    first_event: str
    dead_end: bool
    schema_names: tuple[str, ...]
    blocks: tuple[Block, ...]
    # schema -> (root, event, position) per root, in root order
    anchors: dict[str, tuple[tuple[str, str, int], ...]]
    # schema -> non-root node -> event
    node_maps: dict[str, dict[str, str]]
    event_ids: tuple[str, ...]
    links: int
    chain_length: int


class _Builder:
    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.actor = rng.choice(ACTORS)
        self.words = 0
        self.schema_lines: list[str] = []
        self.event_lines: list[str] = []
        self.event_ids: list[str] = []
        self.names: list[str] = []
        self.blocks: list[Block] = []
        self.anchors: dict[str, tuple[tuple[str, str, int], ...]] = {}
        self.node_maps: dict[str, dict[str, str]] = {}
        self.links: list[tuple[str, str, str, str]] = []

    def _action(self) -> str:
        self.words += 1
        return "%s%d" % (self.rng.choice(VERBS), self.words)

    def _event(self, action: str, obj: str | None) -> str:
        ev = "e%d" % (len(self.event_ids) + 1)
        self.event_ids.append(ev)
        lines = ["event %s {" % ev, "  actor: %s" % self.actor,
                 "  action: %s" % action]
        if obj is not None:
            lines.append("  obj: %s" % obj)
        if self.rng.random() < 0.5:
            lines.append("  time: %s" % self.rng.choice(TIMES))
        self.event_lines.append("\n".join(lines) + "\n}\n")
        return ev

    def schema(self, trees: list[list[tuple[int, str]]], node_vars: bool = False) -> str:
        """Add one schema and its block of events.

        `trees` holds one kid list per root; kid i is (index of its parent,
        edge label), where index 0 is the root and index i+1 is kid i.  With
        `node_vars` every node also binds a variable of its own, so the
        schema cannot leave a node unmatched.
        """
        name = "s%d" % len(self.names)
        self.names.append(name)
        start = len(self.event_ids) + 1
        node_lines: list[str] = []
        edge_lines: list[str] = []
        anchors = []
        node_map: dict[str, str] = {}
        roots = []
        for j, kids in enumerate(trees):
            ids = ["r%d" % j] + ["n%d_%d" % (j, i + 1) for i in range(len(kids))]
            roots.append(ids[0])
            for i, node in enumerate(ids):
                action = self._action()
                obj = "%s%d" % (self.rng.choice(VERBS), self.words) if node_vars else None
                ev = self._event(action, obj)
                lines = ["  node %s = schema {" % node, "    actor: ?P",
                         "    action: %s" % action]
                if node_vars:
                    lines.append("    obj: ?V%d" % self.words)
                node_lines.append("\n".join(lines) + "\n  }")
                if i == 0:
                    anchors.append((node, ev, len(self.event_ids)))
                else:
                    node_map[node] = ev
                    parent, label = kids[i - 1]
                    edge_lines.append("  %s -%s-> %s" % (ids[parent], label, node))
        self.schema_lines.append(
            "memory_schema %s {\n  roots: [%s]\n%s\n%s}\n"
            % (name, ", ".join(roots), "\n".join(node_lines),
               "".join(line + "\n" for line in edge_lines)))
        end = len(self.event_ids)
        self.blocks.append(Block(name, start, end, tuple(self.event_ids[start - 1:end])))
        self.anchors[name] = tuple(anchors)
        self.node_maps[name] = node_map
        return name

    def link(self, src: str, src_root: str, dst: str, dst_root: str) -> None:
        self.links.append((src, src_root, dst, dst_root))

    def doc(self, name: str, chain_length: int, dead_end: bool) -> Doc:
        if dead_end:
            # Its action is unique, so no schema node can cover it.
            self._event("stray%d" % (self.words + 1), None)
        link_lines = "".join("link %s.%s -sequel-> %s.%s\n" % l for l in self.links)
        return Doc(
            name=name,
            schemas_text="\n".join(self.schema_lines) + ("\n" + link_lines if link_lines else ""),
            events_text="\n".join(self.event_lines),
            first_event=self.event_ids[0],
            dead_end=dead_end,
            schema_names=tuple(self.names),
            blocks=tuple(self.blocks),
            anchors=self.anchors,
            node_maps=self.node_maps,
            event_ids=tuple(self.event_ids),
            links=len(self.links),
            chain_length=chain_length,
        )


def _linked_chain(rng: random.Random, name: str, m: int, r: int, c: int,
                  variant: int, dead_end: bool) -> Doc:
    b = _Builder(rng)
    for i in range(m):
        # Kid counts cycle through 0..c by position, so every round holds the
        # same structures and costs the same whatever the seed.
        b.schema([[(0, "part")] * ((i + j + variant) % (c + 1)) for j in range(r)])
        if i:
            b.link("s%d" % (i - 1), "r0", "s%d" % i, "r0")
    # s0.r0 -> s1.r0 -> ... -> s(m-1).r0 -> s(m-1).r1 -> ... -> s(m-1).r(r-1)
    return b.doc(name, m + r - 1, dead_end)


def _many_links(rng: random.Random, name: str, m: int) -> Doc:
    b = _Builder(rng)
    for i in range(m):
        b.schema([[]])
        if i:
            b.link("s%d" % (i - 1), "r0", "s%d" % i, "r0")
    return b.doc(name, m, False)


def _chain(depth: int) -> list[tuple[int, str]]:
    return [(i, "cons" if i % 2 == 0 else "part") for i in range(depth)]


def _star(width: int) -> list[tuple[int, str]]:
    return [(0, "part")] * width


def _deep_trees(rng: random.Random, name: str, depth: int, width: int,
                chain_first: bool, lead_link: str | None) -> Doc:
    b = _Builder(rng)
    if lead_link:
        # A small schema whose nodes all bind a variable of their own: a cut
        # that gives it less than its whole block fails on it, before the
        # large schema is searched.
        b.schema([_chain(3), _star(3)], node_vars=True)
    trees = [_chain(depth), _star(width)]
    big = b.schema(trees if chain_first else trees[::-1])
    if not lead_link:
        return b.doc(name, 2, False)
    b.link("s0", lead_link, big, "r0")
    # s0.r0 [-> s0.r1] -> s1.r0 -> s1.r1
    return b.doc(name, 4 if lead_link == "r1" else 3, False)


def round_docs(workload: str, seed: int, index: int) -> list[Doc]:
    """Round `index` of a workload: the fixed shape list, shuffled by seed."""
    rng = random.Random("%s/%d/%d" % (workload, seed, index))
    docs: list[Doc] = []
    if workload == "linked-chain":
        for m, r, c in LINKED_SHAPES:
            for k in range(LINKED_VARIANTS):
                docs.append(_linked_chain(
                    rng, "lc-m%d-r%d-c%d-%d" % (m, r, c, k), m, r, c, k, k < LINKED_DEAD))
    elif workload == "many-links":
        for m in MANY_LINKS_SIZES:
            docs.append(_many_links(rng, "ml-m%d" % m, m))
    elif workload == "deep-trees":
        for shape in DEEP_SHAPES:
            docs.append(_deep_trees(rng, "dt-d%d-w%d-%d-%s" % shape, *shape))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(docs)
    return docs
