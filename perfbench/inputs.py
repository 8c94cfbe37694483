"""Seeded inputs for every workload: data, query mixes, portal schedule.

Everything the program under test receives is made here, from the
benchmark's ``--seed`` alone: a GtoPdb-shaped project file (schema, rows
and the paper's citation views V1-V5 as Datalog strings) and Datalog
query strings.  Nothing is imported from the program, so a change to the
program's own generators cannot change a workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

TYPE_NAMES = ("gpcr", "vgic", "lgic", "nhr", "enzyme", "catalytic",
              "transporter", "other-ic")

SCHEMA = {
    "Family": {"attributes": ["FID", "FName", "Type"], "key": ["FID"]},
    "FamilyIntro": {
        "attributes": ["FID", "Text"], "key": ["FID"],
        "foreign_keys": [{"columns": ["FID"], "references": "Family",
                          "ref_columns": ["FID"]}],
    },
    "Person": {"attributes": ["PID", "PName", "Affiliation"], "key": ["PID"]},
    "FC": {
        "attributes": ["FID", "PID"], "key": ["FID", "PID"],
        "foreign_keys": [
            {"columns": ["FID"], "references": "Family",
             "ref_columns": ["FID"]},
            {"columns": ["PID"], "references": "Person",
             "ref_columns": ["PID"]},
        ],
    },
    "FIC": {
        "attributes": ["FID", "PID"], "key": ["FID", "PID"],
        "foreign_keys": [
            {"columns": ["FID"], "references": "FamilyIntro",
             "ref_columns": ["FID"]},
            {"columns": ["PID"], "references": "Person",
             "ref_columns": ["PID"]},
        ],
    },
    "MetaData": {"attributes": ["Type", "Value"], "key": ["Type"]},
}

# The paper's Example 2.1 views, as a project file declares them.
VIEWS = [
    {"view": "lambda F. V1(F, N, Ty) :- Family(F, N, Ty)",
     "citation_query": "lambda F. CV1(F, N, Pn) :- Family(F, N, Ty), "
                       "FC(F, C), Person(C, Pn, A)",
     "labels": ["ID", "Name", "Committee"]},
    {"view": "lambda F. V2(F, Tx) :- FamilyIntro(F, Tx)",
     "citation_query": "lambda F. CV2(F, N, Tx, Pn) :- Family(F, N, Ty), "
                       "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)",
     "labels": ["ID", "Name", "Text", "Contributors"]},
    {"view": "V3(F, N, Ty) :- Family(F, N, Ty)",
     "citation_query": 'CV3(X1, X2) :- MetaData(T1, X1), T1 = "Owner", '
                       'MetaData(T2, X2), T2 = "URL"',
     "labels": ["Owner", "URL"]},
    {"view": "lambda Ty. V4(F, N, Ty) :- Family(F, N, Ty)",
     "citation_query": "lambda Ty. CV4(Ty, N, Pn) :- Family(F, N, Ty), "
                       "FC(F, C), Person(C, Pn, A)",
     "labels": ["Type", "Name", "Committee"]},
    {"view": "lambda Ty. V5(F, N, Ty, Tx) :- Family(F, N, Ty), "
             "FamilyIntro(F, Tx)",
     "citation_query": "lambda Ty. CV5(N, Ty, Tx, Pn) :- Family(F, N, Ty), "
                       "FamilyIntro(F, Tx), FIC(F, C), Person(C, Pn, A)",
     "labels": ["Name", "Type", "Text", "Contributors"]},
]


@dataclass
class GtopdbData:
    """Rows of one generated instance, keyed by relation name."""

    rows: dict[str, list[list[str]]]
    families: list[str] = field(default_factory=list)
    intro_families: list[str] = field(default_factory=list)
    persons: list[str] = field(default_factory=list)

    def write_project(self, path: Path) -> None:
        payload = {"schema": SCHEMA, "data": self.rows, "views": VIEWS}
        path.write_text(json.dumps(payload))


def _quota(total: int, weights: list[float]) -> list[int]:
    """Split ``total`` in proportion to ``weights`` (largest remainder)."""
    exact = [total * weight / sum(weights) for weight in weights]
    counts = [int(value) for value in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda index: counts[index] - exact[index])
    for index in by_remainder[:total - sum(counts)]:
        counts[index] += 1
    return counts


def generate_gtopdb(seed: int, families: int, persons: int) -> GtopdbData:
    """A GtoPdb-shaped instance: Zipf-skewed family types, committees of
    1-4 and, for 60% of families, an introduction with 1-3 contributors,
    all drawn from a shared person pool.

    Counts are stratified: every seed has the same number of families
    per type, of introductions and of committees and contributor lists
    of each size.  The seed decides which family gets which, and who
    serves on each committee.
    """
    rng = random.Random(f"gtopdb/{seed}")
    person_ids = [f"p{i}" for i in range(persons)]
    rows: dict[str, list[list[str]]] = {name: [] for name in SCHEMA}
    rows["Person"] = [[pid, f"Person{i}", f"Institute{i % 13}"]
                      for i, pid in enumerate(person_ids)]
    weights = [1.0 / (rank + 1) for rank in range(len(TYPE_NAMES))]
    types = [name for name, count in zip(TYPE_NAMES,
                                         _quota(families, weights))
             for __ in range(count)]
    rng.shuffle(types)
    committees = [1 + index % 4 for index in range(families)]
    rng.shuffle(committees)
    intros = set(rng.sample(range(families), round(0.6 * families)))
    contributors = [1 + index % 3 for index in range(len(intros))]
    rng.shuffle(contributors)
    data = GtopdbData(rows, persons=person_ids)
    for index in range(families):
        fid = f"f{index}"
        data.families.append(fid)
        rows["Family"].append([fid, f"Family{index}", types[index]])
        for pid in rng.sample(person_ids, committees[index]):
            rows["FC"].append([fid, pid])
        if index in intros:
            data.intro_families.append(fid)
            rows["FamilyIntro"].append(
                [fid, f"Introduction to family {index}"])
            for pid in rng.sample(person_ids, contributors.pop()):
                rows["FIC"].append([fid, pid])
    rows["MetaData"] = [["Owner", "Tony Harmar"],
                        ["URL", "guidetopharmacology.org"],
                        ["Version", "23"]]
    return data


# ---------------------------------------------------------------------------
# library query mix
# ---------------------------------------------------------------------------

# FK-connected join shapes of at most three atoms.  Each entry lists the
# atoms as (relation, arity) and the joins as ((atom, position),
# (atom, position)) pairs that must share a variable.
_SHAPES = {
    "F": ([("Family", 3)], []),
    "I": ([("FamilyIntro", 2)], []),
    "P": ([("Person", 3)], []),
    "C": ([("FC", 2)], []),
    "M": ([("MetaData", 2)], []),
    "FC": ([("Family", 3), ("FC", 2)], [((0, 0), (1, 0))]),
    "FI": ([("Family", 3), ("FamilyIntro", 2)], [((0, 0), (1, 0))]),
    "CP": ([("FC", 2), ("Person", 3)], [((0, 1), (1, 0))]),
    "IX": ([("FamilyIntro", 2), ("FIC", 2)], [((0, 0), (1, 0))]),
    "FCP": ([("Family", 3), ("FC", 2), ("Person", 3)],
            [((0, 0), (1, 0)), ((1, 1), (2, 0))]),
    "FIC": ([("Family", 3), ("FamilyIntro", 2), ("FC", 2)],
            [((0, 0), (1, 0)), ((0, 0), (2, 0))]),
    "IXP": ([("FamilyIntro", 2), ("FIC", 2), ("Person", 3)],
            [((0, 0), (1, 0)), ((1, 1), (2, 0))]),
}

# The 40 slots of a mix: (shape, selected (atom, position) or None).
# 28 of 40 slots (70%) carry one equality selection.
_MIX = [
    ("F", None), ("F", (0, 0)), ("F", (0, 2)), ("F", (0, 1)),
    ("I", None), ("I", (0, 0)), ("I", (0, 1)),
    ("P", None), ("P", (0, 0)), ("P", (0, 2)),
    ("C", None), ("C", (0, 0)), ("C", (0, 1)),
    ("M", (0, 0)), ("M", (0, 0)),
    ("FC", None), ("FC", (0, 2)), ("FC", (1, 1)), ("FC", (0, 0)),
    ("FI", None), ("FI", (0, 2)), ("FI", (1, 0)),
    ("CP", None), ("CP", (1, 2)), ("CP", (0, 0)),
    ("IX", None), ("IX", (1, 1)), ("IX", (0, 0)),
    ("FCP", None), ("FCP", (0, 2)), ("FCP", (2, 0)), ("FCP", (0, 0)),
    ("FIC", None), ("FIC", (0, 2)), ("FIC", (2, 1)),
    ("IXP", None), ("IXP", (2, 2)), ("IXP", (0, 0)), ("IXP", (1, 1)),
    ("FCP", (2, 2)),
]


def _by_frequency(data: GtopdbData, relation: str, position: int,
                  rng: random.Random) -> list[str]:
    """A column's distinct values, most frequent first, then by how
    often they occur anywhere in the data (what a join on them fans out
    to: a family's committee and contributors, a person's seats); ties
    in seeded order."""
    column: dict[str, int] = {}
    for row in data.rows[relation]:
        column[row[position]] = column.get(row[position], 0) + 1
    anywhere = dict.fromkeys(column, 0)
    for rows in data.rows.values():
        for row in rows:
            for value in row:
                if value in anywhere:
                    anywhere[value] += 1
    values = sorted(column)
    rng.shuffle(values)
    return sorted(values, key=lambda value: (-column[value],
                                             -anywhere[value]))


def query_mix(data: GtopdbData, seed: int) -> list[str]:
    """The 40-query library mix as Datalog strings.

    A slot's shape, projection and the frequency rank of its selection
    constant (a quantile of the column's distinct values) come from the
    slot's own fixed stream, so every seed has the same cost profile;
    the seed draws the data and, among values of equal frequency, the
    constant.
    """
    rng = random.Random(f"mix/{seed}")
    queries = []
    for index, (shape, selection) in enumerate(_MIX):
        slot = random.Random(f"slot/{index}")
        atoms, joins = _SHAPES[shape]
        terms = [[f"X{a}{p}" for p in range(arity)]
                 for a, (__, arity) in enumerate(atoms)]
        for (a1, p1), (a2, p2) in joins:
            terms[a2][p2] = terms[a1][p1]
        variables = list(dict.fromkeys(t for row in terms for t in row))
        head = slot.sample(variables, slot.randint(1, min(3, len(variables))))
        body = [f"{relation}({', '.join(terms[a])})"
                for a, (relation, __) in enumerate(atoms)]
        if selection is not None:
            atom, position = selection
            values = _by_frequency(data, atoms[atom][0], position, rng)
            constant = values[int(slot.random() * len(values))]
            body.append(f'{terms[atom][position]} = "{constant}"')
        queries.append(f"Q{index}({', '.join(head)}) :- {', '.join(body)}")
    return queries


# ---------------------------------------------------------------------------
# portal schedule
# ---------------------------------------------------------------------------

PORTAL_TEMPLATES = {
    "family": 'Page(N, Ty) :- Family(F, N, Ty), F = "{fid}"',
    "committee": 'Committee(N, Pn) :- Family(F, N, Ty), FC(F, P), '
                 'Person(P, Pn, Af), F = "{fid}"',
    "intro": 'Intro(Tx) :- FamilyIntro(F, Tx), F = "{fid}"',
}


@dataclass
class PortalOp:
    """One scheduled operation: a ``/cite`` read or an FC write."""

    due: float            # seconds after the start of the phase
    kind: str             # "read", "insert" or "delete"
    query: str = ""
    row: tuple[str, str] = ("", "")


class PortalTraffic:
    """Seeded portal traffic: Zipf-skewed point reads over three page
    templates taken in turn, and FC inserts of absent committee rows
    each followed, at the next write slot, by the delete of that row."""

    def __init__(self, data: GtopdbData, seed: int) -> None:
        self.rng = random.Random(f"portal/{seed}")
        self.data = data
        self.fc = {tuple(row) for row in data.rows["FC"]}
        self.pending: list[tuple[str, str]] = []
        # Popularity ranks are stratified by the size of what a page
        # joins, so rank r costs the same on every seed: family and
        # committee pages by committee size, introductions by the number
        # of contributors.
        self.popular = self._stratified(data.families, data.rows["FC"])
        self.popular_intro = self._stratified(data.intro_families,
                                              data.rows["FIC"])

    def _stratified(self, ids: list[str],
                    members: list[list[str]]) -> list[str]:
        """``ids`` in a seeded order whose r-th entry has the r-th size
        of a fixed round robin over the sizes of ``members`` groups."""
        sizes = {fid: 0 for fid in ids}
        for fid, __ in members:
            if fid in sizes:
                sizes[fid] += 1
        groups: dict[int, list[str]] = {}
        for fid in ids:
            groups.setdefault(sizes[fid], []).append(fid)
        for group in groups.values():
            self.rng.shuffle(group)
        order = sorted(groups)
        ranked = []
        while any(groups.values()):
            for size in order:
                if groups[size]:
                    ranked.append(groups[size].pop())
        return ranked

    def _zipf(self, ids: list[str]) -> str:
        # Inverse-CDF draw for weights 1/(rank+1): rank = n^u - 1.
        rank = int(len(ids) ** self.rng.random()) - 1
        return ids[min(rank, len(ids) - 1)]

    def read(self, slot: int) -> str:
        # The templates take turns by slot, so every seed weighs them
        # equally and the read after a write rotates through them.
        template = tuple(PORTAL_TEMPLATES)[slot % len(PORTAL_TEMPLATES)]
        ids = self.popular_intro if template == "intro" else self.popular
        return PORTAL_TEMPLATES[template].format(fid=self._zipf(ids))

    def write(self) -> tuple[str, tuple[str, str]]:
        if self.pending:
            return "delete", self.pending.pop(0)
        while True:
            row = (self._zipf(self.popular),
                   self.rng.choice(self.data.persons))
            if row not in self.fc:
                self.pending.append(row)
                return "insert", row

    def schedule(self, rate: float, seconds: float,
                 write_share: float) -> list[PortalOp]:
        """Ops due at a fixed rate; every ``1/write_share``-th slot, at a
        seeded offset, is a write."""
        count = max(1, int(rate * seconds))
        period = round(1 / write_share)
        offset = self.rng.randrange(period)
        ops = []
        for index in range(count):
            due = index / rate
            if index % period == offset:
                kind, row = self.write()
                ops.append(PortalOp(due, kind, row=row))
            else:
                ops.append(PortalOp(due, "read", query=self.read(index)))
        return ops
