"""The four benchmark workloads.

Each workload generates its inputs from the seed, warms the program up
to the steady state its timed ops run in (that is its set-up), and then
hands out ops one at a time.  An op is ``(kind, cls, run)``: ``run()``
performs one question → top-5 (batch workloads) or one service request
(``service-rw``) and returns the output, which :meth:`check` compares
with the reference recorded at set-up.  Only ``run()`` is timed.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import Explainer
from repro.bench.matrix import ranking_fingerprint
from repro.datasets import dblp, natality, tpch
from repro.service import ExplanationService, MutateRequest, MutationSpec
from repro.service.protocol import QuestionSpec, ServiceRequest
from repro.service.registry import DatasetRegistry

Op = Tuple[str, str, Callable[[], Any]]

#: Input sizes, chosen so a run holds enough ops for a steady median.
NATALITY_ROWS = 20_000
DBLP_SCALE = 1.0
#: dblp databases per run.  Program P's cost depends on the database's
#: cascade structure, not just its size: between seeds one op's cost
#: differs by up to ±15% at scale 1.  Ops rotate over this many
#: databases, each generated from its own sub-seed of ``--seed``, so a
#: run measures their average.
DBLP_DATABASES = 4
TPCH_SF = 0.1
SERVICE_ROWS = 30_000
TOP_K = 5


class _Questions:
    """A batch workload: fresh ``Explainer`` per op, kinds in rotation.

    A kind is a question on a database.  Set-up answers every kind once.  That answer's table and ranking
    fingerprints are the reference for the kind, unless a
    ``reference_backend`` is given: then the reference is that
    backend's answer, and the warm-up answer must already match it.
    """

    backend = "memory"

    def __init__(
        self,
        questions: Dict[str, Tuple[Any, Any, Sequence[str]]],
        reference_backend: Optional[str] = None,
    ) -> None:
        self.questions = questions
        self.kinds = tuple(questions)
        self.cycle = len(self.kinds)
        self.expected: Dict[str, Tuple[str, str]] = {}
        for kind in self.kinds:
            if reference_backend is not None:
                reference = self.answer(kind, reference_backend)
                self.expected[kind] = self.fingerprints(reference)
            warm = self.fingerprints(self.answer(kind))
            self.expected.setdefault(kind, warm)
            if warm != self.expected[kind]:
                raise RuntimeError(f"{kind}: {self.backend} answer differs")

    def answer(self, kind: str, backend: Optional[str] = None):
        database, question, attributes = self.questions[kind]
        explainer = Explainer(
            database, question, attributes, backend=backend or self.backend
        )
        return explainer, explainer.top(TOP_K, method="auto")

    @staticmethod
    def fingerprints(output: Tuple[Explainer, list]) -> Tuple[str, str]:
        explainer, ranking = output
        table = explainer.explanation_table("auto")
        return table.content_fingerprint(), ranking_fingerprint(ranking)

    def op(self, i: int) -> Op:
        kind = self.kinds[i % self.cycle]
        return kind, "question", lambda: self.answer(kind)

    def check(self, kind: str, output: Any) -> bool:
        return self.fingerprints(output) == self.expected[kind]

    def cache_counts(self) -> Tuple[int, int]:
        return 0, 0


class NatalityCube(_Questions):
    """Q_Race and Q_Marital alternating: the Algorithm 1 cube path."""

    def __init__(self, seed: int) -> None:
        database = natality.generate(rows=NATALITY_ROWS, seed=seed)
        super().__init__(
            {
                "race": (
                    database,
                    natality.q_race_question(),
                    natality.default_attributes("race"),
                ),
                "marital": (
                    database,
                    natality.q_marital_question(),
                    natality.default_attributes("marital"),
                ),
            },
        )


class DblpIntervention(_Questions):
    """The dblp bump question, which ``auto`` resolves to program P.

    One kind per database: ``bump-0`` … ``bump-{DBLP_DATABASES - 1}``.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(
            {
                f"bump-{j}": (
                    dblp.generate(
                        scale=DBLP_SCALE, seed=seed * DBLP_DATABASES + j
                    ),
                    dblp.bump_question(),
                    ["Author.inst"],
                )
                for j in range(DBLP_DATABASES)
            },
        )


class TpchSqlite(_Questions):
    """All planted TPC-H questions, answered inside SQLite.

    The reference is the in-memory engine's answer, computed once at
    set-up: both backends must produce the same table and ranking.
    """

    backend = "sqlite"

    def __init__(self, seed: int) -> None:
        database = tpch.generate(sf=TPCH_SF, seed=seed)
        super().__init__(
            {
                name: (
                    database,
                    tpch.question(name),
                    tpch.question_attributes(name),
                )
                for name in tpch.question_names()
            },
            reference_backend="memory",
        )


# -- the service workload -----------------------------------------------------

DATASET = "births"
MARITAL = QuestionSpec(
    "high",
    "((q1 + 0.0001) / (q2 + 0.0001)) / ((q3 + 0.0001) / (q4 + 0.0001))",
    tuple(
        f"q{i} := count(*) WHERE Birth.ap = '{ap}' AND Birth.marital = '{m}'"
        for i, (ap, m) in enumerate(
            (
                ("good", "married"),
                ("poor", "married"),
                ("good", "unmarried"),
                ("poor", "unmarried"),
            ),
            start=1,
        )
    ),
)
_PLANS = {
    "race": {},
    "marital": {
        "question": MARITAL,
        "attributes": tuple(natality.default_attributes("marital")),
    },
}

#: Read request templates: ``(kind, endpoint, plan, by, k)``.
READS = (
    ("explain-race", "explain", "race", "intervention", 5),
    ("explain-marital", "explain", "marital", "intervention", 5),
    ("topk-race-aggravation-10", "topk", "race", "aggravation", 10),
    ("topk-marital-intervention-3", "topk", "marital", "intervention", 3),
    ("topk-race-hybrid-5", "topk", "race", "hybrid", 5),
    ("topk-marital-aggravation-8", "topk", "marital", "aggravation", 8),
)
READS_PER_CYCLE = 8
WRITE_ROWS = 50
_RANKING_KEYS = ("ranking", "top_by_intervention", "top_by_aggravation")


class ServiceRW:
    """Reads and delete-then-reinsert writes on an incremental service.

    Each cycle is eight reads in seeded order, then one write that deletes
    ``WRITE_ROWS`` seeded ``Birth`` rows and one that inserts them
    back.  Reads therefore always see the set-up content, and must
    return exactly the ranking the cold service returned at set-up.
    """

    cycle = READS_PER_CYCLE + 2

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self._deck: List[str] = []
        database = natality.generate(rows=SERVICE_ROWS, seed=seed)
        registry = DatasetRegistry(with_builtins=False)
        registry.register_database(
            DATASET,
            database,
            question=natality.q_race_question(),
            attributes=natality.default_attributes("race"),
        )
        self.service = ExplanationService(registry=registry, refresh="incremental")
        self.births = list(database.relation("Birth").row_list())
        self.requests = {
            kind: ServiceRequest(
                dataset=DATASET, method="auto", by=by, k=k, **_PLANS[plan]
            )
            for kind, _, plan, by, k in READS
        }
        self.endpoint = {kind: endpoint for kind, endpoint, *_ in READS}
        # The cold build of both plans, then every read's reference.
        self.expected = {
            kind: self._rankings(self._read(kind)) for kind in self.requests
        }
        # One write pair seeds the incremental sessions' first refresh.
        self._pending: Tuple[tuple, ...] = ()
        for i in range(READS_PER_CYCLE, READS_PER_CYCLE + 2):
            kind, _, run = self.op(i)
            if not self.check(kind, run()):
                raise RuntimeError(f"service warm-up {kind} failed")

    def _read(self, kind: str):
        request = self.requests[kind]
        if self.endpoint[kind] == "explain":
            return self.service.explain(request)
        return self.service.topk(request)

    @staticmethod
    def _rankings(result) -> Dict[str, Any]:
        return {k: result.payload[k] for k in _RANKING_KEYS if k in result.payload}

    def op(self, i: int) -> Op:
        slot = i % self.cycle
        if slot < READS_PER_CYCLE:
            # Reads deal from a shuffled deck of the templates, so the
            # mix stays balanced whatever the seed.
            if not self._deck:
                self._deck = [r[0] for r in READS]
                self.rng.shuffle(self._deck)
            kind = self._deck.pop()
            return kind, "read", lambda: self._read(kind)
        if slot == READS_PER_CYCLE:
            self._pending = tuple(self.rng.sample(self.births, WRITE_ROWS))
            spec = MutationSpec(relation="Birth", delete=self._pending)
            kind = "delete"
        else:
            spec = MutationSpec(relation="Birth", insert=self._pending)
            kind = "insert"
        request = MutateRequest(dataset=DATASET, mutations=(spec,))
        return kind, "write", lambda: self.service.mutate(request)

    def check(self, kind: str, output: Any) -> bool:
        if kind in self.expected:
            return self._rankings(output) == self.expected[kind]
        payload = output.payload
        moved = payload["deleted"] if kind == "delete" else payload["inserted"]
        sessions = payload["patched"]
        return (
            moved == WRITE_ROWS
            and len(sessions) == len(_PLANS)
            and all(
                "error" not in s and s.get("strategy") in ("patched", "rebuilt")
                for s in sessions
            )
        )

    def cache_counts(self) -> Tuple[int, int]:
        stats = self.service.cache.stats()
        return stats.hits, stats.misses


WORKLOADS = {
    "natality-cube": NatalityCube,
    "dblp-intervention": DblpIntervention,
    "tpch-sqlite": TpchSqlite,
    "service-rw": ServiceRW,
}
