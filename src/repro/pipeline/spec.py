"""Pipeline specifications.

A pipeline is a DAG of modules; each module serves one DNN model.  This
mirrors the paper's JSON configuration format, where every module is a
``(name, id, pres, subs)`` record: ``name`` is the model registered in the
application library, ``pres``/``subs`` the preceding/subsequent module ids.

Token-flow join semantics
-------------------------

Requests traverse the DAG as *token flow*: a request enters the pipeline
carrying one token; a fork splits its token into one token per chosen
successor; a join merges every token it receives back into one.  A join
therefore fires exactly when the number of tokens it will ever receive —
one per predecessor that will actually execute — have all arrived.

The spec freezes everything the request lifecycle needs to maintain that
"will ever receive" quantity without per-request graph walks:

* under full fan-out every predecessor executes, so a join's demand is
  simply its in-degree;
* when a fork routes a request down a subset of its successors, each
  unchosen edge stops carrying a token.  The precomputed per-(fork,
  branch) :class:`KillPlan` lists the consequences of that one dead edge
  in isolation: the modules that can then never execute (their entire
  inflow came through it) and, for every *border* join that survives, how
  many of its incoming edges died — i.e. how much its token demand drops.
* runtime state composes overlapping choices: when independently applied
  plans drive a border join's remaining demand to zero, that join is dead
  too, and its own :meth:`PipelineSpec.death_plan` propagates the loss —
  again pure table lookups plus counter updates.

Counting token flow this way (rather than downstream *paths*) is what
keeps re-merging DAGs correct: a token that re-merges at an intermediate
join is one token afterwards, no matter how many paths led into the merge,
so a later join is never over- or under-counted.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from ..schema import Seq, Spec, Str, field


@dataclass(frozen=True)
class ModuleSpec(Spec):
    """One module (one DNN model) in the pipeline DAG."""

    _section, _prefix = "module", "module "

    id: str = field(Str())
    model: str = field(Str())
    pres: tuple[str, ...] = field(Seq(Str()), ())
    subs: tuple[str, ...] = field(Seq(Str()), ())


@dataclass(frozen=True, slots=True)
class KillPlan:
    """Precomputed consequences of one dead edge (or module) for token flow.

    ``dead`` lists the modules (topological order) that can never execute
    once the plan's root edges carry no token — their entire inflow came
    through those edges.  ``dead_exits`` counts the exit modules among
    them.  ``join_deltas`` lists, for every join that *survives* with a
    reduced inflow, how many of its incoming edges died — the amount its
    token demand must drop.  Plans are computed in isolation; the request
    flow composes overlapping plans through per-request live counters.
    """

    dead: tuple[str, ...] = ()
    dead_exits: int = 0
    join_deltas: tuple[tuple[str, int], ...] = ()


@dataclass
class PipelineSpec:
    """A validated DAG of :class:`ModuleSpec`.

    ``modules`` preserves declaration order, which is also the display order
    used by metrics (M1..MN for chains).
    """

    name: str
    modules: list[ModuleSpec] = dataclasses.field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_id = {m.id: m for m in self.modules}
        if len(self._by_id) != len(self.modules):
            raise ValueError(f"duplicate module ids in pipeline {self.name!r}")
        # Declared edges by source, in declaration order (the order the
        # mirror check below reports the first inconsistent edge in).
        succ: dict[str, dict[str, None]] = {mid: {} for mid in self._by_id}
        for m in self.modules:
            # Duplicate edge declarations would be double-delivered by the
            # request flow — a join double-fire waiting to happen.  Reject
            # them up front.
            if len(set(m.pres)) != len(m.pres):
                raise ValueError(
                    f"module {m.id!r} declares duplicate predecessor edges: "
                    f"{list(m.pres)}"
                )
            if len(set(m.subs)) != len(m.subs):
                raise ValueError(
                    f"module {m.id!r} declares duplicate successor edges: "
                    f"{list(m.subs)}"
                )
            for p in m.pres:
                if p not in self._by_id:
                    raise ValueError(f"module {m.id!r} references unknown pre {p!r}")
                succ[p][m.id] = None
            for s in m.subs:
                if s not in self._by_id:
                    raise ValueError(f"module {m.id!r} references unknown sub {s!r}")
                succ[m.id][s] = None
        for a, targets in succ.items():
            for b in targets:
                if b not in self._by_id[a].subs or a not in self._by_id[b].pres:
                    raise ValueError(
                        f"inconsistent edge {a!r}->{b!r}: pres/subs must mirror each other"
                    )
        # Modules no entry can reach would never receive a token and any
        # join depending on them would hang the simulation — diagnose the
        # malformation here, by name, instead.  (Checked before acyclicity
        # so a cycle hanging off the reachable DAG is reported as the
        # unreachable region it is.)
        if self.modules:
            entries = [m.id for m in self.modules if not m.pres]
            if not entries:
                raise ValueError(
                    f"pipeline {self.name!r} has no entry module: every "
                    "module has predecessors, so the graph contains a cycle"
                )
            reachable = set(entries)
            frontier = list(entries)
            while frontier:
                mid = frontier.pop()
                for s in self._by_id[mid].subs:
                    if s not in reachable:
                        reachable.add(s)
                        frontier.append(s)
            unreachable = [m.id for m in self.modules if m.id not in reachable]
            if unreachable:
                raise ValueError(
                    f"pipeline {self.name!r} has modules unreachable from "
                    f"any entry: {unreachable}"
                )
        # Kahn's algorithm, always popping the smallest ready id: the
        # deterministic lexicographic topological order.  Ids it never pops
        # lie on a cycle or downstream of one.
        pending = {m.id: len(m.pres) for m in self.modules}
        ready = [mid for mid, n in pending.items() if n == 0]
        heapq.heapify(ready)
        topo: list[str] = []
        while ready:
            mid = heapq.heappop(ready)
            topo.append(mid)
            for s in self._by_id[mid].subs:
                pending[s] -= 1
                if pending[s] == 0:
                    heapq.heappush(ready, s)
        if len(topo) < len(self.modules):
            raise ValueError(f"pipeline {self.name!r} contains a cycle")
        if self.modules:
            # Weak connectivity: walk edges in both directions.
            seen = {self.modules[0].id}
            frontier = [self.modules[0].id]
            while frontier:
                m = self._by_id[frontier.pop()]
                for other in (*m.pres, *m.subs):
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
            if len(seen) < len(self.modules):
                raise ValueError(f"pipeline {self.name!r} is not connected")
        self._paths_cache: dict[str, list[list[str]]] = {}
        self._freeze_structure(tuple(topo))

    def _freeze_structure(self, topo: tuple[str, ...]) -> None:
        """Precompute the DAG views consumed on the per-request hot path.

        The spec is immutable after validation, so topological order,
        declaration indices, per-module descendant sets and the token-flow
        tables (per-(fork, branch) :class:`KillPlan`, per-module death
        plans, in-degrees) are all computed exactly once here instead of
        re-deriving them (via a graph traversal + a full sort) on every
        fork passage or budget lookup.
        """
        self._ids: tuple[str, ...] = tuple(m.id for m in self.modules)
        self._index: dict[str, int] = {mid: i for i, mid in enumerate(self._ids)}
        self._topo: tuple[str, ...] = topo
        topo_index = {mid: i for i, mid in enumerate(self._topo)}
        self._chain: bool = all(
            len(m.pres) <= 1 and len(m.subs) <= 1 for m in self.modules
        )
        # Descendant sets by reverse-topological accumulation: one union
        # per edge instead of one graph traversal per query.
        desc: dict[str, frozenset[str]] = {}
        for mid in reversed(self._topo):
            reach: set[str] = set()
            for s in self._by_id[mid].subs:
                reach.add(s)
                reach.update(desc[s])
            desc[mid] = frozenset(reach)
        self._desc = desc
        self._downstream: dict[str, tuple[str, ...]] = {
            mid: tuple(sorted(reach, key=topo_index.__getitem__))
            for mid, reach in desc.items()
        }
        # Token-flow tables.  Under full fan-out every predecessor of a
        # join delivers one token, so the demand is the in-degree; the
        # kill plans below describe how that demand shrinks when a fork
        # routes a request down a subset of its successors.
        self._in_degree: dict[str, int] = {
            mid: len(self._by_id[mid].pres) for mid in self._ids
        }
        self._join_ids: tuple[str, ...] = tuple(
            mid for mid in self._topo if self._in_degree[mid] > 1
        )
        self._fork_ids: tuple[str, ...] = tuple(
            mid for mid in self._topo if len(self._by_id[mid].subs) > 1
        )
        self._exit_count: int = sum(1 for m in self.modules if not m.subs)
        self._edge_kill_plans: dict[tuple[str, str], KillPlan] = {}
        for fid in self._fork_ids:
            for s in self._by_id[fid].subs:
                self._edge_kill_plans[(fid, s)] = self._kill_closure(
                    ((fid, s),)
                )
        self._death_plans: dict[str, KillPlan] = {
            mid: self._kill_closure(
                tuple((mid, t) for t in self._by_id[mid].subs)
            )
            for mid in self._ids
        }

    def _kill_closure(self, root_edges: tuple[tuple[str, str], ...]) -> KillPlan:
        """The :class:`KillPlan` for a set of edges that carry no token.

        A (non-entry) module dies when every incoming edge is either a
        root edge or originates from an already-dead module — one pass in
        topological order computes the closure.  Joins that survive with
        some dead in-edges become the plan's ``join_deltas``.
        """
        roots = set(root_edges)
        dead: set[str] = set()
        for mid in self._topo:
            pres = self._by_id[mid].pres
            if not pres:
                continue
            if all(p in dead or (p, mid) in roots for p in pres):
                dead.add(mid)
        deltas: list[tuple[str, int]] = []
        for mid in self._join_ids:
            if mid in dead:
                continue
            k = sum(
                1
                for p in self._by_id[mid].pres
                if p in dead or (p, mid) in roots
            )
            if k:
                deltas.append((mid, k))
        return KillPlan(
            dead=tuple(mid for mid in self._topo if mid in dead),
            dead_exits=sum(1 for mid in dead if not self._by_id[mid].subs),
            join_deltas=tuple(deltas),
        )

    # -- structure ---------------------------------------------------------

    @property
    def module_ids(self) -> list[str]:
        return list(self._ids)

    @property
    def entry_ids(self) -> list[str]:
        """Modules with no predecessors (requests enter here)."""
        return [m.id for m in self.modules if not m.pres]

    @property
    def exit_ids(self) -> list[str]:
        """Modules with no successors (requests complete here)."""
        return [m.id for m in self.modules if not m.subs]

    @property
    def is_chain(self) -> bool:
        """True when the DAG is a simple linear chain."""
        return self._chain

    def __len__(self) -> int:
        return len(self.modules)

    def __getitem__(self, module_id: str) -> ModuleSpec:
        return self._by_id[module_id]

    def __contains__(self, module_id: str) -> bool:
        return module_id in self._by_id

    def successors(self, module_id: str) -> tuple[str, ...]:
        return self._by_id[module_id].subs

    def predecessors(self, module_id: str) -> tuple[str, ...]:
        return self._by_id[module_id].pres

    def index_of(self, module_id: str) -> int:
        """Position of the module in declaration order (0-based)."""
        try:
            return self._index[module_id]
        except KeyError:
            raise ValueError(f"{module_id!r} is not in pipeline {self.name!r}") from None

    def topological_order(self) -> list[str]:
        """Module ids in a deterministic topological order (precomputed)."""
        return list(self._topo)

    def paths_from(self, module_id: str) -> list[list[str]]:
        """All DAG paths from ``module_id`` (exclusive) to any exit module.

        Used by the latency estimator: the end-to-end estimate of a request
        at a fork is the maximum over its downstream paths.  Paths exclude
        the starting module itself; the path for an exit module is ``[]``.
        """
        cached = self._paths_cache.get(module_id)
        if cached is not None:
            return cached
        subs = self.successors(module_id)
        if not subs:
            paths: list[list[str]] = [[]]
        else:
            paths = []
            for s in subs:
                for tail in self.paths_from(s):
                    paths.append([s, *tail])
        self._paths_cache[module_id] = paths
        return paths

    def downstream(self, module_id: str) -> list[str]:
        """All modules reachable from ``module_id`` (topological order)."""
        return list(self._downstream[module_id])

    def downstream_set(self, module_id: str) -> frozenset[str]:
        """Reachable modules as a set (O(1) membership on request paths)."""
        return self._desc[module_id]

    # -- token-flow tables -------------------------------------------------

    def in_degree(self, module_id: str) -> int:
        """Number of incoming edges — a join's token demand at full fan-out."""
        return self._in_degree[module_id]

    @property
    def join_ids(self) -> tuple[str, ...]:
        """Modules with in-degree > 1 (topological order)."""
        return self._join_ids

    @property
    def fork_ids(self) -> tuple[str, ...]:
        """Modules with more than one successor (topological order)."""
        return self._fork_ids

    @property
    def exit_count(self) -> int:
        """Number of exit modules (a request completes when all finish)."""
        return self._exit_count

    def edge_kill_plan(self, fork_id: str, branch_id: str) -> KillPlan:
        """Token-flow consequences of a fork not choosing ``branch_id``.

        Precomputed at construction for every (fork, successor) edge;
        raises ``ValueError`` for edges that are not fork branches.
        """
        try:
            return self._edge_kill_plans[(fork_id, branch_id)]
        except KeyError:
            raise ValueError(
                f"{fork_id!r} -> {branch_id!r} is not a fork edge of "
                f"pipeline {self.name!r}"
            ) from None

    def death_plan(self, module_id: str) -> KillPlan:
        """Token-flow consequences of ``module_id`` never executing.

        Applied when runtime kill plans drive a join's remaining token
        demand to zero: the dead join's outgoing edges stop carrying
        tokens, and this plan propagates that loss downstream.
        """
        return self._death_plans[module_id]

    # -- path reductions (policy budget shares / forward estimates) --------

    def cumulative_upstream_max(
        self, values: Mapping[str, float]
    ) -> dict[str, float]:
        """Per module, the heaviest entry-to-module path sum (inclusive).

        One dynamic-programming pass over the frozen topological order:
        ``cum[m] = values[m] + max(cum[p] for p in predecessors)``.  This
        is the table split-budget policies divide the SLO with — the
        share of the longest upstream path, consistent with max-over-path
        latency estimation — without per-policy recursion or memo
        invalidation (and without enumerating paths, which is exponential
        on dense DAGs).
        """
        cum: dict[str, float] = {}
        for mid in self._topo:
            pres = self._by_id[mid].pres
            best = max((cum[p] for p in pres), default=0.0)
            cum[mid] = values[mid] + best
        return cum

    def downstream_path_max(
        self, values: Mapping[str, float]
    ) -> dict[str, float]:
        """Per module, the heaviest downstream path sum (exclusive).

        ``out[m] = max(values[s] + out[s] for s in successors)`` over the
        reversed topological order; 0.0 for exit modules.  Replaces
        explicit path enumeration for additive per-module estimates.
        """
        out: dict[str, float] = {}
        for mid in reversed(self._topo):
            out[mid] = max(
                (values[s] + out[s] for s in self._by_id[mid].subs),
                default=0.0,
            )
        return out

    # -- serialisation -----------------------------------------------------

    def to_json(self) -> str:
        """Serialise to the paper's JSON module-list format."""
        return json.dumps(
            {
                "name": self.name,
                "modules": [
                    {
                        "name": m.model,
                        "id": m.id,
                        "pres": list(m.pres),
                        "subs": list(m.subs),
                    }
                    for m in self.modules
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Parse the paper's JSON pipeline-definition format."""
        data = json.loads(text)
        modules = [
            ModuleSpec(
                id=str(m["id"]),
                model=str(m["name"]),
                pres=tuple(str(p) for p in m.get("pres", [])),
                subs=tuple(str(s) for s in m.get("subs", [])),
            )
            for m in data["modules"]
        ]
        return cls(name=str(data.get("name", "pipeline")), modules=modules)

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineSpec":
        return cls.from_json(Path(path).read_text())


def chain(name: str, models: list[str]) -> PipelineSpec:
    """Build a linear pipeline ``M1 -> M2 -> ... -> MN`` from model names."""
    if not models:
        raise ValueError("a chain needs at least one model")
    ids = [f"m{i + 1}" for i in range(len(models))]
    modules = [
        ModuleSpec(
            id=ids[i],
            model=models[i],
            pres=(ids[i - 1],) if i > 0 else (),
            subs=(ids[i + 1],) if i + 1 < len(models) else (),
        )
        for i in range(len(models))
    ]
    return PipelineSpec(name=name, modules=modules)
