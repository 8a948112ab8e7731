"""First-order formulas over the signature {N (s-ary), =}.

AST, concrete-syntax parser, printer, quantifier depth, Tarskian evaluator,
and builders for the distance predicates and the two spectrum-witness
properties used elsewhere in the package.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import reduce
from operator import itemgetter
from typing import Callable, Iterable, Mapping

from .bounds import theorem8_split
from .hypercore import Hypergraph, _bfs_layers, _edge_completions


class Formula:
    """Base class for AST nodes; instances are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Atom(Formula):
    args: tuple[str, ...]


@dataclass(frozen=True)
class Eq(Formula):
    left: str
    right: str


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


def neq(x: str, y: str) -> Formula:
    return Not(Eq(x, y))


def _fold(op: Callable[[Formula, Formula], Formula], parts: Iterable[Formula],
          name: str) -> Formula:
    """Left fold of the binary connective `op`; structural duplicates are dropped."""
    seen: list[Formula] = []
    for p in parts:
        if p not in seen:
            seen.append(p)
    if not seen:
        raise ValueError(f"empty {name}")
    return reduce(op, seen)


def and_all(parts: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; structural duplicates are dropped."""
    return _fold(And, parts, "conjunction")


def or_all(parts: Iterable[Formula]) -> Formula:
    """Left-folded disjunction; structural duplicates are dropped."""
    return _fold(Or, parts, "disjunction")


def exists_all(variables: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(list(variables)):
        out = Exists(v, out)
    return out


def free_variables(f: Formula) -> frozenset[str]:
    if isinstance(f, Atom):
        return frozenset(f.args)
    if isinstance(f, Eq):
        return frozenset((f.left, f.right))
    if isinstance(f, Not):
        return free_variables(f.body)
    if isinstance(f, (And, Or, Implies)):
        return free_variables(f.left) | free_variables(f.right)
    if isinstance(f, (Exists, Forall)):
        return free_variables(f.body) - {f.var}
    raise TypeError(f"not a formula node: {f!r}")


def quantifier_depth(f: Formula) -> int:
    """Maximum number of nested quantifiers."""
    if isinstance(f, (Atom, Eq)):
        return 0
    if isinstance(f, Not):
        return quantifier_depth(f.body)
    if isinstance(f, (And, Or, Implies)):
        return max(quantifier_depth(f.left), quantifier_depth(f.right))
    if isinstance(f, (Exists, Forall)):
        return 1 + quantifier_depth(f.body)
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# printer
# ---------------------------------------------------------------------------

_LVL_FORMULA, _LVL_IMPL, _LVL_OR, _LVL_AND, _LVL_UNARY = range(5)


def to_text(f: Formula) -> str:
    """Concrete syntax; parse(to_text(f)) reproduces f exactly."""
    return _print(f, _LVL_FORMULA)


def _print(f: Formula, level: int) -> str:
    if isinstance(f, Atom):
        return f"N({','.join(f.args)})"
    if isinstance(f, Eq):
        s = f"{f.left} = {f.right}"
        return f"({s})" if level > _LVL_UNARY else s
    if isinstance(f, Not):
        inner = _print(f.body, _LVL_UNARY + 1 if isinstance(f.body, Eq) else _LVL_UNARY)
        return f"!{inner}"
    if isinstance(f, And):
        s = f"{_print(f.left, _LVL_AND)} & {_print(f.right, _LVL_UNARY)}"
        return f"({s})" if level > _LVL_AND else s
    if isinstance(f, Or):
        s = f"{_print(f.left, _LVL_OR)} | {_print(f.right, _LVL_AND)}"
        return f"({s})" if level > _LVL_OR else s
    if isinstance(f, Implies):
        s = f"{_print(f.left, _LVL_OR)} -> {_print(f.right, _LVL_IMPL)}"
        return f"({s})" if level > _LVL_IMPL else s
    if isinstance(f, (Exists, Forall)):
        kw = "exists" if isinstance(f, Exists) else "forall"
        s = f"{kw} {f.var} {_print(f.body, _LVL_FORMULA)}"
        return f"({s})" if level > _LVL_FORMULA else s
    raise TypeError(f"not a formula node: {f!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

class FormulaSyntaxError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(r"\s*(->|[()=,&|!]|[A-Za-z_][A-Za-z0-9_]*)")
_KEYWORDS = {"exists", "forall"}


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not m.group(1):
            rest = text[pos:].strip()
            if not rest:
                break
            raise FormulaSyntaxError(f"unexpected character {rest[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.arity: int | None = None  # of the first N atom

    def peek(self) -> str | None:
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def pos(self) -> int:
        return self.tokens[self.i][1] if self.i < len(self.tokens) else len(self.text)

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", len(self.text))
        tok, p = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise FormulaSyntaxError(f"expected {expected!r}, found {tok!r}", p)
        self.i += 1
        return tok

    def variable(self) -> str:
        tok = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok) or tok in _KEYWORDS or tok == "N":
            raise FormulaSyntaxError(f"expected a variable, found {tok!r}",
                                     self.tokens[self.i - 1][1])
        return tok

    def formula(self) -> Formula:
        if self.peek() in _KEYWORDS:
            kw = self.take()
            var = self.variable()
            body = self.formula()
            return Exists(var, body) if kw == "exists" else Forall(var, body)
        return self.implication()

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek() == "->":
            self.take()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        out = self.conjunction()
        while self.peek() == "|":
            self.take()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self) -> Formula:
        out = self.unary()
        while self.peek() == "&":
            self.take()
            out = And(out, self.unary())
        return out

    def unary(self) -> Formula:
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.unary())
        if tok == "(":
            self.take()
            inner = self.formula()
            self.take(")")
            return inner
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok == "N":
            at = self.pos()
            self.take()
            self.take("(")
            args = [self.variable()]
            while self.peek() == ",":
                self.take()
                args.append(self.variable())
            self.take(")")
            if self.arity not in (None, len(args)):
                raise FormulaSyntaxError(
                    f"inconsistent N arities: {sorted((self.arity, len(args)))}", at)
            self.arity = len(args)
            return Atom(tuple(args))
        left = self.variable()
        self.take("=")
        right = self.variable()
        return Eq(left, right)


def parse(text: str) -> Formula:
    """Parse concrete syntax into an AST; all N atoms must agree in arity."""
    p = _Parser(text)
    f = p.formula()
    if p.i < len(p.tokens):
        raise FormulaSyntaxError(f"trailing input {p.peek()!r}", p.pos())
    return f


# ---------------------------------------------------------------------------
# evaluator: compiled once per formula, run once per host
# ---------------------------------------------------------------------------
#
# `compile` turns the AST into closures in one bottom-up pass.  Every
# quantifier also gets a guard: a superset of the values of its variable v that
# can make its body true (exists) or false (forall), so that on sparse hosts it
# tries a few co-edge neighbours instead of every vertex.  A guard is a union
# of sources read from the environment at run time, where u is a variable
# bound outside v's quantifier and not rebound before the atom it comes from:
#   ("e", u)      the value of u                       from v = u
#   ("c", us)     the vertices that share an edge      from N(..v..us..), two or
#                 with the values of all of us         more such u
#   ("n", u)      the co-edge neighbours of u          from N(..v..u..)
#   ("b", u, i)   the ball of radius i around u        from dist(v, u) <= i, below
#   ("d", None)   the vertices of degree >= 1          from N(..v..), no such u
# The empty guard () admits no value: an atom that repeats a variable never
# holds.  Per node, `pos` maps a quantified variable to a guard for the values
# that can make the node true and `neg` to one for the values that can make it
# false; a variable with no entry ranges over all vertices.
#
# `compile` also recognises the distance subtrees that `_dist_at_most` emits,
# whatever their variable names.  The leaf
#   x = y | exists p1 .. exists p(s-2) N(x, p1, .., p(s-2), y)
# with distinct pads, none of them x or y, says dist(x, y) <= 1; the step
#   exists m (dist(x, m) <= a & dist(m, y) <= b)   with b - a in {0, 1}
# and m, x, y distinct says dist(x, y) <= a + b.  Each node reads its shape off
# its children's shapes, so recognition costs O(1) per node.  A recognised
# subtree runs as one lookup in the run's cache of BFS balls; it guards x by
# ("b", y, i) and y by ("b", x, i) and gives no negative guard.
#
# A quantifier memoizes and restores its variable unless every enclosing
# binder's variable is free in it (no two calls share a key: one that rebinds
# another's variable memoizes, which keeps the keys below it distinct) and its
# own is not in scope, neither bound outside it nor free in f (no later read):
# then it is a bare loop.

# by typical size: ("c", us) lies in ("n", u), a ball around u holds u's
# co-edge neighbours, and all of it but u has degree >= 1
_COST = {"e": 2, "c": 3, "n": 4, "b": 5, "d": 6}


def _cost(guard: tuple) -> int:
    return sum([_COST[src[0]] for src in guard])


def _either(left: dict, right: dict) -> dict:
    """Guards of a node that holds only where both sides hold: either side's."""
    if not right:
        return left
    if not left:
        return right
    out = dict(left)
    for v, guard in right.items():
        old = out.get(v)
        if old is None or _cost(guard) < _cost(old):
            out[v] = guard
    return out


def _union(left: dict, right: dict) -> dict:
    """Guards of a node that holds where either side holds: both, or none."""
    if not (left and right):
        return {}
    return {v: tuple(dict.fromkeys(left[v] + right[v])) for v in left.keys() & right.keys()}


def _bind(guards: dict, var: str) -> dict:
    """The guards seen from outside the quantifier that binds `var`."""
    if var not in guards:
        return guards
    out = dict(guards)
    del out[var]
    return out


def _candidates(guard: tuple | None) -> Callable:
    """(env, run) -> the values a guarded quantifier tries."""
    if guard is None:
        return lambda env, run: run.vertices

    def source(kind: str, u: str | None, radius: int = 0) -> Callable:
        if kind == "e":
            return lambda env, run: (env[u],)
        if kind == "c":  # partners on fewer vertices give no key of their size
            get, size = itemgetter(*u), len(u)
            return lambda env, run: run.completions(size).get(frozenset(get(env)), ())
        if kind == "n":
            return lambda env, run: run.neighbors(env[u])
        if kind == "b":
            return lambda env, run: run.ball(env[u], radius)
        return lambda env, run: run.active()

    parts = [source(*src) for src in guard]
    if len(parts) == 1:
        return parts[0]
    return lambda env, run: set().union(*[part(env, run) for part in parts])


class CompiledFormula:
    """A formula turned into closures by `compile`; `evaluate` runs it.

    `arity` is the common arity of the N atoms (None without atoms) and
    `tables` the number of memo tables one run needs."""

    __slots__ = ("arity", "free", "tables", "root")

    def __init__(self, arity: int | None, free: frozenset[str], tables: int, root: Callable):
        self.arity, self.free, self.tables, self.root = arity, free, tables, root


class _Run:
    """One host's lazily built tables and a fresh memo, for one evaluation."""

    __slots__ = ("g", "edges", "vertices", "memos", "_neighbors", "_active", "_completions",
                 "_balls")

    def __init__(self, g: Hypergraph, tables: int):
        self.g = g
        self.edges = g.edges
        self.vertices = g.vertices
        self.memos = [{} for _ in range(tables)]
        self._neighbors: dict[int, tuple[int, ...]] = {}
        self._active: tuple[int, ...] | None = None
        self._completions: dict[int, dict[frozenset[int], set[int]]] = {}  # by key size
        self._balls: dict[int, tuple] = {}  # v -> (balls by radius, BFS layers)

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = self._neighbors.get(v)
        if out is None:
            out = self._neighbors[v] = tuple(self.g.co_edge_neighbors(v))
        return out

    def active(self) -> tuple[int, ...]:
        if self._active is None:
            self._active = tuple(set().union(*self.edges))
        return self._active

    def completions(self, size: int) -> dict[frozenset[int], set[int]]:
        """The host's `_edge_completions` table for `size`, built on first use."""
        table = self._completions.get(size)
        if table is None:
            table = self._completions[size] = _edge_completions(self.g, size)
        return table

    def ball(self, v: int, radius: int) -> frozenset[int]:
        """The vertices at distance <= radius from v.  The balls around v and
        its `_bfs_layers` walk are kept, and grown one layer at a time."""
        grown = self._balls.get(v)
        if grown is None:
            grown = self._balls[v] = ([frozenset((v,))], _bfs_layers(self.g, v))
        balls, layers = grown
        while len(balls) <= radius:
            last = balls[-1]
            layer = next(layers, None)
            balls.append(last | layer if layer else last)
        return balls[radius]


def compile(f: Formula) -> CompiledFormula:
    """Closures, free variables, N arity and quantifier guards of f, in one
    pass."""
    arities: set[int] = set()
    qids, tables = itertools.count(), itertools.count()

    def within(x: str, y: str, radius: int, scope: dict[str, int]):
        """The compiled form of a recognised subtree dist(x, y) <= radius."""
        pos = {}
        for v, u in ((x, y), (y, x)):
            if v in scope and scope.get(u, -1) < scope[v]:
                pos[v] = (("b", u, radius),)
        return ((lambda env, run: env[y] in run.ball(env[x], radius)),
                frozenset((x, y)), pos, {}, ("d", x, y, radius))

    def go(f: Formula, scope: dict[str, int]):
        """-> (closure, free variables, pos guards, neg guards, shape).  `scope`
        maps each variable an enclosing quantifier binds to that quantifier's
        number, which grows inwards; a free variable of f counts as -1.  The
        shape is None or the part of a distance subtree that f can be:
          ("=", x, y)           x = y with x, y distinct
          ("N", args, j)        N(args) with distinct args, the last j pads
                                before args[-1] bound by exists above the atom
          ("m", x, m, y, i)     dist(x, m) <= a & dist(m, y) <= b, a + b = i
          ("d", x, y, i)        a recognised subtree dist(x, y) <= i"""
        kind = type(f)
        if kind is Atom:
            args = f.args
            arities.add(len(args))
            get = itemgetter(*args)  # a tuple: the host check makes the arity s >= 3
            names = frozenset(args)
            if len(names) == len(args):
                pos = {}
                for x in args:
                    if x in scope:
                        outer = tuple(u for u in args if scope.get(u, -1) < scope[x])
                        pos[x] = (("c", outer) if len(outer) > 1
                                  else ("n", *outer) if outer else ("d", None),)
                shape = ("N", args, 0)
            else:  # a repeated variable: never s distinct vertices, never true
                pos = dict.fromkeys(names & scope.keys(), ())
                shape = None
            return (lambda env, run: frozenset(get(env)) in run.edges), names, pos, {}, shape
        if kind is Eq:
            a, b = f.left, f.right
            pos = {}
            if a in scope and scope.get(b, -1) < scope[a]:
                pos[a] = (("e", b),)
            if b in scope and scope.get(a, -1) < scope[b]:
                pos[b] = (("e", a),)
            return ((lambda env, run: env[a] == env[b]), frozenset((a, b)), pos, {},
                    ("=", a, b) if a != b else None)
        if kind is Not:
            body, free, pos, neg, _ = go(f.body, scope)
            return (lambda env, run: not body(env, run)), free, neg, pos, None
        if kind is And or kind is Or or kind is Implies:
            left, lfree, lpos, lneg, lshape = go(f.left, scope)
            right, rfree, rpos, rneg, rshape = go(f.right, scope)
            free = lfree | rfree
            if kind is And:
                shape = None
                if (lshape and rshape and lshape[0] == rshape[0] == "d"
                        and lshape[2] == rshape[1] and lshape[1] != rshape[2]
                        and rshape[3] - lshape[3] in (0, 1)):
                    shape = ("m", lshape[1], lshape[2], rshape[2], lshape[3] + rshape[3])
                return ((lambda env, run: left(env, run) and right(env, run)), free,
                        _either(lpos, rpos), _union(lneg, rneg), shape)
            if kind is Or:
                if (lshape and rshape and lshape[0] == "=" and rshape[0] == "N"
                        and rshape[2] == len(rshape[1]) - 2
                        and lshape[1:] == (rshape[1][0], rshape[1][-1])):
                    return within(lshape[1], lshape[2], 1, scope)
                return ((lambda env, run: left(env, run) or right(env, run)), free,
                        _union(lpos, rpos), _either(lneg, rneg), None)
            return ((lambda env, run: not left(env, run) or right(env, run)), free,
                    _union(lneg, rpos), _either(lpos, rneg), None)
        if kind is Exists or kind is Forall:
            qid = next(qids)
            var = f.var
            body, bfree, bpos, bneg, bshape = go(f.body, {**scope, var: qid})
            shape = None
            if kind is Exists and bshape:
                if bshape[0] == "m" and bshape[2] == var:
                    return within(bshape[1], bshape[3], bshape[4], scope)
                if bshape[0] == "N":
                    args, j = bshape[1], bshape[2]
                    if j < len(args) - 2 and args[-2 - j] == var:
                        shape = ("N", args, j + 1)
            free = bfree - {var}
            want = kind is Exists  # the body value that decides the quantifier
            candidates = _candidates((bpos if want else bneg).get(var))
            if not (var in scope or any(q >= 0 and u not in free for u, q in scope.items())):
                def quantifier(env, run):
                    for w in candidates(env, run):
                        env[var] = w
                        if body(env, run) == want:
                            return want
                    return not want
            else:
                tid = next(tables)
                key = itemgetter(*sorted(free)) if free else (lambda env: None)

                def quantifier(env, run):
                    table = run.memos[tid]
                    k = key(env)
                    hit = table.get(k)
                    if hit is not None:
                        return hit
                    saved = env.get(var)  # None only where nothing reads var
                    result = not want
                    for w in candidates(env, run):
                        env[var] = w
                        if body(env, run) == want:
                            result = want
                            break
                    env[var] = saved
                    table[k] = result
                    return result

            return quantifier, free, _bind(bpos, var), _bind(bneg, var), shape
        raise TypeError(f"not a formula node: {f!r}")

    # the free variables of f are in scope from the start, so that a
    # quantifier that rebinds one restores it
    root, free, _, _, _ = go(f, dict.fromkeys(free_variables(f), -1))
    if len(arities) > 1:
        raise ValueError(f"inconsistent N arities: {sorted(arities)}")
    return CompiledFormula(next(iter(arities), None), free, next(tables), root)


def evaluate(f: Formula | CompiledFormula, g: Hypergraph,
             assignment: Mapping[str, int] | None = None) -> bool:
    """Standard Tarskian semantics; quantifiers range over the vertices of g.

    f is a formula, or one compiled once by `compile` to be run on many hosts.
    The assignment must cover every free variable.  A quantifier tries only
    the values its guard admits, which never changes the truth value.  Where
    a key can repeat, it memoizes on its free variables, within this call.
    """
    c = f if isinstance(f, CompiledFormula) else compile(f)
    if c.arity is not None and c.arity != g.s:
        raise ValueError(f"N arity {c.arity} does not match host arity {g.s}")
    env = dict(assignment or {})
    missing = c.free - env.keys()
    if missing:
        raise ValueError(f"unbound free variables: {sorted(missing)}")
    for var, val in env.items():
        if val not in g.vertices:
            raise ValueError(f"assignment sends {var} to unknown vertex {val}")
    return c.root(env, _Run(g, c.tables))


# ---------------------------------------------------------------------------
# distance-predicate builders
# ---------------------------------------------------------------------------

class _Names:
    """Fresh bound-variable names, deterministic per builder call."""

    def __init__(self):
        self.counter = itertools.count(1)

    def fresh(self) -> str:
        return f"q{next(self.counter)}"

    def batch(self, k: int) -> list[str]:
        return [self.fresh() for _ in range(k)]


def _dist_at_most(i: int, s: int, x: str, y: str, names: _Names) -> Formula:
    """Distance <= i; i = 0 degenerates to equality."""
    if i == 0:
        return Eq(x, y)
    if i == 1:
        extra = names.batch(s - 2)
        return Or(Eq(x, y), exists_all(extra, Atom((x, *extra, y))))
    mid = names.fresh()
    return Exists(mid, And(_dist_at_most(i // 2, s, x, mid, names),
                           _dist_at_most((i + 1) // 2, s, mid, y, names)))


def _dist_exact(i: int, s: int, x: str, y: str, names: _Names) -> Formula:
    if i == 0:
        return Eq(x, y)
    return And(_dist_at_most(i, s, x, y, names),
               Not(_dist_at_most(i - 1, s, x, y, names)))


def build_dist_at_most(i: int, s: int, x: str = "x1", y: str = "x2") -> Formula:
    """Two-free-variable formula: distance between x and y is at most i."""
    if i < 1:
        raise ValueError("distance bound must be >= 1")
    if s < 3:
        raise ValueError("arity must be >= 3")
    return _dist_at_most(i, s, x, y, _Names())


def build_dist_exact(i: int, s: int, x: str = "x1", y: str = "x2") -> Formula:
    """Two-free-variable formula: distance between x and y is exactly i."""
    if i < 1:
        raise ValueError("distance bound must be >= 1")
    if s < 3:
        raise ValueError("arity must be >= 3")
    return _dist_exact(i, s, x, y, _Names())


def _dist_pair(i: int, j: int, s: int, x: str, y: str, z: str, names: _Names) -> Formula:
    return And(_dist_exact(i, s, x, z, names), _dist_exact(j, s, z, y, names))


def _edge_with(args: tuple[str, ...], s: int, names: _Names,
               avoid: tuple[str, ...] = ()) -> Formula:
    """`args` extend to an edge by fresh pads, none of them equal to a
    variable of `avoid`; the pads are drawn from `names` when this is called."""
    pads = names.batch(s - len(args))
    return exists_all(pads, and_all([Atom((*args, *pads))]
                                    + [neq(y, u) for y in pads for u in avoid]))


# ---------------------------------------------------------------------------
# the two composite properties used to probe the spectrum endpoints
# ---------------------------------------------------------------------------

def build_theorem6_L(s: int, k: int) -> Formula:
    """Closed formula of quantifier depth <= k asserting a double path bundle.

    Two vertices a, b at distance exactly 2^l (l = k - s - 4) whose set of
    bundle midpoints is clean of branching (first conjunct) and cannot be
    covered, minus one exception, by two remote hub vertices (second
    conjunct).
    """
    if s < 3:
        raise ValueError("arity must be >= 3")
    l = k - s - 4
    if l < 1:
        raise ValueError(f"need k >= s + 5, got s={s}, k={k}")
    half = 1 << (l - 1)
    full = 1 << l
    names = _Names()
    a, b, u1, u2 = "a", "b", "u1", "u2"

    def midpoint(u: str) -> Formula:
        # u is a midpoint: distance exactly half from both a and b
        return _dist_pair(half, half, s, a, b, u, names)

    def r_one(base: str) -> Formula | None:
        # two paths of length half from u1, u2 meeting on the base side
        terms = []
        x = names.fresh()
        for i in range(1, half):
            terms.append(And(_dist_pair(i, half - i, s, u1, base, x, names),
                             _dist_exact(i, s, u2, x, names)))
        if not terms:
            return None  # empty disjunction (l = 1): identically false, dropped
        return Exists(x, or_all(terms))

    def r_two(base: str) -> Formula:
        # radius half - 1 degenerates to equality at l = 1
        x1, x2 = names.fresh(), names.fresh()
        edge = _edge_with((base, x1, x2), s, names)
        return exists_all(
            [x1, x2],
            and_all([_dist_exact(half - 1, s, u1, x1, names),
                     _dist_exact(half - 1, s, u2, x2, names),
                     edge]))

    branch_parts = [p for p in (r_one(a), r_two(a), r_one(b), r_two(b)) if p is not None]
    q1 = And(
        _dist_exact(full, s, a, b, names),
        Not(Exists(u1, Exists(u2, and_all(
            [neq(u1, u2), midpoint(u1), midpoint(u2), or_all(branch_parts)])))))

    c, z1, z2, u = "c", "z1", "z2", "u"
    covered = Forall(u, Implies(And(midpoint(u), neq(u, c)),
                                Or(_dist_exact(full, s, u, z1, names),
                                   _dist_exact(full, s, u, z2, names))))
    q2 = Not(Exists(c, Exists(z1, Exists(z2, and_all(
        [neq(z1, z2),
         Not(_dist_at_most(full, s, a, z1, names)),
         Not(_dist_at_most(full, s, b, z1, names)),
         Not(_dist_at_most(full, s, a, z2, names)),
         Not(_dist_at_most(full, s, b, z2, names)),
         covered])))))

    return Exists(a, Exists(b, And(q1, q2)))


def build_theorem8_L(s: int, k: int, a1: int | None = None,
                     a2: int | None = None) -> Formula:
    """Closed formula of quantifier depth <= k asserting a two-circuit anchor.

    For k >= s + 2 the split (a1, a2) with a1 + a2 = a + 3 and
    a1, a2 in {1..2^(k-s)} is required; for k = s + 1 the parameters are fixed
    and a1/a2 must be omitted.
    """
    theorem8_split(s, k, a1, a2)
    if k == s + 1:
        return _theorem8_base(s)
    return _theorem8_chain(s, k, a1, a2)


def _theorem8_base(s: int) -> Formula:
    names = _Names()
    x1, x2, x3 = "x1", "x2", "x3"

    q1 = Exists(x2, Exists(x3, And(_edge_with((x1, x2, x3), s, names),
                                   _edge_with((x1, x2), s, names, (x3,)))))
    # T_i: the i given vertices extend to an edge
    q2 = Exists(x2, Exists(x3, and_all([
        _edge_with((x1, x2), s, names), _edge_with((x1, x3), s, names),
        _edge_with((x2, x3), s, names), Not(_edge_with((x1, x2, x3), s, names))])))
    return Exists(x1, And(q1, q2))


def _theorem8_chain(s: int, k: int, a1: int, a2: int) -> Formula:
    names = _Names()
    x1 = "x1"

    def c_one(w: str) -> Formula:
        p, q = names.fresh(), names.fresh()
        return and_all([neq(w, x1),
                        Exists(p, Exists(q, and_all(
                            [neq(p, x1), neq(q, x1), _edge_with((w, p, q), s, names, (x1,)),
                             _edge_with((w, p), s, names, (x1, q))])))])

    def c_two(w: str) -> Formula:
        p, q = names.fresh(), names.fresh()
        return and_all([neq(w, x1),
                        Exists(p, Exists(q, and_all(
                            [neq(p, x1), neq(q, x1), _edge_with((w, p), s, names, (x1,)),
                             _edge_with((w, q), s, names, (x1,)),
                             _edge_with((p, q), s, names, (x1,)),
                             Not(_edge_with((w, p, q), s, names))])))])

    def leg(first_dist: int, tail: "callable") -> Formula:
        # chain: x2 at distance first_dist from x1, then hops 2^(k-s-1) .. 2^2;
        # every link is built before the tail, which keeps the fresh names
        dists = [first_dist] + [1 << j for j in range(k - s - 1, 1, -1)]
        hops = [x1] + names.batch(len(dists))
        links = [_dist_exact(i, s, u, v, names) for i, u, v in zip(dists, hops, hops[1:])]
        out = tail(hops[-1])
        for v, link in zip(reversed(hops[1:]), reversed(links)):
            out = Exists(v, And(link, out))
        return out

    return Exists(x1, And(leg(a1, c_one), leg(a2, c_two)))
