"""Rewriting engine: oriented relations, truncated diamond-lemma completion,
normal forms, and an independent linear-algebra dimension oracle.

Reduction is deterministic: at each step the leftmost redex is taken, ties
broken by lowest rule index. Redexes are found by walking one trie of the lhs
words from each position in turn; a node where an lhs ends holds the lowest
index of a rule with that lhs. Completion resolves every overlap and
inclusion ambiguity whose superposition word has weight at most the bound; by
the diamond lemma this makes normal forms unique below that weight. It
enumerates the superpositions themselves, not rule pairs, through a second
index from the proper prefixes, proper suffixes and subwords of the lhs words
to their rules. Each hit names the word two lhs words share, so the weight of
its superposition follows from the two lhs weights without building anything;
only the superpositions under the bound get a polynomial, made by
concatenating words. The completion at any bound is a prefix of the one at
every higher bound (the argument is in complete), so a system only grows: it
records where each bound's rules end, its rung, and reads a rung by reducing
modulo that prefix.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations_with_replacement

from . import symbols as sy
from .fields import Field, check_same_field
from .poly import NcPoly, Word, abelianize, order_key, word_weight


class RewriteRule:
    """lhs word -> rhs polynomial, with lhs strictly dominating every rhs word."""

    __slots__ = ("lhs", "rhs", "weight")

    def __init__(self, lhs: Word, rhs: NcPoly):
        self.lhs = tuple(lhs)
        self.rhs = rhs
        self.weight = word_weight(self.lhs)
        if not self.lhs:
            raise ValueError("rule lhs may not be the empty word")
        # a rule holds no module variable, so a rewrite with it keeps a word
        # normalized (see RewriteSystem._expand)
        if any(sy.is_module_var(s) for s in self.lhs):
            raise ValueError("rule lhs may not contain module variables")
        lk = order_key(self.lhs)
        for w in rhs.terms:
            if any(sy.is_module_var(s) for s in w):
                raise ValueError("rule rhs may not contain module variables")
            if not order_key(w) < lk:
                raise ValueError(f"rule lhs does not dominate rhs word {w}")

    def __repr__(self):
        return f"Rule({'*'.join(sy.sym_name(s) for s in self.lhs)} -> {self.rhs})"


def orient(relation: NcPoly) -> RewriteRule:
    """Monicize and split off the order-leading word as the rule's lhs."""
    if relation.is_zero():
        raise ValueError("cannot orient the zero relation")
    lw, lc = relation.leading()
    f = relation.field
    scale = f.neg(f.inv(lc))
    rhs = NcPoly(f, {w: f.mul(scale, c) for w, c in relation.terms.items() if w != lw})
    return RewriteRule(lw, rhs)


# the trie key of a rule index: symbol ids are >= 0
_END = -1


class RewriteSystem:
    """An ordered list of rules over one coefficient field, with memoized
    word normal forms. Rule order matters: it is the reduction tie-break.

    complete grows the list in place. Rung c, the completion at bound c, is
    the first ends[c] rules, and normal_form(p, c) reduces modulo them. Each
    rule count read keeps a memo of word normal forms. Adding a rule drops
    the memo at the count before it; a memo that a read makes at a lower
    count stays, and stays valid, since the rules only grow."""

    def __init__(self, field: Field, rules: list[RewriteRule] | None = None):
        self.field = field
        self.rules: list[RewriteRule] = []
        # ends[c] is the rule count of rung c, for every c < len(ends)
        self.ends: list[int] = []
        # set when completion derives a unit: rung len(ends) and every rung
        # above it are the zero ring
        self.collapsed = False
        # the paused run of complete, if any
        self.pending = None
        # the trie of lhs words: each node maps a symbol id to its child, and
        # _END to the lowest index of a rule whose lhs ends there
        self._trie: dict = {}
        # rule count -> memo of word normal forms modulo that many rules
        self._memos: dict[int, dict] = {}
        for r in rules or []:
            self._add_rule(r)

    def has_rung(self, bound: int) -> bool:
        """Whether rung `bound` is known: its end, or that it is the zero ring."""
        return bound < len(self.ends) or self.collapsed

    def _add_rule(self, rule: RewriteRule) -> None:
        """Append a rule, dropping the memo of the rules before."""
        n = len(self.rules)
        node = self._trie
        for s in rule.lhs:
            node = node.setdefault(s, {})
        node.setdefault(_END, n)
        self.rules.append(rule)
        self._memos.pop(n, None)

    # reduction

    def find_redex(self, w: Word, end: int):
        """(position, rule index) of the leftmost, lowest-index match among
        the first `end` rules; None if irreducible by them."""
        root = self._trie
        for pos in range(len(w)):
            node, best = root, end
            for s in w[pos:]:
                node = node.get(s)
                if node is None:
                    break
                idx = node.get(_END, end)
                if idx < best:
                    best = idx
            if best < end:
                return pos, best
        return None

    def _expand(self, w: Word, pos: int, idx: int) -> dict:
        """One rewrite of w at pos with rule idx. No rule holds a module
        variable, so each word is already normalized, distinct rhs words stay
        distinct and no coefficient cancels."""
        rule = self.rules[idx]
        prefix = w[:pos]
        suffix = w[pos + len(rule.lhs) :]
        return {prefix + rw + suffix: rc for rw, rc in rule.rhs.terms.items()}

    def nf_word(self, w: Word, end: int) -> dict:
        """Normal form of a single word modulo the first `end` rules, as a
        terms dict. Memoized. A word waiting on its children keeps its
        one-step expansion on the stack."""
        cache = self._memos.get(end)
        if cache is None:
            cache = self._memos[end] = {}
        got = cache.get(w)
        if got is not None:
            return got
        f = self.field
        stack: list[tuple[Word, dict | None]] = [(w, None)]
        while stack:
            cur, step = stack[-1]
            if cur in cache:
                stack.pop()
                continue
            if step is None:
                red = self.find_redex(cur, end)
                if red is None:
                    cache[cur] = {cur: f.one}
                    stack.pop()
                    continue
                step = self._expand(cur, red[0], red[1])
                stack[-1] = (cur, step)
            missing = [u for u in step if u not in cache]
            if missing:
                stack.extend((u, None) for u in missing)
                continue
            acc: dict = {}
            for u, c in step.items():
                for v, cv in cache[u].items():
                    c0 = acc.get(v)
                    c2 = f.add(c0, f.mul(c, cv)) if c0 is not None else f.mul(c, cv)
                    if f.is_zero(c2):
                        acc.pop(v, None)
                    else:
                        acc[v] = c2
            cache[cur] = acc
            stack.pop()
        return cache[w]

    def normal_form(self, p: NcPoly, bound: int | None = None) -> NcPoly:
        """p's normal form modulo rung `bound`, or modulo every rule so far
        when `bound` is None."""
        check_same_field(self.field, p.field)
        f = self.field
        if self.collapsed and (bound is None or bound >= len(self.ends)):
            return NcPoly(f, {})
        end = len(self.rules) if bound is None else self.ends[bound]
        acc: dict = {}
        for w, c in p.terms.items():
            for v, cv in self.nf_word(w, end).items():
                c0 = acc.get(v)
                c2 = f.add(c0, f.mul(c, cv)) if c0 is not None else f.mul(c, cv)
                if f.is_zero(c2):
                    acc.pop(v, None)
                else:
                    acc[v] = c2
        return NcPoly(f, acc)


def _superposition_difference(r1: RewriteRule, r2: RewriteRule, key: int, field: Field) -> NcPoly:
    """The difference of the two one-step reductions of a superposition of
    r1.lhs and r2.lhs, named by its key: for key < len(r1.lhs), the overlap
    of the last key letters of r1.lhs with the first key letters of r2.lhs;
    otherwise r2.lhs inside r1.lhs at position key - len(r1.lhs). Neither
    rule holds a module variable, so each product is a concatenation of
    words (as in RewriteSystem._expand)."""
    u, n = r1.lhs, len(r1.lhs)
    if key < n:
        tail, head, rest = r2.lhs[key:], u[: n - key], ()
    else:
        pos = key - n
        tail, head, rest = (), u[:pos], u[pos + len(r2.lhs) :]
    acc = {w + tail: c for w, c in r1.rhs.terms.items()}
    for w, c in r2.rhs.terms.items():
        nw = head + w + rest
        c0 = acc.get(nw)
        if c0 is None:
            acc[nw] = field.neg(c)
        else:
            c0 = field.sub(c0, c)
            if field.is_zero(c0):
                del acc[nw]
            else:
                acc[nw] = c0
    return NcPoly(field, acc)


def complete(system: RewriteSystem, bound: int, until=None) -> RewriteSystem:
    """Truncated completion: grow `system` in place until rung `bound` is
    known, and return it. A run resolves all ambiguities with superposition
    weight at most its bound, iterating to a fixpoint. Deterministic: tasks
    are handled in order of (superposition weight, rule pair, key), and each
    surviving difference is oriented and appended in that order. Within an
    ordered rule pair (i, j), the key of an overlap is its length, which is
    less than len(lhs_i), and the key of an inclusion is len(lhs_i) plus its
    position. So a pair's overlaps pop first, shortest first, then its
    inclusions from left to right, the order in which a scan of the pair
    meets them; the key depends neither on the window nor on which
    superpositions exist, so the pop order, and with it the rule list, does
    not depend on how the entries were found. Each superposition has one
    key, so the heap entries are unique.

    Only superpositions are enumerated, never rule pairs. An index over the
    lhs words of the rules so far maps each proper prefix, each proper
    suffix, each subword and each lhs to the rules that have it. A rule m
    with lhs u is entered when it is added, and each hit is a superposition
    with a rule k <= m: (k, m) when u[:o] is a proper suffix of k's lhs, of
    weight w_k + w_m - weight(u[:o]); (m, k) when u[o:] is a proper prefix
    of k's lhs, of weight weight(u[:o]) + w_k; (m, k) when u contains k's
    lhs, of weight w_m, once per position; and (k, m) when k's lhs contains
    u, of weight w_k, whose positions are found in k's lhs once the weight
    is in the window. A superposition outside the window is skipped before
    any polynomial is made, and the difference of one inside it is built
    when it is popped. The heap thus receives the in-window entries of a
    scan of every rule pair, and its order does not depend on the order of
    the pushes. The base rules are entered one at a time in the same way.

    Rungs are prefixes. A run at bound B pops every task of weight <= c < B
    before any heavier one, and normal forms depend only on the rule list,
    so until its heap first holds no entry of weight <= c it replays the run
    at c step for step: the rules so far then are rung c, and their count is
    recorded as its end. Its heap then holds every ambiguity of those rules
    with weight in (c, B], each under the same key, so a run that starts
    from rung c and seeds only the window (c, B] gives exactly the rules of
    a run at B from the base rules. A request therefore resumes the paused
    run, if any, until rung `bound` is known; a run that ends below
    `bound` is followed by one over the window above it. A run that derives
    a unit while popping an entry of weight w leaves every rung >= w the
    zero ring and no run after it.

    `until`, if given, is called with the system after each new rule and
    each rung end a run records short of rung `bound`. At the first True
    the run pauses on the system's `pending` slot, where the next request
    resumes it."""
    s = system
    while not s.has_rung(bound):
        if s.pending is None:
            s.pending = _completion(s, len(s.ends) - 1, bound)
        for _ in s.pending:
            if s.has_rung(bound):
                break
            if until is not None and until(s):
                return s
        else:
            s.pending = None
    return s


def _completion(s: RewriteSystem, lo: int, bound: int):
    """A run of complete on s from its rung lo to `bound`: yields after each
    new rule and after each rung end it records short of `bound`."""
    f = s.field
    rules, ends = s.rules, s.ends
    weight = sy.WEIGHT
    # entries (weight, i, j, key)
    heap: list = []
    # the pair index: word -> indices of the rules entered so far
    prefixes: dict[Word, list[int]] = {}
    suffixes: dict[Word, list[int]] = {}
    containing: dict[Word, list[int]] = {}
    by_lhs: dict[Word, list[int]] = {}

    def enter(m: int, above: int) -> None:
        """Index rule m and push its superpositions with every rule k <= m
        whose weight lies in (above, bound]."""
        r = rules[m]
        u, wm, n = r.lhs, r.weight, len(r.lhs)
        pw = [0]  # pw[o] is the weight of u[:o]
        for x in u:
            pw.append(pw[-1] + weight[x])
        for o in range(1, n):
            prefixes.setdefault(u[:o], []).append(m)
            suffixes.setdefault(u[o:], []).append(m)
        for w in {u[a:b] for a in range(n) for b in range(a + 1, n + 1)}:
            containing.setdefault(w, []).append(m)
        by_lhs.setdefault(u, []).append(m)
        for o in range(1, n):
            for k in suffixes.get(u[:o], ()):
                wt = rules[k].weight + wm - pw[o]
                if above < wt <= bound:
                    heappush(heap, (wt, k, m, o))
            for k in prefixes.get(u[o:], ()):
                if k != m:  # (m, m) is met through suffixes
                    wt = pw[o] + rules[k].weight
                    if above < wt <= bound:
                        heappush(heap, (wt, m, k, n - o))
        for k in containing[u]:  # (m, m) among them
            wt = rules[k].weight
            if above < wt <= bound:
                v = rules[k].lhs
                for a in range(len(v) - n + 1):
                    if v[a : a + n] == u:
                        heappush(heap, (wt, k, m, len(v) + a))
        if above < wm <= bound:
            for a in range(n):
                for b in range(a + 1, n + 1):
                    for k in by_lhs.get(u[a:b], ()):
                        if k != m:
                            heappush(heap, (wm, m, k, n + a))

    for m in range(len(rules)):
        enter(m, lo)

    while heap:
        top = heap[0][0]
        if len(ends) < top:
            # no entry of weight < top is left: those rungs end here
            ends.extend([len(rules)] * (top - len(ends)))
            yield
        _, i, j, key = heappop(heap)
        h = s.normal_form(_superposition_difference(rules[i], rules[j], key, f))
        if h.is_zero():
            continue
        if h.leading()[0] == ():
            # a nonzero scalar lies in the ideal, so the presented algebra is
            # the zero ring and every element reduces to zero
            s.collapsed = True
            return
        s._add_rule(orient(h))
        enter(len(rules) - 1, -1)
        yield
    ends.extend([len(rules)] * (bound + 1 - len(ends)))


# the commutative dimension oracle (no rewriting involved)


def _rank(rows, field: Field, key) -> int:
    """Exact Gaussian elimination on sparse rows (dict monomial -> coeff)."""
    pivots: dict = {}
    rank = 0
    for row in rows:
        row = dict(row)
        while row:
            lead = max(row, key=key)
            piv = pivots.get(lead)
            if piv is None:
                c = field.inv(row[lead])
                pivots[lead] = {m: field.mul(c, v) for m, v in row.items()}
                rank += 1
                break
            c = row[lead]
            nxt = dict(row)
            for m, v in piv.items():
                v2 = field.sub(nxt.get(m, field.zero), field.mul(c, v))
                if field.is_zero(v2):
                    nxt.pop(m, None)
                else:
                    nxt[m] = v2
            row = nxt
    return rank


def commutative_truncated_dimension(field: Field, generators, relations, degree: int) -> int:
    """Dimension of the weight-`degree` slice of the abelianized quotient:
    monomials are sorted words, and each row is a monomial times a relation,
    abelianized, row-reduced exactly."""
    gens = sorted(generators, key=lambda s: sy.KEY[s])
    if any(sy.WEIGHT[g] != 1 for g in gens):
        raise ValueError("commutative oracle expects weight-1 generators")
    rows = []
    for rel in relations:
        degs = {len(m) for m in rel.terms}
        if len(degs) > 1:
            raise ValueError("inhomogeneous commutative relation")
        if not rel.terms:
            continue
        k = degs.pop()
        if k > degree:
            continue
        for m in combinations_with_replacement(gens, degree - k):
            rows.append(abelianize(NcPoly.from_word(field, m) * rel).terms)
    monomials = len(list(combinations_with_replacement(gens, degree)))
    return monomials - _rank(rows, field, order_key)
