//! Independent sets and the independence number `α`.
//!
//! The paper parametrizes broadcast and leader election by the independence
//! number `α(G)` — the size of a maximum independent set (Section 1.1). The
//! harness needs:
//!
//! * validity checks ([`is_independent_set`], [`is_maximal_independent_set`])
//!   used to verify every MIS the radio algorithms output;
//! * greedy maximal independent sets ([`greedy_mis`], [`greedy_mis_order`])
//!   as lower bounds for `α` and as reference MIS solutions;
//! * cheap upper bounds (greedy clique cover, matching/Gallai bound);
//! * an exact branch-and-bound maximum-independent-set solver
//!   ([`maximum_independent_set`]) with a work budget;
//! * [`alpha_bounds`] combining all of the above into an [`AlphaBounds`]
//!   bracket, which is what experiments feed into the `O(D log_D α)`
//!   predictions.

use crate::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Whether `set` is an independent set of `g` (no two members adjacent).
///
/// Duplicates in `set` are tolerated and count once.
pub fn is_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    let mut member = vec![false; g.n()];
    for &v in set {
        member[v.index()] = true;
    }
    for &v in set {
        if g.neighbors(v).iter().any(|&u| member[u.index()]) {
            return false;
        }
    }
    true
}

/// Whether `set` is a *maximal* independent set of `g`: independent, and
/// every node outside `set` has a neighbor inside it.
pub fn is_maximal_independent_set(g: &Graph, set: &[NodeId]) -> bool {
    if !is_independent_set(g, set) {
        return false;
    }
    let mut member = vec![false; g.n()];
    for &v in set {
        member[v.index()] = true;
    }
    g.nodes().all(|v| member[v.index()] || g.neighbors(v).iter().any(|&u| member[u.index()]))
}

/// Greedy maximal independent set in the given node order.
///
/// Deterministic; the returned set is maximal, hence a lower bound for `α`
/// and a valid "MIS" in the paper's sense.
pub fn greedy_mis_order(g: &Graph, order: &[NodeId]) -> Vec<NodeId> {
    let mut blocked = vec![false; g.n()];
    let mut out = Vec::new();
    for &v in order {
        if !blocked[v.index()] {
            out.push(v);
            blocked[v.index()] = true;
            for &u in g.neighbors(v) {
                blocked[u.index()] = true;
            }
        }
    }
    out
}

/// Greedy maximal independent set in a uniformly random node order.
pub fn greedy_mis<R: Rng + ?Sized>(g: &Graph, rng: &mut R) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.shuffle(rng);
    greedy_mis_order(g, &order)
}

/// Greedy maximal independent set preferring low-degree nodes, a classic
/// heuristic that gets within `Δ+1` of optimal and is usually much better.
pub fn greedy_mis_min_degree(g: &Graph) -> Vec<NodeId> {
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| g.degree(v));
    greedy_mis_order(g, &order)
}

/// Upper bound on `α` via a greedy clique cover: `V` is covered by `k`
/// cliques, and an independent set meets each clique at most once, so
/// `α ≤ k`.
pub fn clique_cover_upper_bound(g: &Graph) -> usize {
    let n = g.n();
    let mut covered = vec![false; n];
    // Process nodes by descending degree so big cliques form early.
    let mut order: Vec<NodeId> = g.nodes().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));
    let mut cliques = 0usize;
    let mut in_clique = vec![false; n];
    for &seed in &order {
        if covered[seed.index()] {
            continue;
        }
        // Grow a clique from `seed` among uncovered nodes.
        let mut clique = vec![seed];
        in_clique[seed.index()] = true;
        // Candidates: uncovered neighbors of seed.
        for &u in g.neighbors(seed) {
            if covered[u.index()] {
                continue;
            }
            // `u` joins if adjacent to every current member.
            if clique.iter().all(|&c| g.has_edge(u, c)) {
                clique.push(u);
                in_clique[u.index()] = true;
            }
        }
        for &c in &clique {
            covered[c.index()] = true;
            in_clique[c.index()] = false;
        }
        cliques += 1;
    }
    cliques
}

/// Upper bound on `α` via matchings: an independent set contains at most
/// one endpoint of each edge of a matching `M`, so `α ≤ n − |M|` holds for
/// *any* matching `M`.
///
/// Uses a greedy maximal matching (at least half the size of a maximum
/// one), so the bound is valid but can be loose.
pub fn matching_upper_bound(g: &Graph) -> usize {
    let mut matched = vec![false; g.n()];
    let mut size = 0usize;
    for (u, v) in g.edges() {
        if !matched[u.index()] && !matched[v.index()] {
            matched[u.index()] = true;
            matched[v.index()] = true;
            size += 1;
        }
    }
    g.n() - size
}

/// Result of the exact maximum-independent-set search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactAlpha {
    /// The search finished; this is a maximum independent set.
    Exact(Vec<NodeId>),
    /// The work budget ran out; the best independent set found so far.
    BudgetExhausted(Vec<NodeId>),
}

impl ExactAlpha {
    /// The best independent set found (maximum iff [`ExactAlpha::Exact`]).
    pub fn set(&self) -> &[NodeId] {
        match self {
            ExactAlpha::Exact(s) | ExactAlpha::BudgetExhausted(s) => s,
        }
    }

    /// Whether the search proved optimality.
    pub fn is_exact(&self) -> bool {
        matches!(self, ExactAlpha::Exact(_))
    }
}

/// Exact maximum independent set by branch and bound.
///
/// Branches on a maximum-degree vertex of the remaining subgraph (exclude it,
/// or include it and delete its closed neighborhood), pruning with the greedy
/// clique-cover bound. `budget` caps the number of search nodes expanded;
/// when exhausted the best set found so far is returned as
/// [`ExactAlpha::BudgetExhausted`].
///
/// The remaining subgraph is an `n`-bit alive set; degrees, deletions and
/// the bound's clique growth walk the CSR adjacency lists, so a search node
/// costs `O(n/64 + Σ alive degrees)` and memory stays linear. Finishing is
/// exponential in the worst case: expect exact answers for a few hundred
/// sparse or ~100 dense nodes, and a budgeted best-so-far beyond.
pub fn maximum_independent_set(g: &Graph, budget: u64) -> ExactAlpha {
    let n = g.n();
    if n == 0 {
        return ExactAlpha::Exact(Vec::new());
    }

    struct Search<'a> {
        g: &'a Graph,
        best: Vec<u32>,
        budget: u64,
        exhausted: bool,
    }

    impl Search<'_> {
        fn neighbors(&self, v: usize) -> impl Iterator<Item = usize> + '_ {
            self.g.neighbors(NodeId::new(v)).iter().map(|u| u.index())
        }

        fn popcount(set: &[u64]) -> usize {
            set.iter().map(|w| w.count_ones() as usize).sum()
        }

        /// Greedy clique-cover bound restricted to `alive`: repeatedly seed a
        /// clique at the lowest remaining vertex and grow it by the lowest
        /// remaining common neighbour.
        fn bound(&self, alive: &[u64]) -> usize {
            let mut remaining = alive.to_vec();
            let mut cliques = 0usize;
            let mut cand: Vec<usize> = Vec::new();
            // Vertices only ever leave `remaining`, so the lowest one never
            // moves backwards: a forward word cursor finds each seed.
            let mut word = 0;
            loop {
                while word < remaining.len() && remaining[word] == 0 {
                    word += 1;
                }
                if word == remaining.len() {
                    return cliques;
                }
                let v = word * 64 + remaining[word].trailing_zeros() as usize;
                clear_bit(&mut remaining, v);
                // Sorted candidates: remaining neighbours of the seed.
                cand.clear();
                cand.extend(self.neighbors(v).filter(|&u| has_bit(&remaining, u)));
                while let Some(&u) = cand.first() {
                    // u is adjacent to all members by construction of cand;
                    // keep the candidates adjacent to u (a sorted merge,
                    // which also drops u itself).
                    clear_bit(&mut remaining, u);
                    let mut adj = self.neighbors(u).peekable();
                    cand.retain(|&c| {
                        while adj.next_if(|&a| a < c).is_some() {}
                        adj.peek() == Some(&c)
                    });
                }
                cliques += 1;
            }
        }

        fn run(&mut self, alive: &mut Vec<u64>, current: &mut Vec<u32>) {
            if self.budget == 0 {
                self.exhausted = true;
                return;
            }
            self.budget -= 1;
            let alive_count = Self::popcount(alive);
            if alive_count == 0 {
                if current.len() > self.best.len() {
                    self.best = current.clone();
                }
                return;
            }
            if current.len() + alive_count <= self.best.len() {
                return;
            }
            if current.len() + self.bound(alive) <= self.best.len() {
                return;
            }
            // Pick an alive vertex of maximum alive-degree (lowest index on
            // ties).
            let mut pick = usize::MAX;
            let mut max_deg = 0usize;
            for v in iter_bits(alive) {
                let deg = self.neighbors(v).filter(|&u| has_bit(alive, u)).count();
                if pick == usize::MAX || deg > max_deg {
                    max_deg = deg;
                    pick = v;
                }
            }
            let v = pick;
            if max_deg == 0 {
                // All alive vertices are isolated: take them all.
                let mut take = current.clone();
                take.extend(iter_bits(alive).map(|i| i as u32));
                if take.len() > self.best.len() {
                    self.best = take;
                }
                return;
            }
            // Branch 1: include v (delete N[v]).
            let saved = alive.clone();
            clear_bit(alive, v);
            for u in self.neighbors(v) {
                clear_bit(alive, u);
            }
            current.push(v as u32);
            self.run(alive, current);
            current.pop();
            alive.copy_from_slice(&saved);
            // Branch 2: exclude v.
            clear_bit(alive, v);
            self.run(alive, current);
            *alive = saved;
        }
    }

    fn has_bit(set: &[u64], i: usize) -> bool {
        set[i / 64] >> (i % 64) & 1 == 1
    }

    fn clear_bit(set: &mut [u64], i: usize) {
        set[i / 64] &= !(1u64 << (i % 64));
    }

    fn iter_bits(set: &[u64]) -> impl Iterator<Item = usize> + '_ {
        set.iter().enumerate().flat_map(|(w, &bits)| {
            let mut b = bits;
            std::iter::from_fn(move || {
                if b == 0 {
                    None
                } else {
                    let i = b.trailing_zeros() as usize;
                    b &= b - 1;
                    Some(w * 64 + i)
                }
            })
        })
    }

    let mut alive = vec![0u64; n.div_ceil(64)];
    for v in 0..n {
        alive[v / 64] |= 1u64 << (v % 64);
    }
    // Seed the incumbent with a decent greedy solution so pruning bites early.
    let seed = greedy_mis_min_degree(g);
    let mut search = Search {
        g,
        best: seed.iter().map(|v| v.index() as u32).collect(),
        budget,
        exhausted: false,
    };
    let mut current = Vec::new();
    search.run(&mut alive, &mut current);
    let set: Vec<NodeId> = search.best.iter().map(|&i| NodeId::new(i as usize)).collect();
    if search.exhausted {
        ExactAlpha::BudgetExhausted(set)
    } else {
        ExactAlpha::Exact(set)
    }
}

/// A bracket on the independence number `α(G)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AlphaBounds {
    /// Certified lower bound (size of an actual independent set found).
    pub lower: usize,
    /// Certified upper bound.
    pub upper: usize,
    /// Whether `lower == upper` was proven by exact search.
    pub exact: bool,
}

impl AlphaBounds {
    /// A representative value: the geometric mean of the bracket, matching
    /// the paper's tolerance of "any polynomial approximation" of `α`
    /// (Section 1.1).
    pub fn estimate(&self) -> f64 {
        ((self.lower as f64) * (self.upper as f64)).sqrt()
    }
}

/// Computes [`AlphaBounds`] for `g`.
///
/// Runs the exact solver with the given search `budget`; if it completes, the
/// bracket is tight. Otherwise combines the best found independent set
/// (lower) with the minimum of the clique-cover and matching upper bounds.
pub fn alpha_bounds(g: &Graph, budget: u64) -> AlphaBounds {
    if g.n() > EXACT_SEARCH_MAX_N {
        // Huge graphs go straight to the near-linear greedy/cover bracket,
        // still within the paper's "any polynomial approximation" tolerance.
        let lower = greedy_mis_min_degree(g).len();
        let upper = clique_cover_upper_bound(g).min(matching_upper_bound(g));
        return AlphaBounds { lower, upper: upper.max(lower), exact: upper <= lower };
    }
    match maximum_independent_set(g, budget) {
        ExactAlpha::Exact(set) => AlphaBounds { lower: set.len(), upper: set.len(), exact: true },
        ExactAlpha::BudgetExhausted(set) => {
            let upper = clique_cover_upper_bound(g).min(matching_upper_bound(g));
            AlphaBounds { lower: set.len(), upper: upper.max(set.len()), exact: false }
        }
    }
}

/// Above this node count [`alpha_bounds`] skips the exact solver entirely
/// and reports the greedy-vs-cover bracket computed in near-linear time.
///
/// The solver once stored a quadratic bitset adjacency, which is where this
/// cut-off came from; it now runs in linear memory, but the cut-off stays
/// where it is because moving it changes the α that reports carry.
pub const EXACT_SEARCH_MAX_N: usize = 16_384;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validity_checks() {
        let g = generators::cycle(6);
        let ind = vec![g.node(0), g.node(2)];
        assert!(is_independent_set(&g, &ind));
        // Node 4 is adjacent to neither 0 nor 2 on C6, so {0,2} is not maximal.
        assert!(!is_maximal_independent_set(&g, &ind));
        let not_ind = vec![g.node(0), g.node(1)];
        assert!(!is_independent_set(&g, &not_ind));
    }

    #[test]
    fn maximality_on_cycle5() {
        let g = generators::cycle(5);
        // {0, 2} covers 1, 3 (nbrs of 2,0... ) and 4 (adj 0). So it IS maximal.
        assert!(is_maximal_independent_set(&g, &[g.node(0), g.node(2)]));
        // {0} is independent but not maximal: 2 and 3 uncovered.
        assert!(!is_maximal_independent_set(&g, &[g.node(0)]));
    }

    #[test]
    fn greedy_is_maximal() {
        let mut rng = StdRng::seed_from_u64(42);
        for g in [
            generators::path(20),
            generators::cycle(21),
            generators::grid2d(5, 6),
            generators::complete(8),
            generators::star(15),
            generators::random::gnp(40, 0.15, &mut StdRng::seed_from_u64(1)),
        ] {
            let mis = greedy_mis(&g, &mut rng);
            assert!(is_maximal_independent_set(&g, &mis), "{g:?}");
            let mis2 = greedy_mis_min_degree(&g);
            assert!(is_maximal_independent_set(&g, &mis2), "{g:?}");
        }
    }

    #[test]
    fn exact_alpha_known_families() {
        // α(P_n) = ceil(n/2), α(C_n) = floor(n/2), α(K_n) = 1,
        // α(star_n) = n-1 (leaves), α(grid w×h) = ceil(wh/2).
        let cases: Vec<(Graph, usize)> = vec![
            (generators::path(7), 4),
            (generators::path(8), 4),
            (generators::cycle(7), 3),
            (generators::cycle(8), 4),
            (generators::complete(6), 1),
            (generators::star(9), 8),
            (generators::grid2d(3, 4), 6),
            (generators::hypercube(3), 4),
        ];
        for (g, want) in cases {
            let res = maximum_independent_set(&g, 10_000_000);
            assert!(res.is_exact(), "{g:?}");
            assert_eq!(res.set().len(), want, "{g:?}");
            assert!(is_independent_set(&g, res.set()));
        }
    }

    #[test]
    fn upper_bounds_valid() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10 {
            let g = generators::random::gnp(30, 0.2, &mut rng);
            let exact = maximum_independent_set(&g, 10_000_000);
            assert!(exact.is_exact());
            let alpha = exact.set().len();
            assert!(clique_cover_upper_bound(&g) >= alpha);
            assert!(matching_upper_bound(&g) >= alpha);
        }
    }

    #[test]
    fn alpha_bounds_bracket() {
        let g = generators::grid2d(4, 5);
        let b = alpha_bounds(&g, 10_000_000);
        assert!(b.exact);
        assert_eq!(b.lower, 10);
        assert_eq!(b.upper, 10);
        assert!((b.estimate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn huge_graphs_skip_the_exact_solver() {
        // Path of 20k nodes: well past EXACT_SEARCH_MAX_N; the greedy/cover
        // bracket must come back quickly and bracket α = ⌈n/2⌉.
        let g = generators::path(20_000);
        let b = alpha_bounds(&g, u64::MAX);
        assert!(b.lower <= 10_000 && 10_000 <= b.upper, "{b:?}");
        assert!(b.lower as f64 >= 0.4 * 20_000.0, "greedy far below α/2: {b:?}");
    }

    #[test]
    fn budget_exhaustion_still_valid() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::random::gnp(60, 0.1, &mut rng);
        let b = alpha_bounds(&g, 5); // absurdly small budget
        assert!(b.lower >= 1);
        assert!(b.upper >= b.lower);
        match maximum_independent_set(&g, 5) {
            ExactAlpha::BudgetExhausted(s) => assert!(is_independent_set(&g, &s)),
            ExactAlpha::Exact(_) => panic!("budget 5 cannot finish n=60"),
        }
    }

    #[test]
    fn empty_graph_alpha_zero() {
        let g = Graph::from_edges(0, []).unwrap();
        let res = maximum_independent_set(&g, 10);
        assert!(res.is_exact());
        assert!(res.set().is_empty());
    }

    #[test]
    fn edgeless_graph_alpha_n() {
        let g = Graph::from_edges(12, []).unwrap();
        let res = maximum_independent_set(&g, 1_000);
        assert!(res.is_exact());
        assert_eq!(res.set().len(), 12);
    }
}
