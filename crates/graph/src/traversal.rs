//! Breadth-first traversal, connectivity and diameter computation.
//!
//! The paper's running times are parametrized by the diameter `D`; the
//! experiment harness needs exact diameters for moderate graphs
//! ([`diameter_exact`]) and a fast exact-on-most-inputs algorithm (iFUB,
//! [`diameter_ifub`]) for larger ones.

use crate::{Graph, NodeId};
use std::collections::VecDeque;

/// Distance marker for unreachable nodes in [`bfs_distances`].
pub const UNREACHABLE: u32 = u32::MAX;

/// BFS distances from `src` to every node; [`UNREACHABLE`] where no path.
pub fn bfs_distances(g: &Graph, src: NodeId) -> Vec<u32> {
    bfs_distances_multi(g, std::slice::from_ref(&src))
}

/// BFS distances from the nearest of `sources`; [`UNREACHABLE`] where none.
///
/// With an empty source set, every node is unreachable.
///
/// Iterates the raw CSR arrays ([`Graph::csr`]) so million-node sweeps pay
/// no per-node slice re-derivation.
pub fn bfs_distances_multi(g: &Graph, sources: &[NodeId]) -> Vec<u32> {
    let (offsets, targets) = g.csr();
    let mut dist = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if dist[s.index()] == UNREACHABLE {
            dist[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let ui = u.index();
        let du = dist[ui];
        for &w in &targets[offsets[ui] as usize..offsets[ui + 1] as usize] {
            if dist[w.index()] == UNREACHABLE {
                dist[w.index()] = du + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// A BFS tree rooted at `sources`: for each node, its parent and depth.
#[derive(Clone, Debug)]
pub struct BfsTree {
    /// Parent of each node; `None` for roots and unreachable nodes.
    pub parent: Vec<Option<NodeId>>,
    /// Depth (hop distance) of each node; [`UNREACHABLE`] if unreachable.
    pub depth: Vec<u32>,
}

impl BfsTree {
    /// Maximum finite depth in the tree; 0 if no node is reachable.
    pub fn height(&self) -> u32 {
        self.depth.iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
    }
}

/// Builds a BFS tree from (multi-)sources.
pub fn bfs_tree(g: &Graph, sources: &[NodeId]) -> BfsTree {
    let mut parent = vec![None; g.n()];
    let mut depth = vec![UNREACHABLE; g.n()];
    let mut queue = VecDeque::new();
    for &s in sources {
        if depth[s.index()] == UNREACHABLE {
            depth[s.index()] = 0;
            queue.push_back(s);
        }
    }
    while let Some(u) = queue.pop_front() {
        let du = depth[u.index()];
        for &w in g.neighbors(u) {
            if depth[w.index()] == UNREACHABLE {
                depth[w.index()] = du + 1;
                parent[w.index()] = Some(u);
                queue.push_back(w);
            }
        }
    }
    BfsTree { parent, depth }
}

/// Connected components: `(labels, count)` with labels in `0..count`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let mut label = vec![usize::MAX; g.n()];
    let mut count = 0;
    let mut queue = VecDeque::new();
    for s in g.nodes() {
        if label[s.index()] != usize::MAX {
            continue;
        }
        label[s.index()] = count;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if label[w.index()] == usize::MAX {
                    label[w.index()] = count;
                    queue.push_back(w);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Whether the graph is connected. The empty graph counts as connected.
pub fn is_connected(g: &Graph) -> bool {
    g.n() <= 1 || connected_components(g).1 == 1
}

/// Eccentricity of `v`: the maximum BFS distance to any reachable node.
pub fn eccentricity(g: &Graph, v: NodeId) -> u32 {
    bfs_distances(g, v).into_iter().filter(|&d| d != UNREACHABLE).max().unwrap_or(0)
}

/// Exact diameter by all-pairs BFS. `O(n (n + m))` worst case.
///
/// Disconnected graphs report the largest eccentricity within any component.
/// Runs 64 BFS at once per pass of the bit-parallel eccentricity kernel, so
/// tens of thousands of sparse nodes take well under a second; for large
/// connected graphs [`diameter_ifub`] usually needs far fewer sources.
pub fn diameter_exact(g: &Graph) -> u32 {
    let nodes: Vec<NodeId> = g.nodes().collect();
    let mut ecc = Eccentricities::new(g);
    nodes.chunks(64).map(|batch| ecc.max_of(batch)).max().unwrap_or(0)
}

/// Exact diameter via the iFUB algorithm (Crescenzi et al.), which is
/// `O(n (n + m))` in the worst case but typically runs a handful of BFS.
///
/// # Panics
///
/// Panics if the graph is disconnected (iFUB's bounds argument needs a single
/// component); check [`is_connected`] first.
pub fn diameter_ifub(g: &Graph) -> u32 {
    assert!(is_connected(g), "diameter_ifub requires a connected graph");
    ifub(g)
}

/// iFUB on a graph already known to be connected.
fn ifub(g: &Graph) -> u32 {
    if g.n() <= 1 {
        return 0;
    }
    // Double sweep from a max-degree node to find a far vertex pair, then run
    // iFUB from the midpoint of the found path.
    let start = g.nodes().max_by_key(|&v| g.degree(v)).expect("nonempty graph");
    let d1 = bfs_distances(g, start);
    let a = argmax_finite(&d1);
    let da = bfs_distances(g, a);
    let b = argmax_finite(&da);
    let lower0 = da[b.index()];
    // Midpoint of the a..b path: walk a BFS tree from a towards b.
    let tree = bfs_tree(g, &[a]);
    let mut mid = b;
    for _ in 0..(lower0 / 2) {
        if let Some(p) = tree.parent[mid.index()] {
            mid = p;
        }
    }
    let dmid = bfs_distances(g, mid);
    let height = dmid.iter().copied().max().expect("connected");
    // Order nodes by decreasing distance from mid (fringe-first).
    let mut by_level: Vec<Vec<NodeId>> = vec![Vec::new(); height as usize + 1];
    for v in g.nodes() {
        by_level[dmid[v.index()] as usize].push(v);
    }
    let mut ecc = Eccentricities::new(g);
    let mut lower = lower0;
    let mut upper = 2 * height;
    let mut level = height as i64;
    while lower < upper && level >= 0 {
        // Every eccentricity on this fringe level, 64 sources per pass. Two
        // nodes both below this level are at most 2·(level − 1) apart and
        // every farther pair has a processed endpoint, so once `lower`
        // reaches that bound it is the diameter.
        for batch in by_level[level as usize].chunks(64) {
            lower = lower.max(ecc.max_of(batch));
        }
        level -= 1;
        upper = 2 * (level.max(0) as u32);
        if lower >= upper {
            break;
        }
    }
    lower
}

/// Bit-parallel eccentricity kernel: one BFS pass serves up to 64 sources,
/// bit `k` of a node's word meaning "reached from source `k`". Each level
/// expands only the *active* nodes (non-zero frontier word), so a pass
/// costs the edges the 64 frontiers actually cross, not 64 full BFS.
struct Eccentricities<'g> {
    g: &'g Graph,
    seen: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
    active: Vec<u32>,
    next_active: Vec<u32>,
}

impl<'g> Eccentricities<'g> {
    fn new(g: &'g Graph) -> Self {
        let n = g.n();
        Eccentricities {
            g,
            seen: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
            active: Vec::new(),
            next_active: Vec::new(),
        }
    }

    /// The largest eccentricity among `sources` (distinct, at most 64),
    /// each measured within its own component; 0 for no sources.
    fn max_of(&mut self, sources: &[NodeId]) -> u32 {
        assert!(sources.len() <= 64, "the kernel runs at most 64 sources per pass");
        let g = self.g;
        let (offsets, targets) = g.csr();
        self.seen.fill(0);
        self.active.clear();
        for (k, s) in sources.iter().enumerate() {
            let bit = 1u64 << k;
            self.seen[s.index()] |= bit;
            self.frontier[s.index()] |= bit;
            self.active.push(s.index() as u32);
        }
        let mut level = 0;
        loop {
            for &u in &self.active {
                let u = u as usize;
                let f = std::mem::take(&mut self.frontier[u]);
                for &w in &targets[offsets[u] as usize..offsets[u + 1] as usize] {
                    let w = w.index();
                    let new = f & !self.seen[w];
                    if new != 0 {
                        if self.next[w] == 0 {
                            self.next_active.push(w as u32);
                        }
                        self.next[w] |= new;
                        self.seen[w] |= new;
                    }
                }
            }
            if self.next_active.is_empty() {
                return level;
            }
            level += 1;
            std::mem::swap(&mut self.frontier, &mut self.next);
            std::mem::swap(&mut self.active, &mut self.next_active);
            self.next_active.clear();
        }
    }
}

/// Diameter with automatic strategy: exact all-pairs for small graphs,
/// iFUB for larger connected ones.
pub fn diameter(g: &Graph) -> u32 {
    if g.n() <= 1024 || !is_connected(g) {
        diameter_exact(g)
    } else {
        ifub(g)
    }
}

/// Double-sweep BFS diameter estimate in exactly three BFS passes: sweep
/// from a max-degree node to a far vertex `a`, from `a` to the farthest
/// vertex `b`, then once more from `b`, reporting the largest eccentricity
/// seen.
///
/// The estimate is a *lower* bound on the true diameter `D`, and because
/// every eccentricity is at least `D/2` it is always within a factor 2 —
/// the "linear estimate" tolerance the paper's ad-hoc model grants the
/// simulator's `NetInfo` consumers. On trees it is exact, and on
/// the path/cycle/grid/geometric families used here it is exact in
/// practice; what it buys is `O(n + m)` setup on million-node graphs where
/// all-pairs BFS is `O(n·m)` and even iFUB may degenerate.
///
/// Disconnected graphs report the bound within the start node's component
/// (matching the largest-eccentricity-seen convention of the exact
/// routines only when the start component realizes it).
pub fn diameter_double_sweep(g: &Graph) -> u32 {
    if g.n() <= 1 {
        return 0;
    }
    let start = g.nodes().max_by_key(|&v| g.degree(v)).expect("nonempty graph");
    let d0 = bfs_distances(g, start);
    let a = argmax_finite(&d0);
    let da = bfs_distances(g, a);
    let b = argmax_finite(&da);
    let ecc_a = da[b.index()];
    let db = bfs_distances(g, b);
    let ecc_b = db.iter().copied().filter(|&d| d != UNREACHABLE).max().unwrap_or(0);
    ecc_a.max(ecc_b)
}

/// Nodes within hop distance `d` of `v` (including `v`).
pub fn ball(g: &Graph, v: NodeId, d: u32) -> Vec<NodeId> {
    let dist = bfs_distances(g, v);
    g.nodes().filter(|u| dist[u.index()] <= d).collect()
}

fn argmax_finite(dist: &[u32]) -> NodeId {
    let mut best = 0usize;
    let mut best_d = 0u32;
    for (i, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && d >= best_d {
            best = i;
            best_d = d;
        }
    }
    NodeId::new(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_on_path() {
        let g = generators::path(5);
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn multi_source_bfs() {
        let g = generators::path(5);
        let d = bfs_distances_multi(&g, &[g.node(0), g.node(4)]);
        assert_eq!(d, vec![0, 1, 2, 1, 0]);
    }

    #[test]
    fn empty_sources_all_unreachable() {
        let g = generators::path(3);
        let d = bfs_distances_multi(&g, &[]);
        assert!(d.iter().all(|&x| x == UNREACHABLE));
    }

    #[test]
    fn unreachable_marked() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let d = bfs_distances(&g, g.node(0));
        assert_eq!(d[1], 1);
        assert_eq!(d[2], UNREACHABLE);
    }

    #[test]
    fn components_counted() {
        let g = Graph::from_edges(5, [(0, 1), (2, 3)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[4], labels[0]);
        assert!(!is_connected(&g));
    }

    #[test]
    fn diameters_agree_on_families() {
        for g in [
            generators::path(17),
            generators::cycle(12),
            generators::grid2d(5, 7),
            generators::complete(9),
            generators::star(10),
            generators::hypercube(4),
        ] {
            assert_eq!(diameter_exact(&g), diameter_ifub(&g), "family {g:?}");
        }
    }

    #[test]
    fn double_sweep_exact_on_common_families() {
        for g in [
            generators::path(33),
            generators::cycle(16),
            generators::grid2d(6, 9),
            generators::complete(7),
            generators::star(12),
            generators::binary_tree(5),
        ] {
            assert_eq!(diameter_double_sweep(&g), diameter_exact(&g), "family {g:?}");
        }
    }

    #[test]
    fn double_sweep_within_factor_two() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for n in [40usize, 90] {
            let g = generators::connected_gnp(n, 0.08, &mut rng);
            let exact = diameter_exact(&g);
            let est = diameter_double_sweep(&g);
            assert!(est <= exact, "estimate must be a lower bound");
            assert!(2 * est >= exact, "estimate {est} below half of exact {exact}");
        }
    }

    #[test]
    fn double_sweep_degenerate_graphs() {
        assert_eq!(diameter_double_sweep(&Graph::from_edges(1, []).unwrap()), 0);
        assert_eq!(diameter_double_sweep(&Graph::from_edges(0, []).unwrap()), 0);
    }

    #[test]
    fn diameter_known_values() {
        assert_eq!(diameter_exact(&generators::path(10)), 9);
        assert_eq!(diameter_exact(&generators::cycle(10)), 5);
        assert_eq!(diameter_exact(&generators::complete(10)), 1);
        assert_eq!(diameter_exact(&generators::star(10)), 2);
        assert_eq!(diameter_exact(&generators::grid2d(4, 6)), 8);
        assert_eq!(diameter_exact(&generators::hypercube(5)), 5);
    }

    #[test]
    fn bfs_tree_parents_consistent() {
        let g = generators::grid2d(4, 4);
        let t = bfs_tree(&g, &[g.node(0)]);
        for v in g.nodes() {
            if let Some(p) = t.parent[v.index()] {
                assert_eq!(t.depth[v.index()], t.depth[p.index()] + 1);
                assert!(g.has_edge(v, p));
            }
        }
        assert_eq!(t.height(), 6);
    }

    #[test]
    fn ball_sizes() {
        let g = generators::path(9);
        assert_eq!(ball(&g, g.node(4), 2).len(), 5);
        assert_eq!(ball(&g, g.node(0), 0), vec![g.node(0)]);
    }

    #[test]
    fn eccentricity_of_center() {
        let g = generators::path(9);
        assert_eq!(eccentricity(&g, g.node(4)), 4);
        assert_eq!(eccentricity(&g, g.node(0)), 8);
    }

    #[test]
    fn single_node_diameter_zero() {
        let g = Graph::from_edges(1, []).unwrap();
        assert_eq!(diameter(&g), 0);
        assert_eq!(diameter_ifub(&g), 0);
        assert!(is_connected(&g));
    }
}
