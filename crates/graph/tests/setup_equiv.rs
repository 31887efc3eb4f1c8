//! The grid-built geometric generators and the bit-parallel diameter
//! kernel against their all-pairs references.
//!
//! Each geometric generator must return exactly the graph an all-pairs
//! distance loop over the same points returns (and, for the quasi unit disk
//! graph, consume the RNG identically). `diameter_exact` and iFUB must
//! agree with one plain BFS per node.

use radionet_graph::families::Family;
use radionet_graph::generators::{self, geometric};
use radionet_graph::geometry::{Euclidean2, Euclidean3, Metric, Point2};
use radionet_graph::traversal::{
    diameter, diameter_exact, diameter_ifub, eccentricity, is_connected,
};
use radionet_graph::{Graph, GraphBuilder};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Random point sets over a range of sides, including integer `side / r`.
fn random_sets() -> Vec<Vec<Point2>> {
    let mut rng = StdRng::seed_from_u64(0x9e0);
    let mut sets = Vec::new();
    for (n, side) in [(2, 1.0), (40, 3.0), (150, 5.0), (300, 7.3), (400, 12.0), (60, 0.9)] {
        sets.push(geometric::uniform_points2(n, side, &mut rng));
    }
    sets
}

/// Point sets built to stress the cell index: pairs at distance exactly 1
/// straddling cell boundaries, a domain whose side is an integer multiple
/// of the radius, a single point, everything inside one cell, far-apart
/// clusters and non-finite coordinates.
fn adversarial_sets() -> Vec<Vec<Point2>> {
    let mut sets = Vec::new();
    // Integer lattice: every horizontal and vertical neighbour pair sits at
    // distance exactly 1, and the span (6) is an integer multiple of r.
    sets.push((0..7).flat_map(|x| (0..7).map(move |y| Point2::new(x as f64, y as f64))).collect());
    // The same lattice shifted off the origin by a non-representable
    // fraction, so cell edges fall between exact-distance pairs.
    sets.push(
        (0..6)
            .flat_map(|x| (0..6).map(move |y| Point2::new(0.1 + x as f64, -3.7 + y as f64)))
            .collect(),
    );
    // A chain at spacing exactly 1 along a diagonal-free line, plus 3-4-5
    // triangles whose hypotenuse rounds to (or next to) 1.
    let mut chain: Vec<Point2> = (0..20).map(|k| Point2::new(0.5 * k as f64, 0.25)).collect();
    for k in 0..5 {
        let base = Point2::new(k as f64 * 1.7, 3.0);
        chain.push(base);
        chain.push(Point2::new(base.x + 0.6, base.y + 0.8));
        chain.push(Point2::new(base.x + 0.8, base.y - 0.6));
    }
    sets.push(chain);
    // Points at 0.1-multiples: float sums that land a hair on either side
    // of 1.0.
    sets.push((0..40).map(|k| Point2::new(0.1 * k as f64, 0.1 * (k % 3) as f64)).collect());
    // A single point, and no points at all.
    sets.push(vec![Point2::new(2.5, 2.5)]);
    sets.push(Vec::new());
    // All points in one cell: the graph is complete.
    let mut rng = StdRng::seed_from_u64(5);
    sets.push(geometric::uniform_points2(30, 0.5, &mut rng));
    // Coincident points.
    sets.push(vec![Point2::new(1.0, 1.0); 4]);
    // Two far-apart clusters: a sparse bounding box must not blow up the grid.
    let mut far = geometric::uniform_points2(20, 2.0, &mut rng);
    far.extend(
        geometric::uniform_points2(20, 2.0, &mut rng)
            .into_iter()
            .map(|p| Point2::new(p.x + 1.0e9, p.y - 1.0e9)),
    );
    sets.push(far);
    // Non-finite coordinates: such points never pass the distance test,
    // and must not break the grid's sizing.
    sets.push(vec![
        Point2::new(0.0, 0.0),
        Point2::new(f64::NAN, 0.5),
        Point2::new(0.5, 0.0),
        Point2::new(f64::INFINITY, 1.0),
        Point2::new(f64::NEG_INFINITY, f64::INFINITY),
        Point2::new(1.2, 0.3),
    ]);
    sets
}

fn all_sets() -> Vec<Vec<Point2>> {
    let mut sets = random_sets();
    sets.extend(adversarial_sets());
    sets
}

#[test]
fn unit_disk_matches_all_pairs() {
    for pts in all_sets() {
        let grid = geometric::unit_disk(&pts);
        let oracle = geometric::unit_ball(&pts, &Euclidean2, 1.0);
        assert_eq!(grid.graph, oracle.graph, "{} points", pts.len());
    }
}

#[test]
fn unit_disk_one_cell_is_complete() {
    let mut rng = StdRng::seed_from_u64(6);
    let pts = geometric::uniform_points2(25, 0.6, &mut rng);
    assert_eq!(geometric::unit_disk(&pts).graph, generators::complete(25));
}

#[test]
fn unit_disk_lattice_has_exact_distance_edges() {
    // 7×7 integer lattice: exactly the 2·7·6 axis-neighbour pairs.
    let pts: Vec<Point2> =
        (0..7).flat_map(|x| (0..7).map(move |y| Point2::new(x as f64, y as f64))).collect();
    assert_eq!(geometric::unit_disk(&pts).graph.m(), 84);
}

#[test]
fn unit_ball3_matches_all_pairs() {
    for (n, side, seed) in [(1, 1.0, 1), (2, 1.0, 2), (80, 3.0, 3), (300, 4.0, 4), (200, 6.5, 5)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = geometric::unit_ball3_in_cube(n, side, &mut rng);
        let oracle = geometric::unit_ball(&inst.points, &Euclidean3, 1.0);
        assert_eq!(inst.graph, oracle.graph, "n {n} side {side}");
        // Same points as the generator's own draw.
        let mut rng = StdRng::seed_from_u64(seed);
        assert_eq!(inst.points, geometric::uniform_points3(n, side, &mut rng));
    }
}

/// The quasi unit disk generator before it went through the grid: every
/// pair in `(i, j)` order, one coin per gray-zone pair.
fn quasi_all_pairs(points: &[Point2], r: f64, big_r: f64, gray_p: f64, rng: &mut StdRng) -> Graph {
    let n = points.len();
    let mut b = GraphBuilder::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            let d = Euclidean2.dist(&points[i], &points[j]);
            if d <= r || (d <= big_r && rng.gen::<f64>() < gray_p) {
                b.add_edge(i, j);
            }
        }
    }
    b.build()
}

#[test]
fn quasi_unit_disk_matches_all_pairs_and_coin_order() {
    for (k, pts) in all_sets().into_iter().enumerate() {
        for gray_p in [0.0, 0.5, 1.0] {
            for (r, big_r) in [(0.5, 1.0), (1.0, 1.0), (0.7, 1.3)] {
                let mut rng_grid = StdRng::seed_from_u64(k as u64);
                let mut rng_ref = StdRng::seed_from_u64(k as u64);
                let grid = geometric::quasi_unit_disk(&pts, r, big_r, gray_p, &mut rng_grid);
                let oracle = quasi_all_pairs(&pts, r, big_r, gray_p, &mut rng_ref);
                assert_eq!(grid.graph, oracle, "set {k} p {gray_p} r {r} R {big_r}");
                // Same number of coins drawn, in the same order.
                assert_eq!(rng_grid.next_u64(), rng_ref.next_u64(), "set {k}: RNG diverged");
            }
        }
    }
}

#[test]
fn quasi_unit_disk_in_square_matches_all_pairs() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let grid = geometric::quasi_unit_disk_in_square(250, 6.0, 0.5, 1.0, 0.5, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = geometric::uniform_points2(250, 6.0, &mut rng);
        assert_eq!(grid.graph, quasi_all_pairs(&pts, 0.5, 1.0, 0.5, &mut rng));
    }
}

#[test]
fn geometric_radio_matches_all_pairs() {
    let mut rng = StdRng::seed_from_u64(77);
    for pts in all_sets() {
        let n = pts.len();
        let mut range_sets =
            vec![geometric::uniform_ranges(n, 0.5, 1.5, &mut rng), vec![1.0; n], vec![0.0; n]];
        // One node with a huge range: the grid degenerates to one cell.
        let mut wide = geometric::uniform_ranges(n, 0.5, 1.0, &mut rng);
        if let Some(r) = wide.first_mut() {
            *r = 1.0e12;
        }
        range_sets.push(wide);
        for ranges in range_sets {
            let grid = geometric::geometric_radio_undirected(&pts, &ranges);
            let mut b = GraphBuilder::new(n);
            for i in 0..n {
                for j in (i + 1)..n {
                    if Euclidean2.dist(&pts[i], &pts[j]) <= ranges[i].min(ranges[j]) {
                        b.add_edge(i, j);
                    }
                }
            }
            assert_eq!(grid.graph, b.build(), "{n} points");
        }
    }
}

/// The diameter by one plain BFS per node: the largest eccentricity within
/// any component.
fn reference_diameter(g: &Graph) -> u32 {
    g.nodes().map(|v| eccentricity(g, v)).max().unwrap_or(0)
}

fn check(g: &Graph, label: &str) {
    let want = reference_diameter(g);
    assert_eq!(diameter_exact(g), want, "{label}: diameter_exact");
    assert_eq!(diameter(g), want, "{label}: diameter");
    if is_connected(g) {
        assert_eq!(diameter_ifub(g), want, "{label}: diameter_ifub");
    }
}

#[test]
fn eccentricity_kernel_matches_bfs_on_families() {
    for fam in Family::ALL {
        for n in [16usize, 100, 300] {
            let g = fam.instantiate(n, 3);
            check(&g, &format!("{fam:?}/{n}"));
        }
    }
    for (g, label) in [
        (generators::path(200), "path/200"),
        (generators::cycle(131), "cycle/131"),
        (generators::grid2d(13, 17), "grid/13x17"),
        (generators::hypercube(8), "hypercube/8"),
        (generators::barbell(20, 30), "barbell"),
        (generators::lollipop(40, 50), "lollipop"),
        (generators::spider(9, 12), "spider"),
    ] {
        check(&g, label);
    }
}

#[test]
fn eccentricity_kernel_on_tiny_graphs() {
    for n in 0..=2 {
        check(&Graph::from_edges(n, []).unwrap(), &format!("edgeless/{n}"));
    }
    check(&generators::path(2), "edge");
}

#[test]
fn eccentricity_kernel_on_disconnected_graphs() {
    // Path 0..40 plus a separate 9-cycle plus isolated nodes: the largest
    // within-component eccentricity is the path's 39.
    let mut b = GraphBuilder::new(60);
    for i in 0..39 {
        b.add_edge(i, i + 1);
    }
    for i in 0..9 {
        b.add_edge(40 + i, 40 + (i + 1) % 9);
    }
    let g = b.build();
    assert_eq!(diameter_exact(&g), 39);
    check(&g, "path+cycle+isolated");
    let mut rng = StdRng::seed_from_u64(8);
    for n in [50usize, 130, 200] {
        let g = generators::random::gnp(n, 1.2 / n as f64, &mut rng);
        assert!(!is_connected(&g));
        check(&g, &format!("sparse gnp/{n}"));
    }
}

#[test]
fn eccentricity_kernel_at_batch_boundaries() {
    let mut rng = StdRng::seed_from_u64(21);
    for n in [63usize, 64, 65, 127, 128, 129] {
        check(&generators::path(n), &format!("path/{n}"));
        check(&generators::cycle(n), &format!("cycle/{n}"));
        check(&generators::random_tree(n, &mut rng), &format!("tree/{n}"));
        check(&generators::connected_gnp(n, 3.0 / n as f64, &mut rng), &format!("gnp/{n}"));
    }
}

#[test]
fn ifub_worst_case_hypercube_14() {
    // Every eccentricity of Q_14 equals its diameter, so iFUB cannot stop
    // early and must sweep half the fringe levels.
    let g = generators::hypercube(14);
    assert_eq!(g.n(), 16_384);
    assert_eq!(diameter_ifub(&g), 14);
    assert_eq!(diameter(&g), 14);
}
