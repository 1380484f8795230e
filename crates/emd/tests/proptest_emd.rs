//! Property-based tests for the EMD solver.
//!
//! Two independent oracles: on 1-D equal-mass inputs the transportation
//! simplex must agree with the closed-form CDF solver, and on integer
//! masses — balanced or not, degenerate or not, in any dimension — with
//! a min-cost-flow solver written separately below. A third check pins
//! the kept basis tree to a copy of the solver that rebuilt its tree on
//! every pivot, and the least-cost start's row minima to a direct scan
//! of every live cell: same pivots, same bits. Plus metric properties
//! (non-negativity, symmetry, identity, triangle inequality) on random
//! 2-D signatures.

use emd::{
    emd_1d, emd_with, solve_transportation_with, EmdError, Euclidean, GroundDistance, Signature,
    TransportPlan, TransportScratch,
};
use proptest::prelude::*;

/// `emd_with` on a fresh scratch.
fn emd_fresh(a: &Signature, b: &Signature) -> Result<f64, EmdError> {
    emd_with(a, b, &Euclidean, &mut TransportScratch::new())
}

/// `solve_transportation_with` on a fresh scratch.
fn solve_fresh(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
) -> Result<TransportPlan, EmdError> {
    solve_transportation_with(costs, supplies, demands, &mut TransportScratch::new())
}

/// Strategy: a 1-D weighted point set with strictly positive weights.
fn weighted_points_1d(max_len: usize) -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec(((-50.0..50.0f64), (0.01..10.0f64)), 1..=max_len)
}

/// Strategy: a small 2-D signature.
fn signature_2d(max_len: usize) -> impl Strategy<Value = Signature> {
    prop::collection::vec(
        ((-20.0..20.0f64), (-20.0..20.0f64), (0.01..5.0f64)),
        1..=max_len,
    )
    .prop_map(|triples| {
        let points: Vec<Vec<f64>> = triples.iter().map(|&(x, y, _)| vec![x, y]).collect();
        let weights: Vec<f64> = triples.iter().map(|&(_, _, w)| w).collect();
        Signature::new(points, weights).expect("strategy produces valid signatures")
    })
}

/// `s` with its weights divided by their total (positive for every
/// strategy signature).
fn normalized(s: &Signature) -> Signature {
    let total = s.total_weight();
    let weights = s.weights().iter().map(|w| w / total).collect();
    Signature::new(s.points().to_vec(), weights).expect("a valid signature stays valid")
}

/// Strategy: a random, frequently unbalanced and degenerate
/// transportation problem `(costs, supplies, demands)` of up to 24 × 24.
/// Marginals are drawn from a tiny integer grid scaled by 0.5, so zero
/// entries (filtered rows/columns), exactly equal supplies/demands, and
/// tie-heavy costs — the degenerate-pivot cases — all occur with high
/// probability. About 30% of the balanced tableaus reach the 128 cells
/// from which the solver starts from the least-cost rule instead of the
/// northwest corner.
fn transport_problem() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    ((1usize..=24), (1usize..=24)).prop_flat_map(|(m, n)| {
        (
            prop::collection::vec((0u8..4).prop_map(|c| c as f64), m * n),
            prop::collection::vec((0u8..4).prop_map(|s| s as f64 * 0.5), m),
            prop::collection::vec((0u8..4).prop_map(|d| d as f64 * 0.5), n),
        )
    })
}

/// Strategy: 2-D points with integer weights in `0..4` (zeros
/// included), as `(points, counts)`.
fn counted_points_2d(max_len: usize) -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<u64>)> {
    prop::collection::vec(((-20.0..20.0f64), (-20.0..20.0f64), (0u64..4)), 1..=max_len)
        .prop_map(|triples| triples.iter().map(|&(x, y, w)| (vec![x, y], w)).unzip())
}

/// Test-only oracle for Eqs. (7)–(11) on integer masses: a minimum-cost
/// flow found by successive shortest paths, with Bellman–Ford on the
/// residual graph. It shares nothing with the transportation simplex —
/// no basis, no potentials, no slack node — and returns the total cost
/// and total flow of a cheapest flow of maximum value, which is the
/// EMD's flow `min(Σ supplies, Σ demands)`.
mod min_cost_flow {
    /// A residual arc; arc `e ^ 1` is its reverse.
    struct Arc {
        from: usize,
        to: usize,
        cap: u64,
        cost: f64,
    }

    fn add(arcs: &mut Vec<Arc>, from: usize, to: usize, cap: u64, cost: f64) {
        arcs.push(Arc {
            from,
            to,
            cap,
            cost,
        });
        arcs.push(Arc {
            from: to,
            to: from,
            cap: 0,
            cost: -cost,
        });
    }

    /// `(total cost, total flow)` for a row-major `supplies × demands`
    /// cost matrix.
    pub fn solve(costs: &[f64], supplies: &[u64], demands: &[u64]) -> (f64, u64) {
        let (m, n) = (supplies.len(), demands.len());
        assert_eq!(costs.len(), m * n);
        // Nodes: source 0, supplies 1..=m, demands m+1..=m+n, sink m+n+1.
        let (source, sink, nodes) = (0, m + n + 1, m + n + 2);
        let mut arcs = Vec::new();
        for (i, &s) in supplies.iter().enumerate() {
            add(&mut arcs, source, 1 + i, s, 0.0);
        }
        let unbounded = supplies.iter().sum::<u64>();
        let mut transport = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                transport.push(arcs.len());
                add(&mut arcs, 1 + i, 1 + m + j, unbounded, costs[i * n + j]);
            }
        }
        for (j, &d) in demands.iter().enumerate() {
            add(&mut arcs, 1 + m + j, sink, d, 0.0);
        }
        // Relax only on a real improvement, so that rounding in
        // tied path sums cannot form a cycle of predecessors.
        let tol = 1e-12 * (1.0 + costs.iter().fold(0.0f64, |acc, c| acc.max(c.abs())));
        let mut flow = 0;
        loop {
            let mut dist = vec![f64::INFINITY; nodes];
            let mut via = vec![usize::MAX; nodes];
            dist[source] = 0.0;
            for _ in 1..nodes {
                let mut relaxed = false;
                for (e, arc) in arcs.iter().enumerate() {
                    let through = dist[arc.from] + arc.cost;
                    if arc.cap > 0 && through < dist[arc.to] - tol {
                        dist[arc.to] = through;
                        via[arc.to] = e;
                        relaxed = true;
                    }
                }
                if !relaxed {
                    break;
                }
            }
            if dist[sink].is_infinite() {
                break;
            }
            let mut path = Vec::new();
            let mut v = sink;
            while v != source {
                assert!(path.len() < nodes, "predecessor cycle");
                path.push(via[v]);
                v = arcs[via[v]].from;
            }
            let push = path
                .iter()
                .map(|&e| arcs[e].cap)
                .min()
                .expect("non-empty path");
            for &e in &path {
                arcs[e].cap -= push;
                arcs[e ^ 1].cap += push;
            }
            flow += push;
        }
        // The flow on each supply→demand arc is its reverse's capacity.
        let cost = transport
            .iter()
            .map(|&e| arcs[e ^ 1].cap as f64 * arcs[e].cost)
            .sum();
        (cost, flow)
    }
}

/// Strategy: a transportation problem of up to 40 × 40, the size of a
/// k = 32 signature pair's tableau with room to spare. Costs are small
/// integers or square roots of small integers (the ties of Euclidean
/// distances on a grid), shifted down by 2 in half the problems, so
/// negative, zero and positive costs tie among themselves and sit below
/// the slack line's zero-cost cells. Marginals are small multiples of
/// 0.5 or of 1/7 with zeros included, so filtered rows and columns,
/// unbalanced totals, exact ties and rounded masses all occur.
fn large_transport_problem() -> impl Strategy<Value = (Vec<f64>, Vec<f64>, Vec<f64>)> {
    ((1usize..=40), (1usize..=40), (0u8..2), (0u8..2), (0u8..2)).prop_flat_map(
        |(m, n, roots, sevenths, shift)| {
            let cost = (0u8..20).prop_map(move |c| {
                let c = if roots == 1 {
                    f64::from(c).sqrt()
                } else {
                    f64::from(c % 4)
                };
                c - 2.0 * f64::from(shift)
            });
            let unit = if sevenths == 1 { 1.0 / 7.0 } else { 0.5 };
            let mass = (0u8..5).prop_map(move |w| f64::from(w) * unit);
            (
                prop::collection::vec(cost, m * n),
                prop::collection::vec(mass.clone(), m),
                prop::collection::vec(mass, n),
            )
        },
    )
}

/// Test-only verbatim copy of the transportation simplex as it was
/// before it kept its basis tree across pivots: every pivot rebuilt a
/// CSR adjacency over the basic cells, recomputed every potential by a
/// DFS from row 0 and found the stepping-stone path by BFS. Its start,
/// pricing, tie-breaks and plan extraction are the ones the kept tree
/// must reproduce pivot for pivot. The start is the northwest corner
/// below 128 cells and the least-cost rule from there on, written out
/// directly: every fill scans every live cell, where the solver keeps
/// each row's cheapest live column.
mod rebuilt_tree {
    use emd::EmdError;
    use std::collections::VecDeque;

    /// A solved problem: `(flows, total cost, total flow, pivots)`.
    pub type Solved = (Vec<(usize, usize, f64)>, f64, f64, u64);

    pub fn solve(costs: &[f64], supplies: &[f64], demands: &[f64]) -> Result<Solved, EmdError> {
        let mut s = Scratch::default();
        let dims = solve_core(costs, supplies, demands, &mut s, None)?;
        let mut flows = Vec::new();
        let (total_cost, total_flow) = finish(&s, &dims, |i, j, f| flows.push((i, j, f)));
        Ok((flows, total_cost, total_flow, s.pivots))
    }

    /// Internal basic cell of the simplex tableau.
    #[derive(Debug, Clone, Copy)]
    struct BasicCell {
        i: usize,
        j: usize,
        flow: f64,
    }

    #[derive(Debug, Clone, Default)]
    pub struct Scratch {
        /// Original indices of the retained (positive-supply) rows.
        rows: Vec<usize>,
        /// Original indices of the retained (positive-demand) columns.
        cols: Vec<usize>,
        /// Balanced cost matrix, row-major `m x n` (slack cells cost zero).
        c: Vec<f64>,
        /// Balanced supplies (consumed by the initial basic solution).
        a: Vec<f64>,
        /// Balanced demands (consumed by the initial basic solution).
        b: Vec<f64>,
        /// Basic cells of the current tableau (`m + n - 1` of them).
        basis: Vec<BasicCell>,
        /// Membership mask over tableau cells.
        is_basic: Vec<bool>,
        /// Row potentials.
        u: Vec<f64>,
        /// Column potentials.
        v: Vec<f64>,
        /// Which row potentials have been propagated.
        known_u: Vec<bool>,
        /// Which column potentials have been propagated.
        known_v: Vec<bool>,
        /// CSR adjacency of the basis tree: node offsets (`m + n + 1`).
        adj_start: Vec<usize>,
        /// CSR fill cursors (scratch for the counting sort).
        adj_pos: Vec<usize>,
        /// CSR adjacency items: basis-cell indices, two per cell.
        adj_items: Vec<usize>,
        /// DFS stack for potential propagation.
        stack: Vec<usize>,
        /// BFS queue for the stepping-stone path search.
        bfs: VecDeque<usize>,
        /// BFS parent edge per node.
        parent_edge: Vec<usize>,
        /// BFS parent node per node.
        parent_node: Vec<usize>,
        /// BFS visited mask.
        visited: Vec<bool>,
        /// The stepping-stone cycle (basis-cell indices).
        path: Vec<usize>,
        /// Pivots applied by the latest solve.
        pivots: u64,
    }

    /// Shape of a solved (balanced) tableau, for plan extraction.
    struct Dims {
        /// Columns of the balanced tableau.
        n: usize,
        /// Leading rows that map to real supplies (the rest is slack).
        real_rows: usize,
        /// Leading columns that map to real demands (the rest is slack).
        real_cols: usize,
    }

    fn solve_core(
        costs: &[f64],
        supplies: &[f64],
        demands: &[f64],
        s: &mut Scratch,
        bland_after: Option<usize>,
    ) -> Result<Dims, EmdError> {
        let m0 = supplies.len();
        let n0 = demands.len();
        assert_eq!(
            costs.len(),
            m0 * n0,
            "solve_transportation: cost matrix shape mismatch"
        );
        if supplies
            .iter()
            .chain(demands)
            .any(|x| !x.is_finite() || *x < 0.0)
            || costs.iter().any(|c| !c.is_finite())
        {
            return Err(EmdError::NonFiniteInput);
        }

        // Filter zero-mass rows/columns, remembering original indices.
        s.rows.clear();
        s.rows.extend((0..m0).filter(|&i| supplies[i] > 0.0));
        s.cols.clear();
        s.cols.extend((0..n0).filter(|&j| demands[j] > 0.0));
        if s.rows.is_empty() || s.cols.is_empty() {
            return Err(EmdError::ZeroMass);
        }

        let sa: f64 = s.rows.iter().map(|&i| supplies[i]).sum();
        let sb: f64 = s.cols.iter().map(|&j| demands[j]).sum();
        let diff = sa - sb;
        // Tolerance for treating the problem as balanced.
        let scale = sa.max(sb);
        let balanced = diff.abs() <= 1e-12 * scale;

        // Dimensions of the balanced tableau (possibly one slack row/col).
        let extra_col = !balanced && diff > 0.0;
        let extra_row = !balanced && diff < 0.0;
        let m = s.rows.len() + usize::from(extra_row);
        let n = s.cols.len() + usize::from(extra_col);

        // Balanced cost matrix and marginals. Slack cells cost zero.
        s.c.clear();
        s.c.resize(m * n, 0.0);
        for (ri, &i) in s.rows.iter().enumerate() {
            for (cj, &j) in s.cols.iter().enumerate() {
                s.c[ri * n + cj] = costs[i * n0 + j];
            }
        }
        s.a.clear();
        s.a.extend(s.rows.iter().map(|&i| supplies[i]));
        s.b.clear();
        s.b.extend(s.cols.iter().map(|&j| demands[j]));
        if extra_col {
            s.b.push(diff);
        }
        if extra_row {
            s.a.push(-diff);
        }
        if balanced {
            // Snap the (tiny) imbalance onto the largest demand so row and
            // column sums agree exactly. The demands are finite and positive
            // (checked above) and `s.b` is non-empty, so this always snaps.
            if let Some((jmax, _)) = s.b.iter().enumerate().max_by(|x, y| x.1.total_cmp(y.1)) {
                s.b[jmax] += diff;
            }
        }

        // The marginals are working copies: the start consumes them in
        // place (nothing reads them afterwards).
        if m * n >= 128 {
            let real = (s.rows.len(), s.cols.len());
            least_cost(&s.c, &mut s.a, &mut s.b, real, &mut s.basis);
        } else {
            northwest_corner(&mut s.a, &mut s.b, &mut s.basis);
        }
        debug_assert_eq!(s.basis.len(), m + n - 1);

        let max_iters = (200 * (m + n) * (m + n)).max(2000);
        let bland_after = bland_after.unwrap_or(max_iters / 2);
        let cost_scale = s.c.iter().fold(1.0f64, |acc, &x| acc.max(x.abs()));
        let tol = 1e-10 * cost_scale;

        s.is_basic.clear();
        s.is_basic.resize(m * n, false);
        for cell in &s.basis {
            s.is_basic[cell.i * n + cell.j] = true;
        }

        s.u.clear();
        s.u.resize(m, 0.0);
        s.v.clear();
        s.v.resize(n, 0.0);

        for iter in 0..max_iters {
            // The basis tree changed by one edge (or is new): rebuild its
            // adjacency once per pivot and share it between the potential
            // propagation and the path search below.
            build_adjacency(
                &s.basis,
                m,
                &mut s.adj_start,
                &mut s.adj_pos,
                &mut s.adj_items,
            );
            compute_potentials(
                &s.basis,
                &s.c,
                m,
                n,
                &mut s.u,
                &mut s.v,
                &mut s.known_u,
                &mut s.known_v,
                &s.adj_start,
                &s.adj_items,
                &mut s.stack,
            );

            // Entering variable selection.
            let mut enter: Option<(usize, usize)> = None;
            let mut best = -tol;
            'scan: for i in 0..m {
                for j in 0..n {
                    if s.is_basic[i * n + j] {
                        continue;
                    }
                    let r = s.c[i * n + j] - s.u[i] - s.v[j];
                    if iter >= bland_after {
                        // Bland: first improving cell in index order.
                        if r < -tol {
                            enter = Some((i, j));
                            break 'scan;
                        }
                    } else if r < best {
                        best = r;
                        enter = Some((i, j));
                    }
                }
            }
            let Some((ei, ej)) = enter else {
                return Ok(Dims {
                    n,
                    real_rows: s.rows.len(),
                    real_cols: s.cols.len(),
                });
            };
            s.pivots += 1;

            // Unique cycle: path in the basis tree from col node ej to row
            // node ei, prepended with the entering cell.
            tree_path(
                &s.basis,
                m,
                n,
                ej,
                ei,
                &s.adj_start,
                &s.adj_items,
                &mut s.parent_edge,
                &mut s.parent_node,
                &mut s.visited,
                &mut s.bfs,
                &mut s.path,
            );

            // Flow change theta: minimum flow among odd-position (donor)
            // cells of the cycle. Position 0 is the entering cell (+).
            let mut theta = f64::INFINITY;
            let mut leave_pos = usize::MAX;
            for (pos, &cell_idx) in s.path.iter().enumerate() {
                if pos % 2 == 0 {
                    // positions 0,2,4.. in `path` are donors (see tree_path).
                    let f = s.basis[cell_idx].flow;
                    // Bland-compatible tie-break: smallest tableau index.
                    if f < theta - 1e-15
                        || (f < theta + 1e-15
                            && leave_pos != usize::MAX
                            && tableau_index(&s.basis[cell_idx], n)
                                < tableau_index(&s.basis[s.path[leave_pos]], n))
                    {
                        theta = f;
                        leave_pos = pos;
                    }
                }
            }
            debug_assert!(leave_pos != usize::MAX, "cycle must contain a donor cell");
            let theta = theta.max(0.0);

            // Apply the pivot: donors lose theta, receivers gain theta.
            for (pos, &cell_idx) in s.path.iter().enumerate() {
                if pos % 2 == 0 {
                    s.basis[cell_idx].flow -= theta;
                } else {
                    s.basis[cell_idx].flow += theta;
                }
            }
            let leaving_idx = s.path[leave_pos];
            let leaving = s.basis[leaving_idx];
            s.is_basic[leaving.i * n + leaving.j] = false;
            s.is_basic[ei * n + ej] = true;
            s.basis[leaving_idx] = BasicCell {
                i: ei,
                j: ej,
                flow: theta,
            };
        }
        Err(EmdError::DidNotConverge)
    }

    fn finish(s: &Scratch, dims: &Dims, mut on_flow: impl FnMut(usize, usize, f64)) -> (f64, f64) {
        let mut total_cost = 0.0;
        let mut total_flow = 0.0;
        for cell in &s.basis {
            if cell.flow <= 0.0 || cell.i >= dims.real_rows || cell.j >= dims.real_cols {
                continue;
            }
            total_cost += cell.flow * s.c[cell.i * dims.n + cell.j];
            total_flow += cell.flow;
            on_flow(s.rows[cell.i], s.cols[cell.j], cell.flow);
        }
        (total_cost, total_flow)
    }

    #[inline]
    fn tableau_index(cell: &BasicCell, n: usize) -> usize {
        cell.i * n + cell.j
    }

    /// Northwest-corner initial basic feasible solution: exactly
    /// `m + n - 1` basic cells (some possibly zero-flow). Consumes the
    /// marginals in place.
    fn northwest_corner(a: &mut [f64], b: &mut [f64], cells: &mut Vec<BasicCell>) {
        let m = a.len();
        let n = b.len();
        cells.clear();
        cells.reserve(m + n - 1);
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let f = a[i].min(b[j]).max(0.0);
            cells.push(BasicCell { i, j, flow: f });
            a[i] -= f;
            b[j] -= f;
            if i + 1 == m && j + 1 == n {
                break;
            }
            // Advance toward the exhausted side; at the borders only one
            // direction remains legal.
            if i + 1 < m && (j + 1 == n || a[i] <= b[j]) {
                i += 1;
            } else {
                j += 1;
            }
        }
    }

    /// Least-cost initial basic feasible solution on the `a.len() x
    /// b.len()` tableau `c`, whose leading `real` rows and columns are
    /// real (the rest is a slack line). Every fill scans the live cells
    /// in row-major order for the first cheapest one, slack cells after
    /// real ones, and crosses out one line: the row when it empties or
    /// its column is the last live one, unless it is the last live row;
    /// otherwise the column. The last fill ends with one row and one
    /// column live. Consumes the marginals in place.
    fn least_cost(
        c: &[f64],
        a: &mut [f64],
        b: &mut [f64],
        real: (usize, usize),
        cells: &mut Vec<BasicCell>,
    ) {
        let (m, n) = (a.len(), b.len());
        let (mut live_row, mut live_col) = (vec![true; m], vec![true; n]);
        let (mut rows_left, mut cols_left) = (m, n);
        cells.clear();
        loop {
            let mut cheapest: Option<(f64, usize, usize)> = None;
            for i in (0..m).filter(|&i| live_row[i]) {
                for j in (0..n).filter(|&j| live_col[j]) {
                    let key = if i < real.0 && j < real.1 {
                        c[i * n + j]
                    } else {
                        f64::INFINITY
                    };
                    if cheapest.is_none_or(|(best, _, _)| key < best) {
                        cheapest = Some((key, i, j));
                    }
                }
            }
            let (_, i, j) = cheapest.expect("a live row and a live column remain");
            let f = a[i].min(b[j]).max(0.0);
            cells.push(BasicCell { i, j, flow: f });
            a[i] -= f;
            b[j] -= f;
            if rows_left == 1 && cols_left == 1 {
                break;
            }
            if rows_left > 1 && (cols_left == 1 || a[i] <= b[j]) {
                live_row[i] = false;
                rows_left -= 1;
            } else {
                live_col[j] = false;
                cols_left -= 1;
            }
        }
    }

    /// CSR adjacency of the basis tree: node ids `0..m` are rows, `m..m+n`
    /// columns; each basic cell is an edge incident to two nodes. The
    /// counting sort preserves basis order within each node's list, so
    /// traversals visit edges in exactly the order the old per-node `Vec`
    /// lists produced.
    fn build_adjacency(
        basis: &[BasicCell],
        m: usize,
        start: &mut Vec<usize>,
        pos: &mut Vec<usize>,
        items: &mut Vec<usize>,
    ) {
        // m + n == basis.len() + 1 for a spanning tree.
        let nodes = basis.len() + 1;
        start.clear();
        start.resize(nodes + 1, 0);
        for cell in basis {
            start[cell.i + 1] += 1;
            start[m + cell.j + 1] += 1;
        }
        for k in 0..nodes {
            start[k + 1] += start[k];
        }
        pos.clear();
        pos.extend_from_slice(&start[..nodes]);
        items.clear();
        items.resize(2 * basis.len(), 0);
        for (idx, cell) in basis.iter().enumerate() {
            items[pos[cell.i]] = idx;
            pos[cell.i] += 1;
            items[pos[m + cell.j]] = idx;
            pos[m + cell.j] += 1;
        }
    }

    /// Solve for the dual potentials over the basis spanning tree
    /// (`u[0] = 0` is the normalization).
    #[allow(clippy::too_many_arguments)]
    fn compute_potentials(
        basis: &[BasicCell],
        c: &[f64],
        m: usize,
        n: usize,
        u: &mut [f64],
        v: &mut [f64],
        known_u: &mut Vec<bool>,
        known_v: &mut Vec<bool>,
        adj_start: &[usize],
        adj_items: &[usize],
        stack: &mut Vec<usize>,
    ) {
        known_u.clear();
        known_u.resize(m, false);
        known_v.clear();
        known_v.resize(n, false);
        u[0] = 0.0;
        known_u[0] = true;
        stack.clear();
        stack.push(0); // node ids
        while let Some(node) = stack.pop() {
            for &idx in &adj_items[adj_start[node]..adj_start[node + 1]] {
                let cell = &basis[idx];
                if node < m {
                    // row node: propagate to the column.
                    if !known_v[cell.j] {
                        v[cell.j] = c[cell.i * n + cell.j] - u[cell.i];
                        known_v[cell.j] = true;
                        stack.push(m + cell.j);
                    }
                } else if !known_u[cell.i] {
                    u[cell.i] = c[cell.i * n + cell.j] - v[cell.j];
                    known_u[cell.i] = true;
                    stack.push(cell.i);
                }
            }
        }
        debug_assert!(
            known_u.iter().all(|&k| k) && known_v.iter().all(|&k| k),
            "basis is not a spanning tree"
        );
    }

    /// Path (as basis-cell indices) in the basis tree from column node
    /// `start_col` to row node `goal_row`, written into `path`.
    ///
    /// The first edge on the path is incident to `start_col` and is a donor
    /// (receives `-theta`): adding `+theta` at the entering cell `(goal_row,
    /// start_col)` over-fills column `start_col`, so the basic edge leaving it
    /// must shed flow. Donor/receiver then alternate along the path, so even
    /// positions are donors.
    #[allow(clippy::too_many_arguments)]
    fn tree_path(
        basis: &[BasicCell],
        m: usize,
        n: usize,
        start_col: usize,
        goal_row: usize,
        adj_start: &[usize],
        adj_items: &[usize],
        parent_edge: &mut Vec<usize>,
        parent_node: &mut Vec<usize>,
        visited: &mut Vec<bool>,
        bfs: &mut VecDeque<usize>,
        path: &mut Vec<usize>,
    ) {
        let num_nodes = m + n;
        // BFS from col node to row node.
        let start = m + start_col;
        let goal = goal_row;
        parent_edge.clear();
        parent_edge.resize(num_nodes, usize::MAX);
        parent_node.clear();
        parent_node.resize(num_nodes, usize::MAX);
        visited.clear();
        visited.resize(num_nodes, false);
        visited[start] = true;
        bfs.clear();
        // Capacity is pinned to the node count, not to whatever high-water
        // mark earlier searches happened to reach: each node enters the
        // queue at most once, so this makes the queue shape-bound and keeps
        // warm solves allocation-free even when a deeper basis tree shows
        // up late in a stream.
        bfs.reserve(num_nodes);
        bfs.push_back(start);
        while let Some(node) = bfs.pop_front() {
            if node == goal {
                break;
            }
            for &idx in &adj_items[adj_start[node]..adj_start[node + 1]] {
                let cell = &basis[idx];
                let other = if node < m { m + cell.j } else { cell.i };
                if !visited[other] {
                    visited[other] = true;
                    parent_edge[other] = idx;
                    parent_node[other] = node;
                    bfs.push_back(other);
                }
            }
        }
        debug_assert!(visited[goal], "basis tree disconnected");
        // Walk back from goal to start; then reverse so the path starts at
        // the column side (first edge = donor adjacent to entering column).
        path.clear();
        let mut node = goal;
        while node != start {
            path.push(parent_edge[node]);
            node = parent_node[node];
        }
        path.reverse();
    }
}

/// Agreement to 1e-9, relative to the oracle's magnitude (absolute
/// below 1).
fn agrees(value: f64, oracle: f64) -> bool {
    (value - oracle).abs() <= 1e-9 * (1.0 + oracle.abs())
}

/// Normalize a weighted point set to unit mass.
fn normalize(pts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let total: f64 = pts.iter().map(|&(_, w)| w).sum();
    pts.iter().map(|&(x, w)| (x, w / total)).collect()
}

fn to_signature_1d(pts: &[(f64, f64)]) -> Signature {
    let points: Vec<Vec<f64>> = pts.iter().map(|&(x, _)| vec![x]).collect();
    let weights: Vec<f64> = pts.iter().map(|&(_, w)| w).collect();
    Signature::new(points, weights).expect("valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transportation simplex == closed-form CDF distance in 1-D.
    #[test]
    fn simplex_matches_1d_oracle(
        a in weighted_points_1d(12),
        b in weighted_points_1d(12),
    ) {
        let a = normalize(&a);
        let b = normalize(&b);
        let oracle = emd_1d(&a, &b).unwrap();
        let solved = emd_fresh(&to_signature_1d(&a), &to_signature_1d(&b)).unwrap();
        prop_assert!(
            (oracle - solved).abs() < 1e-7 * (1.0 + oracle.abs()),
            "oracle {oracle} vs simplex {solved}"
        );
    }

    /// EMD is non-negative and zero on identical signatures.
    #[test]
    fn non_negative_and_identity(s in signature_2d(10)) {
        let d = emd_fresh(&s, &s).unwrap();
        prop_assert!(d >= 0.0);
        prop_assert!(d < 1e-9, "self distance {d}");
    }

    /// EMD is symmetric (any masses — Eq. 12 is symmetric by construction).
    #[test]
    fn symmetric(a in signature_2d(8), b in signature_2d(8)) {
        let dab = emd_fresh(&a, &b).unwrap();
        let dba = emd_fresh(&b, &a).unwrap();
        prop_assert!((dab - dba).abs() < 1e-7 * (1.0 + dab.abs()), "{dab} vs {dba}");
    }

    /// Triangle inequality holds for normalized (equal-mass) signatures.
    #[test]
    fn triangle_inequality(
        a in signature_2d(6),
        b in signature_2d(6),
        c in signature_2d(6),
    ) {
        let (a, b, c) = (normalized(&a), normalized(&b), normalized(&c));
        let ab = emd_fresh(&a, &b).unwrap();
        let bc = emd_fresh(&b, &c).unwrap();
        let ac = emd_fresh(&a, &c).unwrap();
        prop_assert!(ac <= ab + bc + 1e-7, "ac={ac} > ab+bc={}", ab + bc);
    }

    /// Translating both signatures leaves the distance unchanged;
    /// translating one by `delta` changes a point-mass pair by |delta|.
    #[test]
    fn translation_behaviour(
        a in weighted_points_1d(8),
        delta in -10.0..10.0f64,
    ) {
        let a = normalize(&a);
        let shifted: Vec<(f64, f64)> = a.iter().map(|&(x, w)| (x + delta, w)).collect();
        let d = emd_1d(&a, &shifted).unwrap();
        prop_assert!((d - delta.abs()) < 1e-7, "shift distance {d} vs {}", delta.abs());
    }

    /// Scaling all weights of both signatures leaves Eq. 12 unchanged.
    #[test]
    fn mass_scale_invariance(
        a in signature_2d(6),
        b in signature_2d(6),
        scale in 0.1..100.0f64,
    ) {
        let d1 = emd_fresh(&a, &b).unwrap();
        let a2 = Signature::new(
            a.points().to_vec(),
            a.weights().iter().map(|w| w * scale).collect(),
        ).unwrap();
        let b2 = Signature::new(
            b.points().to_vec(),
            b.weights().iter().map(|w| w * scale).collect(),
        ).unwrap();
        let d2 = emd_fresh(&a2, &b2).unwrap();
        prop_assert!((d1 - d2).abs() < 1e-7 * (1.0 + d1.abs()), "{d1} vs {d2}");
    }

    /// One dirty scratch returns bit-identical `TransportPlan`s (cost,
    /// flow, and the flows list) to a fresh one across random unbalanced
    /// and degenerate problems, reused across problems of varying shape.
    #[test]
    fn scratch_solver_is_bit_identical(
        problems in prop::collection::vec(transport_problem(), 1..6),
    ) {
        let mut scratch = TransportScratch::new();
        for (costs, supplies, demands) in &problems {
            let fresh = solve_fresh(costs, supplies, demands);
            let reused = solve_transportation_with(costs, supplies, demands, &mut scratch);
            match (fresh, reused) {
                (Ok(f), Ok(r)) => {
                    prop_assert_eq!(f.total_cost().to_bits(), r.total_cost().to_bits());
                    prop_assert_eq!(f.total_flow().to_bits(), r.total_flow().to_bits());
                    prop_assert_eq!(f.flows(), r.flows());
                }
                (f, r) => prop_assert_eq!(f.is_err(), r.is_err(), "error parity"),
            }
        }
    }

    /// `emd_with` through one dirty scratch is bit-identical to a fresh
    /// scratch.
    #[test]
    fn emd_with_scratch_is_bit_identical(
        pairs in prop::collection::vec((signature_2d(8), signature_2d(8)), 1..5),
    ) {
        let mut scratch = TransportScratch::new();
        for (a, b) in &pairs {
            let fresh = emd_fresh(a, b).unwrap();
            let reused = emd_with(a, b, &Euclidean, &mut scratch).unwrap();
            prop_assert_eq!(fresh.to_bits(), reused.to_bits());
        }
    }

    /// EMD against a point mass equals the weighted mean distance to it
    /// when the point-mass side has the (weakly) larger mass.
    #[test]
    fn point_mass_closed_form(s in signature_2d(8), px in -20.0..20.0f64, py in -20.0..20.0f64) {
        let s = normalized(&s);
        let p = Signature::new(vec![vec![px, py]], vec![1.0]).unwrap();
        let d = emd_fresh(&s, &p).unwrap();
        let expected: f64 = s.iter()
            .map(|(pt, w)| {
                let dx = pt[0] - px;
                let dy = pt[1] - py;
                w * (dx * dx + dy * dy).sqrt()
            })
            .sum();
        prop_assert!((d - expected).abs() < 1e-7 * (1.0 + expected), "{d} vs {expected}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The transportation simplex finds the min-cost flow's optimum, on
    /// random unbalanced and degenerate problems with integer marginals
    /// (the half-integer grid of `transport_problem`, doubled).
    #[test]
    fn simplex_matches_min_cost_flow_oracle(problem in transport_problem()) {
        let (costs, supplies, demands) = problem;
        let supplies: Vec<f64> = supplies.iter().map(|s| s * 2.0).collect();
        let demands: Vec<f64> = demands.iter().map(|d| d * 2.0).collect();
        let counts = |masses: &[f64]| masses.iter().map(|&x| x as u64).collect::<Vec<_>>();
        let (cost, flow) = min_cost_flow::solve(&costs, &counts(&supplies), &counts(&demands));
        match solve_fresh(&costs, &supplies, &demands) {
            Ok(plan) => {
                prop_assert!(
                    agrees(plan.total_flow(), flow as f64),
                    "flow {} vs oracle {flow}", plan.total_flow()
                );
                prop_assert!(
                    agrees(plan.total_cost(), cost),
                    "cost {} vs oracle {cost}", plan.total_cost()
                );
            }
            Err(e) => {
                prop_assert_eq!(e, EmdError::ZeroMass);
                prop_assert_eq!(flow, 0);
            }
        }
    }

    /// `emd_with` is the min-cost flow's cost per unit of flow (Eq. 12), on
    /// 2-D signatures of up to 24 points with integer weights, zeros
    /// included, so both the northwest-corner and the least-cost start
    /// are reached. With `grid` set the points snap to a small integer
    /// grid, where ground distances tie and the simplex meets degenerate
    /// pivots.
    #[test]
    fn emd_matches_min_cost_flow_oracle(
        grid in 0u8..2,
        a in counted_points_2d(24),
        b in counted_points_2d(24),
    ) {
        let snap = |(points, counts): (Vec<Vec<f64>>, Vec<u64>)| {
            let points = points
                .into_iter()
                .map(|p| {
                    if grid == 1 {
                        p.iter().map(|x| (x / 8.0).round()).collect()
                    } else {
                        p
                    }
                })
                .collect();
            let weights = counts.iter().map(|&c| c as f64).collect();
            Signature::new(points, weights).expect("valid signature")
        };
        let (a, b) = (snap(a), snap(b));
        let costs: Vec<f64> = a
            .points()
            .iter()
            .flat_map(|pa| b.points().iter().map(|pb| Euclidean.distance(pa, pb)))
            .collect();
        let counts = |s: &Signature| s.weights().iter().map(|&w| w as u64).collect::<Vec<_>>();
        let (cost, flow) = min_cost_flow::solve(&costs, &counts(&a), &counts(&b));
        match emd_fresh(&a, &b) {
            Ok(d) => {
                prop_assert!(flow > 0);
                let oracle = cost / flow as f64;
                prop_assert!(agrees(d, oracle), "emd {d} vs oracle {oracle}");
            }
            Err(e) => {
                prop_assert_eq!(e, EmdError::ZeroMass);
                prop_assert_eq!(flow, 0);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The kept basis tree takes the same pivots as the solver that
    /// rebuilt its tree on every pivot and returns the same bits: total
    /// cost, total flow, every flow in order, and the pivot count read
    /// from `TransportScratch::stats`, through one scratch reused across
    /// problems of different shapes.
    #[test]
    fn kept_tree_is_bit_identical_to_rebuilt_tree(
        problems in prop::collection::vec(large_transport_problem(), 1..4),
    ) {
        let mut scratch = TransportScratch::new();
        for (costs, supplies, demands) in &problems {
            let before = scratch.stats().pivots;
            let kept = solve_transportation_with(costs, supplies, demands, &mut scratch);
            let pivots = scratch.stats().pivots - before;
            match (kept, rebuilt_tree::solve(costs, supplies, demands)) {
                (Ok(plan), Ok((flows, total_cost, total_flow, rebuilt_pivots))) => {
                    prop_assert_eq!(pivots, rebuilt_pivots);
                    prop_assert_eq!(plan.total_cost().to_bits(), total_cost.to_bits());
                    prop_assert_eq!(plan.total_flow().to_bits(), total_flow.to_bits());
                    prop_assert_eq!(plan.flows().len(), flows.len());
                    for (kept, rebuilt) in plan.flows().iter().zip(&flows) {
                        prop_assert_eq!(
                            (kept.0, kept.1, kept.2.to_bits()),
                            (rebuilt.0, rebuilt.1, rebuilt.2.to_bits())
                        );
                    }
                }
                (kept, rebuilt) => prop_assert_eq!(kept.err(), rebuilt.err()),
            }
        }
    }
}
