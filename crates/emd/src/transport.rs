//! Transportation-problem solver (Eqs. 7–11 of the paper).
//!
//! A from-scratch transportation simplex:
//!
//! 1. zero supplies/demands are filtered out;
//! 2. the unbalanced problem is balanced with a zero-cost slack node on
//!    the deficit side (the textbook reduction — slack flow is "not
//!    transported" mass, which Eq. 11 permits);
//! 3. an initial basic feasible solution of exactly `m + n - 1` basic
//!    cells (degenerate zero-flow ones included) comes from a start
//!    chosen by the tableau's size: the northwest-corner rule below 128
//!    cells, which covers every pair of signatures of up to 8 atoms, and
//!    the least-cost rule from there on, which starts a large tableau
//!    far fewer pivots from the optimum. That rule keeps the live rows
//!    and columns as two ascending lists and each live row's cheapest
//!    live cell, so a fill scans the live rows once, and only the rows
//!    whose column was just crossed out scan the live columns again;
//! 4. MODI (u-v) optimality testing with stepping-stone pivots improves
//!    it to optimality. Entering variables are chosen by most-negative
//!    reduced cost, switching to Bland's smallest-index rule after a
//!    grace period so cycling under degeneracy is impossible. Pricing
//!    computes reduced costs four cells at a time and looks into a group
//!    only when one of them beats the best so far. The basis
//!    is kept as one spanning tree rooted at row 0 — the network
//!    simplex's representation, hung from the start's cells by one tree
//!    builder whichever start produced them. A pivot finds its cycle by
//!    walking the entering cell's two endpoints up to where they meet,
//!    re-hangs the subtree that the leaving cell cuts off under the
//!    entering cell, and recomputes depths and potentials inside that
//!    subtree only. A potential depends only on its node's path to the
//!    root, so it is bit-identical to a recomputation over the whole
//!    tree.
//!
//! There is exactly one solver body, and it runs entirely out of a
//! caller-kept [`TransportScratch`]. It has two entry points:
//! [`solve_transportation_with`] returns the optimal flows as a
//! [`TransportPlan`], and the crate root's cost-only `emd_with`, which
//! the detector calls, touches no heap in steady state.

use crate::error::EmdError;

/// An optimal transportation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct TransportPlan {
    flows: Vec<(usize, usize, f64)>,
    total_cost: f64,
    total_flow: f64,
}

impl TransportPlan {
    /// Non-zero flows `(supply index, demand index, amount)` between real
    /// (non-slack) nodes, in unspecified order.
    pub fn flows(&self) -> &[(usize, usize, f64)] {
        &self.flows
    }

    /// Total transported mass (equals `min(Σ supplies, Σ demands)`).
    pub fn total_flow(&self) -> f64 {
        self.total_flow
    }

    /// Total transport cost `Σ f_kl d_kl`.
    pub fn total_cost(&self) -> f64 {
        self.total_cost
    }
}

/// Internal basic cell of the simplex tableau.
#[derive(Debug, Clone, Copy)]
struct BasicCell {
    i: usize,
    j: usize,
    flow: f64,
}

/// Absent tree link (no parent, child or sibling).
const NONE: usize = usize::MAX;

/// Balanced tableaus of at least this many cells start from the
/// least-cost rule, smaller ones from the northwest corner. Every pair of
/// signatures of up to 8 atoms stays below it (at most 8 × 9 cells with a
/// slack line), and keeps the northwest corner's pivots and bits; on
/// larger tableaus the least-cost start saves more pivots than it costs.
const LEAST_COST_MIN_CELLS: usize = 128;

/// A node of the basis tree. Rows are nodes `0..m` and columns
/// `m..m + n`; each basic cell is the edge between its row and column.
#[derive(Debug, Clone, Copy)]
struct TreeNode {
    /// Parent node (`NONE` at the root, row 0).
    parent: usize,
    /// Basis slot of the cell joining this node to its parent.
    edge: usize,
    /// Edges between this node and the root.
    depth: usize,
    /// Head of this node's child list.
    first_child: usize,
    /// Next sibling in the parent's child list.
    next: usize,
    /// Previous sibling in the parent's child list.
    prev: usize,
}

impl TreeNode {
    const DETACHED: TreeNode = TreeNode {
        parent: NONE,
        edge: NONE,
        depth: 0,
        first_child: NONE,
        next: NONE,
        prev: NONE,
    };
}

/// A live row of the least-cost start and its first cheapest live cell.
#[derive(Debug, Clone, Copy)]
struct RowMin {
    i: usize,
    j: usize,
    /// The cell's cost, or `+∞` for a slack cell.
    key: f64,
}

/// Every buffer the transportation simplex touches, reusable across
/// solves: the filtered row/column index maps, the balanced tableau
/// (costs and marginals), the least-cost start's lists of live rows
/// (with their cheapest cells) and live columns, the basic-cell set, the
/// basis tree with the incidence lists it is hung from and its MODI
/// potentials, and the stepping-stone path.
/// The basis tree is kept across pivots rather than rebuilt: a pivot
/// touches only the cycle it closes and the subtree it moves. One
/// scratch serves problems of any
/// shape — buffers are resized (never shrunk) per solve, so after the
/// largest problem has been seen once, further solves allocate nothing.
///
/// Results are bit-identical to a fresh scratch's regardless of what a
/// previous solve left behind: every cell of every buffer that a solve
/// reads is overwritten first.
#[derive(Debug, Clone, Default)]
pub struct TransportScratch {
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
    /// Least-cost start: the live (not yet crossed out) rows in
    /// ascending order, each with its cheapest live cell.
    live_rows: Vec<RowMin>,
    /// Least-cost start: the live columns in ascending order.
    live_cols: Vec<usize>,
    /// Basic cells of the current tableau (`m + n - 1` of them).
    basis: Vec<BasicCell>,
    /// Membership mask over tableau cells.
    is_basic: Vec<bool>,
    /// Head of each tree node's list of incident basic cells, read once
    /// to hang the initial basis from row 0.
    incident: Vec<usize>,
    /// Next entry in those lists: entry `2k` is basic cell `k` in its
    /// row's list, entry `2k + 1` the same cell in its column's list.
    next_incident: Vec<usize>,
    /// The basis as a spanning tree over the `m + n` row and column
    /// nodes, rooted at row 0.
    tree: Vec<TreeNode>,
    /// MODI potentials by tree node: row potentials `u`, then column
    /// potentials `v`.
    potential: Vec<f64>,
    /// The stepping-stone cycle (basis-cell indices).
    path: Vec<usize>,
    /// Ground-distance cost matrix for the crate-root `emd_with` entry
    /// points (kept here so one scratch covers the whole EMD solve).
    pub(crate) ground: Vec<f64>,
    /// Solves completed through this scratch (cumulative; plain `u64`,
    /// so counting costs nothing on the hot path — callers who want
    /// rates read [`TransportScratch::stats`] and difference).
    solves: u64,
    /// Simplex pivots applied across those solves (cumulative).
    pivots: u64,
}

impl TransportScratch {
    /// Empty scratch; buffers grow to each problem's shape on first use.
    pub fn new() -> Self {
        TransportScratch::default()
    }

    /// Cumulative solve counters. These only ever grow (cloning a
    /// scratch clones its history); consumers that want per-interval
    /// rates snapshot and difference.
    pub fn stats(&self) -> TransportStats {
        TransportStats {
            solves: self.solves,
            pivots: self.pivots,
        }
    }
}

/// Cumulative counters of the work a [`TransportScratch`] has carried:
/// how many transportation problems reached optimality and how many
/// stepping-stone pivots they took in total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Solves that reached optimality.
    pub solves: u64,
    /// Pivots applied across all solves.
    pub pivots: u64,
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

/// Solve the (possibly unbalanced) transportation problem out of a
/// caller-kept scratch.
///
/// `costs` is row-major `supplies.len() x demands.len()`. Supplies and
/// demands must be non-negative and finite; costs must be finite. In
/// steady state the only allocation is the returned plan's flow list,
/// and a scratch dirtied by previous solves of other shapes gives the
/// bits of a fresh one.
///
/// # Errors
/// [`EmdError::NonFiniteInput`] for NaN/infinite input,
/// [`EmdError::ZeroMass`] if either side has zero total mass, and
/// [`EmdError::DidNotConverge`] if the iteration cap is hit.
pub fn solve_transportation_with(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    scratch: &mut TransportScratch,
) -> Result<TransportPlan, EmdError> {
    let dims = solve_core(costs, supplies, demands, scratch, None)?;
    // lint:allow(NO_ALLOC_HOT_PATH, this variant materializes the plan by contract; the zero-alloc path is solve_cost_flow)
    let mut flows = Vec::new();
    let (total_cost, total_flow) = finish(scratch, &dims, |i, j, f| flows.push((i, j, f)));
    Ok(TransportPlan {
        flows,
        total_cost,
        total_flow,
    })
}

/// Optimal `(total cost, total flow)` without materializing the plan —
/// the zero-allocation form behind the crate root's `emd_with`.
///
/// # Errors
/// As [`solve_transportation_with`].
pub(crate) fn solve_cost_flow(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    scratch: &mut TransportScratch,
) -> Result<(f64, f64), EmdError> {
    let dims = solve_core(costs, supplies, demands, scratch, None)?;
    Ok(finish(scratch, &dims, |_, _, _| {}))
}

/// The single solver body: filter, balance, a northwest-corner or
/// least-cost start by tableau size, and MODI/stepping-stone pivots to
/// optimality, leaving the optimal basis (and index maps) in `scratch`.
///
/// `bland_after` overrides the anti-cycling grace period (iterations of
/// most-negative-reduced-cost selection before switching to Bland's
/// rule); `None` is the production default of half the iteration cap.
/// Tests pass `Some(0)` to drive every pivot through the Bland's-rule
/// branch.
fn solve_core(
    costs: &[f64],
    supplies: &[f64],
    demands: &[f64],
    s: &mut TransportScratch,
    bland_after: Option<usize>,
) -> Result<Dims, EmdError> {
    let m0 = supplies.len();
    let n0 = demands.len();
    assert_eq!(
        costs.len(),
        m0 * n0,
        "solve_transportation_with: cost matrix shape mismatch"
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
    if m * n >= LEAST_COST_MIN_CELLS {
        least_cost(s);
    } else {
        northwest_corner(&mut s.a, &mut s.b, &mut s.basis);
    }
    debug_assert_eq!(s.basis.len(), m + n - 1);
    build_tree(s);

    let max_iters = (200 * (m + n) * (m + n)).max(2000);
    let bland_after = bland_after.unwrap_or(max_iters / 2);
    let cost_scale = s.c.iter().fold(1.0f64, |acc, &x| acc.max(x.abs()));
    let tol = 1e-10 * cost_scale;

    s.is_basic.clear();
    s.is_basic.resize(m * n, false);
    for cell in &s.basis {
        s.is_basic[cell.i * n + cell.j] = true;
    }

    s.potential.clear();
    s.potential.resize(m + n, 0.0);
    relabel(s, n, 0);

    for iter in 0..max_iters {
        let (u, v) = s.potential.split_at(m);
        let bland = iter >= bland_after;
        let Some((ei, ej)) = entering_cell(&s.c, u, v, &s.is_basic, tol, bland) else {
            s.solves += 1;
            return Ok(Dims {
                n,
                real_rows: s.rows.len(),
                real_cols: s.cols.len(),
            });
        };
        s.pivots += 1;

        // Unique cycle: the entering cell closes the tree path from col
        // node ej to row node ei.
        let split = tree_path(&s.tree, m + ej, ei, &mut s.path);

        // Flow change theta: minimum flow among the donor cells of the
        // cycle (the entering cell itself receives +theta).
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

        // The leaving cell cuts off the subtree below its deeper node.
        // The entering cell's endpoint on that side of the cycle becomes
        // the subtree's top, hung under the other endpoint.
        let cut = if s.tree[leaving.i].depth > s.tree[m + leaving.j].depth {
            leaving.i
        } else {
            m + leaving.j
        };
        let (top, anchor) = if leave_pos < split {
            (m + ej, ei)
        } else {
            (ei, m + ej)
        };
        rehang(&mut s.tree, top, anchor, cut, leaving_idx);
        relabel(s, n, top);
    }
    Err(EmdError::DidNotConverge)
}

/// The entering cell of a pivot on the tableau `c` (rows of `v.len()`
/// costs) under potentials `u` and `v`: the non-basic cell whose reduced
/// cost `c[i][j] − u[i] − v[j]` is the most negative below `−tol`, the
/// first in row-major order among equals; under Bland's rule the first
/// such cell in row-major order. `None` when the basis is optimal.
///
/// Reduced costs are computed four at a time, and a group is looked into
/// only when one of its costs beats the best so far; there, and in each
/// row's last `n mod 4` cells, every cell is tested in order, and a cell
/// is looked up in the basis mask only once its cost beats the best.
fn entering_cell(
    c: &[f64],
    u: &[f64],
    v: &[f64],
    is_basic: &[bool],
    tol: f64,
    bland: bool,
) -> Option<(usize, usize)> {
    let n = v.len();
    let split = n - n % 4;
    let (v4, v_tail) = v.split_at(split);
    let mut enter = None;
    let mut best = -tol;
    let rows = c.chunks_exact(n).zip(is_basic.chunks_exact(n)).zip(u);
    for (i, ((row, basic), &ui)) in rows.enumerate() {
        let (c4, c_tail) = row.split_at(split);
        for (g, (cs, vs)) in c4.chunks_exact(4).zip(v4.chunks_exact(4)).enumerate() {
            let r: [f64; 4] = std::array::from_fn(|k| cs[k] - ui - vs[k]);
            // `|`, not `||`: the four tests make one branch, not four.
            if (r[0] < best) | (r[1] < best) | (r[2] < best) | (r[3] < best) {
                for (k, &rk) in r.iter().enumerate() {
                    if rk < best && !basic[4 * g + k] {
                        enter = Some((i, 4 * g + k));
                        if bland {
                            return enter;
                        }
                        best = rk;
                    }
                }
            }
        }
        for (k, (&cij, &vj)) in c_tail.iter().zip(v_tail).enumerate() {
            let r = cij - ui - vj;
            if r < best && !basic[split + k] {
                enter = Some((i, split + k));
                if bland {
                    return enter;
                }
                best = r;
            }
        }
    }
    enter
}

/// Totals (and optionally flows) of the solved basis over real
/// (non-slack) nodes, mapping back to the caller's original indices.
/// The single extraction body shared by the plan-building and the
/// cost-only entry points.
fn finish(
    s: &TransportScratch,
    dims: &Dims,
    mut on_flow: impl FnMut(usize, usize, f64),
) -> (f64, f64) {
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

/// Least-cost initial basic feasible solution for the balanced tableau
/// in `s`: exactly `m + n - 1` basic cells (some possibly zero-flow).
/// Consumes the marginals in place.
///
/// Each fill takes the cheapest cell whose row and column are both live
/// — slack cells after every real cell, ties to the smaller row-major
/// index — and crosses out exactly one of its lines: the row when it
/// empties or when its column is the last live one, unless the row is
/// the last live row; otherwise the column. Both lines go only at the
/// last fill. Each crossed line hangs, as a leaf, on the cell's other
/// line, which stays live, so the cells span even where flows are zero.
///
/// Nothing is sorted: the live rows and the live columns are two
/// ascending lists, each live row keeps its first cheapest live cell,
/// and only the rows whose column was just crossed out look again.
fn least_cost(s: &mut TransportScratch) {
    let TransportScratch {
        rows,
        cols,
        c,
        a,
        b,
        live_rows,
        live_cols,
        basis: cells,
        ..
    } = s;
    let (m, n) = (a.len(), b.len());
    let (real_rows, real_cols) = (rows.len(), cols.len());
    // Row `i`'s first cheapest cell over the live columns, of which the
    // first `real` are real: the first live column keyed +∞ unless a
    // real cell beats it (never on a slack row). Selects, not branches,
    // carry the running minimum.
    let row_min = |i: usize, live_cols: &[usize], real: usize| {
        let real = if i < real_rows {
            &live_cols[..real]
        } else {
            &[]
        };
        let row = &c[i * n..(i + 1) * n];
        let (mut j, mut key) = (live_cols[0], f64::INFINITY);
        for &x in real {
            let lt = row[x] < key;
            j = if lt { x } else { j };
            key = if lt { row[x] } else { key };
        }
        RowMin { i, j, key }
    };
    live_cols.clear();
    live_cols.extend(0..n);
    live_rows.clear();
    live_rows.extend((0..m).map(|i| row_min(i, live_cols, real_cols)));
    cells.clear();
    cells.reserve(m + n - 1);
    loop {
        let at = first_least(live_rows);
        let RowMin { i, j, .. } = live_rows[at];
        let f = a[i].min(b[j]).max(0.0);
        cells.push(BasicCell { i, j, flow: f });
        a[i] -= f;
        b[j] -= f;
        if live_rows.len() == 1 && live_cols.len() == 1 {
            break;
        }
        if live_rows.len() > 1 && (live_cols.len() == 1 || a[i] <= b[j]) {
            live_rows.remove(at);
        } else {
            live_cols.retain(|&x| x != j);
            // A slack column is the last, so the real ones lead the list.
            let real = live_cols.partition_point(|&x| x < real_cols);
            for row in live_rows.iter_mut().filter(|row| row.j == j) {
                *row = row_min(row.i, live_cols, real);
            }
        }
    }
}

/// The position of the first of the live `rows` whose cached key is the
/// smallest (0 if every key is `+∞`), carried by selects, not branches.
fn first_least(rows: &[RowMin]) -> usize {
    let (mut at, mut key) = (0, f64::INFINITY);
    for (p, row) in rows.iter().enumerate() {
        let lt = row.key < key;
        at = if lt { p } else { at };
        key = if lt { row.key } else { key };
    }
    at
}

/// Hang the `m + n - 1` basic cells of a start, which span the `m` row
/// and `n` column nodes, from row 0 as the basis tree: each node links
/// under its neighbour on the path to the root, joined by the cell
/// between them. Depths and potentials are [`relabel`]'s. A node's
/// parent, depth and potential depend only on the cells and the root,
/// not on the sibling order this walk leaves, so neither does a pivot.
fn build_tree(s: &mut TransportScratch) {
    let TransportScratch {
        a,
        basis: cells,
        incident,
        next_incident,
        tree,
        ..
    } = s;
    let (m, nodes) = (a.len(), cells.len() + 1);
    incident.clear();
    incident.resize(nodes, NONE);
    next_incident.clear();
    next_incident.resize(2 * cells.len(), NONE);
    for (k, cell) in cells.iter().enumerate() {
        for (entry, x) in [(2 * k, cell.i), (2 * k + 1, m + cell.j)] {
            next_incident[entry] = incident[x];
            incident[x] = entry;
        }
    }
    tree.clear();
    tree.resize(nodes, TreeNode::DETACHED);
    // Walk the tree in preorder while it grows: a node hangs its other
    // neighbours as its children before the walk moves past it.
    let mut x = 0;
    while x != NONE {
        let mut entry = incident[x];
        while entry != NONE {
            let (k, cell) = (entry / 2, cells[entry / 2]);
            if k != tree[x].edge {
                let child = if entry % 2 == 0 { m + cell.j } else { cell.i };
                link(tree, child, x, k);
            }
            entry = next_incident[entry];
        }
        x = preorder_next(tree, x, 0);
    }
}

/// Put node `x` at the head of `parent`'s child list, joined to it by
/// the cell in basis slot `edge`.
fn link(tree: &mut [TreeNode], x: usize, parent: usize, edge: usize) {
    let head = tree[parent].first_child;
    if head != NONE {
        tree[head].prev = x;
    }
    tree[parent].first_child = x;
    let node = &mut tree[x];
    (node.parent, node.edge, node.next, node.prev) = (parent, edge, head, NONE);
}

/// Take node `x` out of its parent's child list; its own subtree stays
/// below it.
fn unlink(tree: &mut [TreeNode], x: usize) {
    let TreeNode {
        parent, next, prev, ..
    } = tree[x];
    if prev == NONE {
        tree[parent].first_child = next;
    } else {
        tree[prev].next = next;
    }
    if next != NONE {
        tree[next].prev = prev;
    }
}

/// Path in the basis tree from column node `from` to row node `to`, as
/// basis-cell indices written into `path`: the edges up from `from` to
/// the apex where the two walks meet, then the edges down from there to
/// `to`. Returns the number of edges on the `from` side.
///
/// The first edge on the path is incident to `from` and is a donor
/// (receives `-theta`): adding `+theta` at the entering cell `(to,
/// from)` over-fills that column, so the basic edge leaving it must shed
/// flow. Donor/receiver then alternate along the path, so even
/// positions are donors.
fn tree_path(tree: &[TreeNode], from: usize, to: usize, path: &mut Vec<usize>) -> usize {
    let (mut x, mut y) = (from, to);
    while x != y {
        if tree[x].depth >= tree[y].depth {
            x = tree[x].parent;
        } else {
            y = tree[y].parent;
        }
    }
    let apex = x;
    path.clear();
    // A path has fewer edges than the tree has nodes, so this pins the
    // capacity to the shape and keeps warm solves allocation-free.
    path.reserve(tree.len());
    let mut x = from;
    while x != apex {
        path.push(tree[x].edge);
        x = tree[x].parent;
    }
    let split = path.len();
    let mut y = to;
    while y != apex {
        path.push(tree[y].edge);
        y = tree[y].parent;
    }
    path[split..].reverse();
    split
}

/// After a pivot, move the subtree below `cut` (the deeper node of the
/// leaving cell) so that it hangs from `top` (its node on the entering
/// cell) under `anchor`, joined by the cell now in basis slot `edge`.
/// The parent links from `top` up to `cut` are reversed.
fn rehang(tree: &mut [TreeNode], top: usize, anchor: usize, cut: usize, edge: usize) {
    let (mut x, mut parent, mut edge) = (top, anchor, edge);
    loop {
        let old = tree[x];
        unlink(tree, x);
        link(tree, x, parent, edge);
        if x == cut {
            return;
        }
        (x, parent, edge) = (old.parent, x, old.edge);
    }
}

/// Set the depth and MODI potential of `top` and of every node below
/// it, in preorder. The root (row 0) gets depth 0 and `u[0] = 0`, the
/// normalization; any other node's potential is its parent cell's cost
/// minus the parent's potential (`v[j] = c[ij] - u[i]` or
/// `u[i] = c[ij] - v[j]`), so it depends only on the node's path to the
/// root.
fn relabel(s: &mut TransportScratch, n: usize, top: usize) {
    let mut x = top;
    while x != NONE {
        let node = s.tree[x];
        if node.parent == NONE {
            s.tree[x].depth = 0;
            s.potential[x] = 0.0;
        } else {
            let cell = s.basis[node.edge];
            s.tree[x].depth = s.tree[node.parent].depth + 1;
            s.potential[x] = s.c[cell.i * n + cell.j] - s.potential[node.parent];
        }
        x = preorder_next(&s.tree, x, top);
    }
}

/// The node after `x` in a preorder walk of the subtree under `top`: the
/// first child, else the next sibling of the nearest node (up to `top`)
/// that has one; `NONE` once the walk is done.
fn preorder_next(tree: &[TreeNode], mut x: usize, top: usize) -> usize {
    if tree[x].first_child != NONE {
        return tree[x].first_child;
    }
    while x != top && tree[x].next == NONE {
        x = tree[x].parent;
    }
    if x == top {
        NONE
    } else {
        tree[x].next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `solve_transportation_with` on a fresh scratch.
    fn solve_fresh(
        costs: &[f64],
        supplies: &[f64],
        demands: &[f64],
    ) -> Result<TransportPlan, EmdError> {
        solve_transportation_with(costs, supplies, demands, &mut TransportScratch::new())
    }

    fn solve(costs: &[&[f64]], supplies: &[f64], demands: &[f64]) -> TransportPlan {
        let flat: Vec<f64> = costs.iter().flat_map(|r| r.iter().copied()).collect();
        solve_fresh(&flat, supplies, demands).unwrap()
    }

    /// `tree` spans the `m` row and remaining column nodes from the root,
    /// row 0: every other node reaches the root through its parents, is
    /// joined to its parent by its edge's cell, and sits exactly once in
    /// its parent's (consistently linked) child list.
    fn assert_spanning_tree(cells: &[BasicCell], tree: &[TreeNode], m: usize) {
        assert_eq!(cells.len() + 1, tree.len());
        assert_eq!(tree[0].parent, NONE, "row 0 is the root");
        for (x, node) in tree.iter().enumerate().skip(1) {
            let cell = cells[node.edge];
            let joins = |p: usize, q: usize| (p, q) == (cell.i, m + cell.j);
            assert!(
                joins(x, node.parent) || joins(node.parent, x),
                "node {x}: its edge does not join it to its parent"
            );
            let (mut up, mut steps) = (x, 0);
            while up != 0 {
                up = tree[up].parent;
                steps += 1;
                assert!(steps < tree.len(), "node {x} does not reach the root");
            }
            let (mut sibling, mut prev, mut seen) = (tree[node.parent].first_child, NONE, 0);
            while sibling != NONE {
                assert_eq!(tree[sibling].prev, prev, "broken sibling links");
                seen += usize::from(sibling == x);
                (prev, sibling) = (sibling, tree[sibling].next);
            }
            assert_eq!(seen, 1, "node {x} listed {seen} times under its parent");
        }
    }

    #[test]
    fn textbook_balanced_3x3() {
        // Hitchcock-style instance with hand-verified optimum 1920
        // (basis s1->d1:70, s1->d3:50, s2->d2:70, s2->d3:10, s3->d1:80;
        // all reduced costs non-negative under u=(0,6,-5), v=(8,4,6)).
        // costs:      d1  d2  d3   supply
        //   s1         8   5   6     120
        //   s2        15  10  12      80
        //   s3         3   9  10      80
        // demand     150  70  60
        let plan = solve(
            &[&[8.0, 5.0, 6.0], &[15.0, 10.0, 12.0], &[3.0, 9.0, 10.0]],
            &[120.0, 80.0, 80.0],
            &[150.0, 70.0, 60.0],
        );
        assert!((plan.total_flow() - 280.0).abs() < 1e-9);
        assert!(
            (plan.total_cost() - 1920.0).abs() < 1e-9,
            "cost {}",
            plan.total_cost()
        );
    }

    #[test]
    fn trivial_1x1() {
        let plan = solve(&[&[7.0]], &[2.0], &[2.0]);
        assert_eq!(plan.flows(), &[(0, 0, 2.0)]);
        assert!((plan.total_cost() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn single_row_distributes_to_all() {
        let plan = solve(&[&[1.0, 2.0, 3.0]], &[6.0], &[1.0, 2.0, 3.0]);
        assert!((plan.total_flow() - 6.0).abs() < 1e-12);
        assert!((plan.total_cost() - (1.0 + 4.0 + 9.0)).abs() < 1e-12);
    }

    #[test]
    fn single_col_collects_from_all() {
        let plan = solve(&[&[4.0], &[2.0]], &[1.0, 1.0], &[2.0]);
        assert!((plan.total_cost() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn unbalanced_excess_supply() {
        // Supply 10 vs demand 4: the cheap supplier should serve it all.
        let plan = solve(&[&[1.0], &[5.0]], &[4.0, 6.0], &[4.0]);
        assert!((plan.total_flow() - 4.0).abs() < 1e-12);
        assert!(
            (plan.total_cost() - 4.0).abs() < 1e-12,
            "cost {}",
            plan.total_cost()
        );
    }

    #[test]
    fn unbalanced_excess_demand() {
        let plan = solve(&[&[1.0, 5.0]], &[4.0], &[4.0, 6.0]);
        assert!((plan.total_flow() - 4.0).abs() < 1e-12);
        assert!((plan.total_cost() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_entries_filtered() {
        let plan = solve(
            &[&[9.0, 1.0], &[1.0, 9.0], &[5.0, 5.0]],
            &[1.0, 0.0, 1.0],
            &[1.0, 1.0],
        );
        // Row 1 has zero supply; optimal assigns row0->col1, row2->col0.
        assert!((plan.total_cost() - 6.0).abs() < 1e-12);
        assert!(plan.flows().iter().all(|&(i, _, _)| i != 1));
    }

    #[test]
    fn degenerate_equal_supplies_demands() {
        // Every supply equals every demand: heavily degenerate pivots.
        let plan = solve(
            &[&[1.0, 2.0, 3.0], &[2.0, 1.0, 2.0], &[3.0, 2.0, 1.0]],
            &[1.0, 1.0, 1.0],
            &[1.0, 1.0, 1.0],
        );
        assert!((plan.total_cost() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn flow_conservation_constraints() {
        let supplies = [3.0, 2.0, 5.0];
        let demands = [4.0, 6.0];
        let costs = [1.0, 4.0, 2.0, 1.0, 3.0, 2.0];
        let plan = solve_fresh(&costs, &supplies, &demands).unwrap();
        let mut row_out = [0.0; 3];
        let mut col_in = [0.0; 2];
        for &(i, j, f) in plan.flows() {
            assert!(f > 0.0);
            row_out[i] += f;
            col_in[j] += f;
        }
        for (out, s) in row_out.iter().zip(&supplies) {
            assert!(*out <= s + 1e-9, "row constraint violated");
        }
        for (inn, d) in col_in.iter().zip(&demands) {
            assert!(*inn <= d + 1e-9, "col constraint violated");
        }
        assert!((plan.total_flow() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_nan_cost() {
        assert_eq!(
            solve_fresh(&[f64::NAN], &[1.0], &[1.0]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn rejects_negative_supply() {
        assert_eq!(
            solve_fresh(&[1.0], &[-1.0], &[1.0]),
            Err(EmdError::NonFiniteInput)
        );
    }

    #[test]
    fn rejects_all_zero_mass() {
        assert_eq!(solve_fresh(&[1.0], &[0.0], &[1.0]), Err(EmdError::ZeroMass));
    }

    /// The northwest corner's cells on marginals `a` and `b`, checked
    /// to hang from row 0 as one spanning tree.
    fn nw_corner_cells(a: &[f64], b: &[f64]) -> Vec<BasicCell> {
        let mut s = TransportScratch::new();
        s.a.extend_from_slice(a);
        s.b.extend_from_slice(b);
        northwest_corner(&mut s.a, &mut s.b, &mut s.basis);
        build_tree(&mut s);
        assert_spanning_tree(&s.basis, &s.tree, a.len());
        s.basis
    }

    /// The least-cost start's cells `(i, j, flow)` on an `a.len() x
    /// b.len()` tableau whose leading `real` rows and columns are real
    /// (the rest is a slack line), checked to hang from row 0 as one
    /// spanning tree.
    fn least_cost_cells(
        costs: &[f64],
        a: &[f64],
        b: &[f64],
        real: (usize, usize),
    ) -> Vec<(usize, usize, f64)> {
        let mut s = TransportScratch::new();
        s.rows.extend(0..real.0);
        s.cols.extend(0..real.1);
        s.c.extend_from_slice(costs);
        s.a.extend_from_slice(a);
        s.b.extend_from_slice(b);
        least_cost(&mut s);
        assert_eq!(s.basis.len(), a.len() + b.len() - 1);
        build_tree(&mut s);
        assert_spanning_tree(&s.basis, &s.tree, a.len());
        s.basis.iter().map(|c| (c.i, c.j, c.flow)).collect()
    }

    #[test]
    fn nw_corner_cell_count() {
        let cells = nw_corner_cells(&[1.0, 2.0, 3.0], &[2.0, 2.0, 2.0]);
        assert_eq!(cells.len(), 5);
        let total: f64 = cells.iter().map(|c| c.flow).sum();
        assert!((total - 6.0).abs() < 1e-12);
    }

    #[test]
    fn nw_corner_degenerate_ties() {
        // Supplies exactly match demands pairwise -> degenerate cells.
        let cells = nw_corner_cells(&[2.0, 2.0], &[2.0, 2.0]);
        assert_eq!(cells.len(), 3);
        let total: f64 = cells.iter().map(|c| c.flow).sum();
        assert!((total - 4.0).abs() < 1e-12);
    }

    #[test]
    fn least_cost_fills_cheapest_live_cell_first() {
        // Three cells cost 1; the smallest row-major index, (0, 1), goes
        // first and empties row 0. Column 0 then empties before row 1,
        // and the last live row takes what is left, ending on a
        // zero-flow cell that keeps the basis a spanning tree.
        let cells = least_cost_cells(
            &[3.0, 1.0, 2.0, 1.0, 5.0, 1.0],
            &[2.0, 3.0],
            &[1.0, 2.0, 2.0],
            (2, 3),
        );
        assert_eq!(cells, [(0, 1, 2.0), (1, 0, 1.0), (1, 2, 2.0), (1, 1, 0.0)]);
    }

    #[test]
    fn least_cost_fills_slack_after_every_real_cell() {
        // Excess supply 2 goes to a zero-cost slack column, which the
        // rule reaches only once no real column is live.
        let cells = least_cost_cells(
            &[1.0, 4.0, 0.0, 2.0, 3.0, 0.0],
            &[3.0, 3.0],
            &[2.0, 2.0, 2.0],
            (2, 2),
        );
        assert_eq!(cells, [(0, 0, 2.0), (1, 1, 2.0), (0, 2, 1.0), (1, 2, 1.0)]);
        // A slack row likewise waits for every real row.
        let cells = least_cost_cells(&[2.0, 1.0, 0.0, 0.0], &[1.0, 2.0], &[2.0, 1.0], (1, 2));
        assert_eq!(cells, [(0, 1, 1.0), (1, 0, 2.0), (1, 1, 0.0)]);
    }

    #[test]
    fn least_cost_spans_on_degenerate_marginals() {
        // Equal marginals and tied costs: most fills empty a row and a
        // column at once, and exactly one of them may go.
        for (m, n) in [(1, 5), (5, 1), (4, 4), (6, 3), (12, 12)] {
            let costs: Vec<f64> = (0..m * n).map(|k| (k % 3) as f64).collect();
            let cells = least_cost_cells(&costs, &vec![n as f64; m], &vec![m as f64; n], (m, n));
            let total: f64 = cells.iter().map(|c| c.2).sum();
            assert_eq!(total, (m * n) as f64);
        }
    }

    /// The one-cell-at-a-time pricing loop that `entering_cell` replaced,
    /// verbatim but for its inputs, which were `solve_core`'s locals.
    fn entering_cell_reference(
        c: &[f64],
        n: usize,
        (u, v): (&[f64], &[f64]),
        is_basic: &[bool],
        tol: f64,
        bland: bool,
    ) -> Option<(usize, usize)> {
        let mut enter: Option<(usize, usize)> = None;
        let mut best = -tol;
        'scan: for (i, (row, &ui)) in c.chunks_exact(n).zip(u).enumerate() {
            for (j, (&cij, &vj)) in row.iter().zip(v).enumerate() {
                let r = cij - ui - vj;
                if r < best && !is_basic[i * n + j] {
                    enter = Some((i, j));
                    if bland {
                        // Bland: first improving cell in index order.
                        break 'scan;
                    }
                    best = r;
                }
            }
        }
        enter
    }

    /// `entering_cell` on `c` (rows of `n` costs) with zero potentials,
    /// the cells listed in `basic` basic, checked against the reference
    /// under both rules.
    fn price(c: &[f64], n: usize, basic: &[usize], bland: bool) -> Option<(usize, usize)> {
        let (u, v) = (vec![0.0; c.len() / n], vec![0.0; n]);
        let mut is_basic = vec![false; c.len()];
        for &k in basic {
            is_basic[k] = true;
        }
        let got = entering_cell(c, &u, &v, &is_basic, 1e-10, bland);
        let want = entering_cell_reference(c, n, (&u, &v), &is_basic, 1e-10, bland);
        assert_eq!(got, want, "c = {c:?}, basic = {basic:?}, bland = {bland}");
        got
    }

    #[test]
    fn four_wide_pricing_picks_the_cells_of_the_one_cell_loop() {
        // The smallest reduced cost sits on a basic cell: the group is
        // looked into, and the next best non-basic cell enters.
        assert_eq!(
            price(&[0.0, -5.0, -3.0, -1.0, 0.0], 5, &[1], false),
            Some((0, 2))
        );
        // Equal minima in two groups, and again in a row's tail: the
        // first in row-major order enters.
        let two_groups = [0.0, -2.0, 0.0, 0.0, 1.0, -2.0, 0.0, 0.0];
        assert_eq!(price(&two_groups, 8, &[], false), Some((0, 1)));
        let tail = [
            1.0, 0.0, 1.0, 1.0, -2.0, -2.0, 1.0, 1.0, 1.0, 1.0, 1.0, -2.0,
        ];
        assert_eq!(price(&tail, 6, &[], false), Some((0, 4)));
        assert_eq!(price(&tail, 6, &[4], false), Some((0, 5)));
        assert_eq!(price(&tail, 6, &[4, 5], false), Some((1, 5)));
        // A later, more negative cell in a group that passed the check.
        assert_eq!(
            price(&[-1.0, 0.0, -4.0, 0.0, -4.0], 5, &[], false),
            Some((0, 2))
        );
        // Bland: the first improving cell, not the most negative.
        assert_eq!(
            price(&[0.0, -1.0, -5.0, 0.0, -9.0], 5, &[], true),
            Some((0, 1))
        );
        assert_eq!(
            price(&[0.0, -1.0, -5.0, 0.0, -9.0], 5, &[1, 2], true),
            Some((0, 4))
        );
        // Optimal: nothing beats −tol, and a basic cell never enters.
        assert_eq!(price(&[0.0, 1.0, 0.0, 2.0, -1e-11], 5, &[], false), None);
        assert_eq!(price(&[3.0, -7.0], 1, &[1], false), None);

        // Rows of 1 to 9 columns: tie-heavy costs, potentials that make
        // reduced costs round, and pseudo-random basic cells.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |modulus: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % modulus
        };
        for n in 1..=9 {
            for m in 1..=4 {
                for _ in 0..200 {
                    let c: Vec<f64> = (0..m * n).map(|_| next(7) as f64 - 3.0).collect();
                    let u: Vec<f64> = (0..m).map(|_| next(5) as f64 * 0.1 - 0.2).collect();
                    let v: Vec<f64> = (0..n).map(|_| next(5) as f64 * 0.3 - 0.6).collect();
                    let is_basic: Vec<bool> = (0..m * n).map(|_| next(3) == 0).collect();
                    for (tol, bland) in [(1e-10, false), (1e-10, true), (0.0, false), (2.5, true)] {
                        assert_eq!(
                            entering_cell(&c, &u, &v, &is_basic, tol, bland),
                            entering_cell_reference(&c, n, (&u, &v), &is_basic, tol, bland),
                            "{m} x {n}: c = {c:?}, u = {u:?}, v = {v:?}, tol = {tol}, bland = {bland}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kept_tree_matches_a_full_relabel_after_every_solve() {
        // The tree a solve leaves behind must still span the optimal
        // basis, and relabelling it from the root must reproduce every
        // depth and potential bit for bit: a pivot that missed a moved
        // node would leave a stale value here.
        let mut s = TransportScratch::new();
        for (m, n) in [(3, 4), (7, 5), (12, 12), (1, 6)] {
            let costs: Vec<f64> = (0..m * n)
                .map(|k| (((k * 7 + 3) % 11) as f64).sqrt())
                .collect();
            let supplies: Vec<f64> = (0..m).map(|i| (i % 3 + 1) as f64).collect();
            let demands: Vec<f64> = (0..n).map(|j| (j % 4 + 1) as f64).collect();
            let dims = solve_core(&costs, &supplies, &demands, &mut s, None).unwrap();
            assert_spanning_tree(&s.basis, &s.tree, s.tree.len() - dims.n);
            let (tree, potential) = (s.tree.clone(), s.potential.clone());
            relabel(&mut s, dims.n, 0);
            for (x, (kept, fresh)) in tree.iter().zip(&s.tree).enumerate() {
                assert_eq!(kept.depth, fresh.depth, "depth of node {x}");
                assert_eq!(
                    potential[x].to_bits(),
                    s.potential[x].to_bits(),
                    "potential of node {x}"
                );
            }
        }
        assert!(s.stats().pivots > 0, "the instances must pivot");
    }

    #[test]
    fn larger_random_instance_satisfies_duality() {
        // Optimality certificate: complementary slackness via potentials
        // is internal; instead verify against brute force on a small
        // instance (enumerate vertex solutions indirectly by comparing
        // with a known-good greedy lower bound: cost >= total_flow * min
        // cost and <= NW-corner cost).
        let costs: Vec<f64> = (0..16).map(|k| ((k * 7 + 3) % 11) as f64 + 1.0).collect();
        let supplies = [5.0, 3.0, 8.0, 2.0];
        let demands = [4.0, 6.0, 5.0, 3.0];
        let plan = solve_fresh(&costs, &supplies, &demands).unwrap();
        let min_c = costs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_c = costs.iter().cloned().fold(0.0, f64::max);
        assert!(plan.total_cost() >= min_c * plan.total_flow() - 1e-9);
        assert!(plan.total_cost() <= max_c * plan.total_flow() + 1e-9);
        assert!((plan.total_flow() - 18.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_reuse_matches_fresh_across_shapes() {
        // One dirty scratch driven across problems of different shapes
        // must reproduce a fresh scratch exactly (bit-identical plans),
        // regardless of what earlier solves left behind.
        let problems: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = vec![
            (
                vec![8.0, 5.0, 6.0, 15.0, 10.0, 12.0, 3.0, 9.0, 10.0],
                vec![120.0, 80.0, 80.0],
                vec![150.0, 70.0, 60.0],
            ),
            (vec![7.0], vec![2.0], vec![2.0]),
            (vec![1.0, 5.0], vec![4.0], vec![4.0, 6.0]),
            (
                (0..16).map(|k| ((k * 7 + 3) % 11) as f64 + 1.0).collect(),
                vec![5.0, 3.0, 8.0, 2.0],
                vec![4.0, 6.0, 5.0, 3.0],
            ),
            (
                vec![9.0, 1.0, 1.0, 9.0, 5.0, 5.0],
                vec![1.0, 0.0, 1.0],
                vec![1.0, 1.0],
            ),
        ];
        let mut scratch = TransportScratch::new();
        for (costs, a, b) in &problems {
            let fresh = solve_fresh(costs, a, b).unwrap();
            let reused = solve_transportation_with(costs, a, b, &mut scratch).unwrap();
            assert_eq!(fresh, reused);
        }
    }

    #[test]
    fn blands_rule_from_first_pivot_converges_to_optimum() {
        // Regression for the anti-cycling fallback: drive every pivot
        // through Bland's smallest-index rule (grace period zero) on
        // heavily degenerate instances — all marginals equal, tie-heavy
        // costs — where most-negative selection has maximal freedom to
        // cycle. Bland's rule must terminate at the same optimum.
        let mut scratch = TransportScratch::new();

        // 4x4 assignment-like instance, optimum 4 (diagonal).
        let n = 4usize;
        let mut costs = vec![2.0; n * n];
        for i in 0..n {
            costs[i * n + i] = 1.0;
        }
        let ones = vec![1.0; n];
        let dims = solve_core(&costs, &ones, &ones, &mut scratch, Some(0)).unwrap();
        let (cost, flow) = finish(&scratch, &dims, |_, _, _| {});
        assert!((flow - 4.0).abs() < 1e-12);
        assert!((cost - 4.0).abs() < 1e-12, "bland cost {cost}");

        // A degenerate instance with many equal reduced costs: every
        // cost equal, so every basis is optimal and every pivot is a
        // zero-theta tie. Bland must stop rather than loop.
        let flat = vec![3.0; 6 * 6];
        let ones6 = vec![1.0; 6];
        let dims = solve_core(&flat, &ones6, &ones6, &mut scratch, Some(0)).unwrap();
        let (cost, flow) = finish(&scratch, &dims, |_, _, _| {});
        assert!((flow - 6.0).abs() < 1e-12);
        assert!((cost - 18.0).abs() < 1e-12);

        // A 10 x 10 assignment between the points of a 5 x 2 grid and the
        // same points reordered (column j is point 3j mod 10): Euclidean
        // costs tie everywhere, and the zero-cost optimum lies far from
        // the northwest corner's staircase (100 cells, below the
        // least-cost start's threshold), so the tree is re-hung on many
        // degenerate Bland pivots.
        let point = |k: usize| ((k % 5) as f64, (k / 5) as f64);
        let grid: Vec<f64> = (0..10 * 10)
            .map(|k| {
                let ((x0, y0), (x1, y1)) = (point(k / 10), point(k % 10 * 3 % 10));
                ((x0 - x1).powi(2) + (y0 - y1).powi(2)).sqrt()
            })
            .collect();
        let ones10 = vec![1.0; 10];
        let before = scratch.stats().pivots;
        let dims = solve_core(&grid, &ones10, &ones10, &mut scratch, Some(0)).unwrap();
        let (cost, flow) = finish(&scratch, &dims, |_, _, _| {});
        assert!(scratch.stats().pivots - before > 20, "expected many pivots");
        assert_spanning_tree(&scratch.basis, &scratch.tree, 10);
        assert!((flow - 10.0).abs() < 1e-12);
        assert!(cost.abs() < 1e-12, "bland cost {cost}");

        // And the default path agrees on the first instance.
        let plan = solve_fresh(&costs, &ones, &ones).unwrap();
        assert!((plan.total_cost() - 4.0).abs() < 1e-12);
    }
}
