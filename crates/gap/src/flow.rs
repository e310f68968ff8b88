//! Minimum-cost flow on sparse graphs (primal network simplex).
//!
//! Used by the Shmoys–Tardos rounding to extract a minimum-cost integral
//! matching from the fractional LP solution, and by the transportation fast
//! path of the relaxation, where it is almost all of Appro's time.
//!
//! The solver keeps a *strongly feasible* spanning tree: from every node a
//! positive amount of flow can be sent to the root along tree arcs. The
//! leaving arc is chosen by Cunningham's rule (the last blocking arc met
//! when walking the pivot cycle from its apex in its orientation), which
//! keeps the tree strongly feasible and so rules out cycling on the highly
//! degenerate unit-capacity rounding graphs. Entering arcs come from block
//! search pricing over a block of `⌈√arcs⌉` arcs. The initial tree hangs
//! every node off an extra root through a big-M artificial arc; flow the
//! real arcs cannot carry stays on the artificial arcs, which is how a run
//! reports a partial flow.

use mec_num::{approx_eq, approx_zero};

/// Arc state: at its lower bound (zero flow).
const LOWER: i8 = 1;
/// Arc state: at its upper bound (flow = capacity).
const UPPER: i8 = -1;
/// Arc state: in the spanning tree. Zero-capacity arcs are parked here
/// too: pricing weighs a reduced cost by the state, so they never enter.
const TREE: i8 = 0;
/// "No node" in the parent and sibling links.
const NIL: usize = usize::MAX;

/// Handle to an arc added with [`MinCostFlow::add_edge`]; use it to query
/// the final flow with [`MinCostFlow::flow_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArcId(usize);

/// Outcome of a [`MinCostFlow::run`] call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Amount of flow actually routed (≤ the requested amount).
    pub flow: f64,
    /// Total cost of the routed flow.
    pub cost: f64,
}

/// Sparse min-cost-flow network builder/solver.
///
/// # Examples
///
/// ```
/// use mec_gap::flow::MinCostFlow;
///
/// // s=0 -> a=1 -> t=2 with capacity 1, plus a costlier parallel path.
/// let mut f = MinCostFlow::new(3);
/// let cheap = f.add_edge(0, 1, 1.0, 1.0);
/// f.add_edge(1, 2, 1.0, 1.0);
/// f.add_edge(0, 2, 1.0, 10.0);
/// let r = f.run(0, 2, 2.0);
/// assert!((r.flow - 2.0).abs() < 1e-9);
/// assert!((r.cost - 12.0).abs() < 1e-9);
/// assert!((f.flow_on(cheap) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    n: usize,
    // Arcs in insertion order (an `ArcId` indexes these). Readable by the
    // certificate in `crate::verify`.
    pub(crate) source: Vec<usize>,
    pub(crate) target: Vec<usize>,
    pub(crate) cap: Vec<f64>,
    pub(crate) cost: Vec<f64>,
    pub(crate) flow: Vec<f64>,
    /// Node potentials of the last run's final tree: every residual arc
    /// has reduced cost `cost + pi[source] - pi[target]` ≥ 0 (within the
    /// pricing tolerance). Empty before the first run.
    pub(crate) pi: Vec<f64>,
}

impl MinCostFlow {
    /// Creates a network with `n` nodes and no arcs.
    pub fn new(n: usize) -> Self {
        MinCostFlow {
            n,
            source: Vec::new(),
            target: Vec::new(),
            cap: Vec::new(),
            cost: Vec::new(),
            flow: Vec::new(),
            pi: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a directed arc `u -> v` with the given capacity and per-unit
    /// cost; returns a handle for [`MinCostFlow::flow_on`].
    ///
    /// # Panics
    ///
    /// Panics if a node is out of range, the capacity is negative or
    /// non-finite, or the cost is negative or non-finite (non-negative
    /// costs bound every path's cost, which sizes the big-M artificial
    /// arcs).
    pub fn add_edge(&mut self, u: usize, v: usize, cap: f64, cost: f64) -> ArcId {
        assert!(u < self.n && v < self.n, "node out of range");
        assert!(cap.is_finite() && cap >= 0.0, "capacity must be >= 0");
        assert!(cost.is_finite() && cost >= 0.0, "cost must be >= 0");
        self.source.push(u);
        self.target.push(v);
        self.cap.push(cap);
        self.cost.push(cost);
        self.flow.push(0.0);
        ArcId(self.source.len() - 1)
    }

    /// Flow currently on the arc (after [`MinCostFlow::run`]).
    pub fn flow_on(&self, id: ArcId) -> f64 {
        self.flow[id.0]
    }

    /// Routes up to `amount` units of flow from `s` to `t` at minimum cost.
    ///
    /// Returns the amount actually routed and its cost. If the network
    /// cannot carry the full amount, the result's `flow` is the maximum
    /// flow, routed at minimum cost, and is smaller than `amount` (callers
    /// decide whether that is an error). Each run starts from zero flow.
    ///
    /// # Panics
    ///
    /// Panics if `s == t`, a node is out of range, or `amount` is negative.
    pub fn run(&mut self, s: usize, t: usize, amount: f64) -> FlowResult {
        assert!(s < self.n && t < self.n && s != t, "bad terminals");
        assert!(amount >= 0.0, "amount must be >= 0");
        let mut simplex = Simplex::new(self, s, t, amount);
        let pivots = simplex.solve();
        mec_obs::counter_add("gap.flow.pivots", pivots);
        let m = self.source.len();
        self.flow.copy_from_slice(&simplex.flow[..m]);
        simplex.pi.truncate(self.n);
        self.pi = simplex.pi;

        // Report what the real arcs carry: the net inflow at `t`.
        let mut routed = 0.0;
        let mut cost = 0.0;
        for e in 0..m {
            let f = self.flow[e];
            cost += f * self.cost[e];
            if self.target[e] == t {
                routed += f;
            }
            if self.source[e] == t {
                routed -= f;
            }
        }
        let result = FlowResult { flow: routed, cost };
        #[cfg(feature = "verify")]
        {
            let violations = crate::verify::check_flow(self, s, t, amount, result, 1e-9);
            assert!(
                violations.is_empty(),
                "min-cost flow self-certification failed:\n{}",
                violations
                    .iter()
                    .map(|v| format!("  - {v}"))
                    .collect::<Vec<_>>()
                    .join("\n")
            );
        }
        result
    }
}

/// Working state of one network-simplex run: the real arcs followed by one
/// artificial arc per node (arc `m + v` joins node `v` and the root), and
/// the spanning tree over the real nodes plus the root (node `n`), kept as
/// parent links with intrusive child lists.
struct Simplex {
    source: Vec<usize>,
    target: Vec<usize>,
    cap: Vec<f64>,
    cost: Vec<f64>,
    flow: Vec<f64>,
    state: Vec<i8>,
    /// Real arcs, the only ones priced: an artificial arc that left the
    /// tree never re-enters.
    real: usize,
    parent: Vec<usize>,
    /// Tree arc joining a node to its parent.
    pred: Vec<usize>,
    /// Whether `pred[v]` is directed `v -> parent[v]`.
    up: Vec<bool>,
    depth: Vec<usize>,
    pi: Vec<f64>,
    first_child: Vec<usize>,
    next_sib: Vec<usize>,
    prev_sib: Vec<usize>,
    block: usize,
    next_arc: usize,
    /// Reduced costs above `-eps_cost` count as non-negative.
    eps_cost: f64,
    /// Flows within `eps_flow` of a bound are snapped onto it, so the
    /// degenerate ties Cunningham's rule breaks stay exact.
    eps_flow: f64,
    /// Scratch stack for the subtree walks.
    stack: Vec<usize>,
}

impl Simplex {
    fn new(net: &MinCostFlow, s: usize, t: usize, amount: f64) -> Self {
        let n = net.n;
        let m = net.source.len();
        let root = n;
        let nodes = n + 1;
        let max_cost = net.cost.iter().fold(0.0, |a: f64, &c| a.max(c));
        let max_cap = net.cap.iter().fold(amount, |a: f64, &c| a.max(c));
        // A simple path has fewer than `nodes` arcs, each costing at most
        // `max_cost`: routing a unit over real arcs always beats leaving it
        // on an artificial arc, and leaving flow at an intermediate node
        // costs an extra artificial arc.
        let big_m = (max_cost + 1.0) * nodes as f64;

        let mut sp = Simplex {
            source: net.source.clone(),
            target: net.target.clone(),
            cap: net.cap.clone(),
            cost: net.cost.clone(),
            flow: vec![0.0; m + n],
            state: net
                .cap
                .iter()
                .map(|&c| if approx_zero(c, 0.0) { TREE } else { LOWER })
                .collect(),
            real: m,
            parent: vec![root; nodes],
            pred: (m..m + nodes).collect(),
            up: vec![true; nodes],
            depth: vec![1; nodes],
            pi: vec![0.0; nodes],
            first_child: vec![NIL; nodes],
            next_sib: vec![NIL; nodes],
            prev_sib: vec![NIL; nodes],
            block: ((m as f64).sqrt().ceil() as usize).max(10),
            next_arc: 0,
            // A potential sums at most `nodes` terms of magnitude at most
            // `big_m`; this bounds its rounding error.
            eps_cost: f64::EPSILON * big_m * nodes as f64,
            eps_flow: f64::EPSILON * max_cap * nodes as f64,
            stack: Vec::new(),
        };
        // Strongly feasible start: `s -> root` carries the supply at cost 0,
        // `root -> t` the demand at big-M, and every other node (`t` too
        // when there is no demand) hangs off the root by an empty big-M arc
        // directed towards it.
        for v in 0..n {
            let (from, to, cost, flow) = if v == s {
                (v, root, 0.0, amount)
            } else if v == t && amount > 0.0 {
                (root, v, big_m, amount)
            } else {
                (v, root, big_m, 0.0)
            };
            sp.source.push(from);
            sp.target.push(to);
            sp.cap.push(f64::INFINITY);
            sp.cost.push(cost);
            sp.flow[m + v] = flow;
            sp.state.push(TREE);
            sp.up[v] = from == v;
            sp.pi[v] = if from == v { -cost } else { cost };
            sp.link(v, root);
        }
        sp.parent[root] = NIL;
        sp.pred[root] = NIL;
        sp.depth[root] = 0;
        sp
    }

    /// Pivots until no arc prices out; returns the pivot count.
    fn solve(&mut self) -> u64 {
        let mut pivots = 0;
        while let Some(entering) = self.find_entering() {
            self.pivot(entering);
            pivots += 1;
        }
        pivots
    }

    fn reduced_cost(&self, e: usize) -> f64 {
        self.cost[e] + self.pi[self.source[e]] - self.pi[self.target[e]]
    }

    /// Block search: scans the real arcs cyclically from where the last
    /// search stopped and returns the most violating arc of the first
    /// block that has one.
    fn find_entering(&mut self) -> Option<usize> {
        let m = self.real;
        let mut best = None;
        let mut min = -self.eps_cost;
        let mut left = self.block;
        let mut e = self.next_arc;
        for _ in 0..m {
            let c = f64::from(self.state[e]) * self.reduced_cost(e);
            if c < min {
                min = c;
                best = Some(e);
            }
            e = if e + 1 == m { 0 } else { e + 1 };
            left -= 1;
            if left == 0 {
                if best.is_some() {
                    break;
                }
                left = self.block;
            }
        }
        self.next_arc = e;
        best
    }

    /// Pushes flow around the cycle `entering` closes and exchanges it for
    /// the leaving arc.
    fn pivot(&mut self, entering: usize) {
        let (mut u, mut v) = (self.source[entering], self.target[entering]);
        while u != v {
            if self.depth[u] >= self.depth[v] {
                u = self.parent[u];
            } else {
                v = self.parent[v];
            }
        }
        let join = u;

        // The cycle runs `first -> second` over the entering arc, then
        // from `second` up to the apex and down again to `first`.
        let (first, second) = if self.state[entering] == LOWER {
            (self.source[entering], self.target[entering])
        } else {
            (self.target[entering], self.source[entering])
        };
        // Cunningham's rule: the last blocking arc in cycle order from the
        // apex, which runs down the `first` side, over the entering arc and
        // up the `second` side. So ties go to the `second` side's arc
        // nearest the apex, then to the entering arc, then to the `first`
        // side's arc nearest `first`.
        let mut delta = self.cap[entering];
        let mut leaving: Option<(usize, bool)> = None; // (node below the arc, on first side)
        let mut out_at_upper = false;
        let mut w = first;
        while w != join {
            let e = self.pred[w];
            // Flow runs parent -> w here: it grows on a downward arc.
            let room = if self.up[w] {
                self.flow[e]
            } else {
                self.cap[e] - self.flow[e]
            };
            if room < delta {
                delta = room;
                leaving = Some((w, true));
                out_at_upper = !self.up[w];
            }
            w = self.parent[w];
        }
        let mut w = second;
        while w != join {
            let e = self.pred[w];
            // Flow runs w -> parent here: it grows on an upward arc.
            let room = if self.up[w] {
                self.cap[e] - self.flow[e]
            } else {
                self.flow[e]
            };
            if room <= delta {
                delta = room;
                leaving = Some((w, false));
                out_at_upper = self.up[w];
            }
            w = self.parent[w];
        }
        let delta = delta.max(0.0);

        if delta > 0.0 {
            let val = f64::from(self.state[entering]) * delta;
            self.flow[entering] += val;
            let mut w = self.source[entering];
            while w != join {
                let e = self.pred[w];
                self.flow[e] += if self.up[w] { -val } else { val };
                self.snap(e);
                w = self.parent[w];
            }
            let mut w = self.target[entering];
            while w != join {
                let e = self.pred[w];
                self.flow[e] += if self.up[w] { val } else { -val };
                self.snap(e);
                w = self.parent[w];
            }
        }

        let Some((u_out, on_first)) = leaving else {
            // The entering arc blocks itself: it moves to its other bound.
            let upper = self.state[entering] == LOWER;
            self.state[entering] = if upper { UPPER } else { LOWER };
            self.flow[entering] = if upper { self.cap[entering] } else { 0.0 };
            return;
        };
        let out = self.pred[u_out];
        self.flow[out] = if out_at_upper { self.cap[out] } else { 0.0 };
        self.state[out] = if out_at_upper { UPPER } else { LOWER };
        self.state[entering] = TREE;
        // The entering arc's endpoint on `u_out`'s side becomes the root of
        // the subtree that is cut off and re-hung.
        let (u_in, v_in) = if on_first {
            (first, second)
        } else {
            (second, first)
        };
        self.rehang(u_in, v_in, entering, u_out);
    }

    /// Snaps a flow within `eps_flow` of one of its bounds onto it.
    fn snap(&mut self, e: usize) {
        if approx_zero(self.flow[e], self.eps_flow) {
            self.flow[e] = 0.0;
        } else if approx_eq(self.flow[e], self.cap[e], self.eps_flow) {
            self.flow[e] = self.cap[e];
        }
    }

    /// Removes tree arc `pred[u_out]`, reverses the parent links on the
    /// stem `u_in -> … -> u_out`, hangs `u_in` under `v_in` through
    /// `entering`, and recomputes potentials and depths below `u_in`.
    fn rehang(&mut self, u_in: usize, v_in: usize, entering: usize, u_out: usize) {
        let mut node = u_in;
        let mut new_parent = v_in;
        let mut new_pred = entering;
        let mut new_up = self.source[entering] == u_in;
        loop {
            let (old_parent, old_pred, old_up) =
                (self.parent[node], self.pred[node], self.up[node]);
            self.unlink(node);
            self.link(node, new_parent);
            self.pred[node] = new_pred;
            self.up[node] = new_up;
            if node == u_out {
                break;
            }
            new_parent = node;
            new_pred = old_pred;
            new_up = !old_up;
            node = old_parent;
        }

        self.stack.push(u_in);
        while let Some(w) = self.stack.pop() {
            let (p, e) = (self.parent[w], self.pred[w]);
            self.pi[w] = if self.up[w] {
                self.pi[p] - self.cost[e]
            } else {
                self.pi[p] + self.cost[e]
            };
            self.depth[w] = self.depth[p] + 1;
            let mut c = self.first_child[w];
            while c != NIL {
                self.stack.push(c);
                c = self.next_sib[c];
            }
        }
    }

    fn link(&mut self, child: usize, parent: usize) {
        self.parent[child] = parent;
        let head = self.first_child[parent];
        self.next_sib[child] = head;
        self.prev_sib[child] = NIL;
        if head != NIL {
            self.prev_sib[head] = child;
        }
        self.first_child[parent] = child;
    }

    fn unlink(&mut self, child: usize) {
        let (prev, next) = (self.prev_sib[child], self.next_sib[child]);
        if prev == NIL {
            self.first_child[self.parent[child]] = next;
        } else {
            self.next_sib[prev] = next;
        }
        if next != NIL {
            self.prev_sib[next] = prev;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mec_num::assert_approx_eq;

    #[test]
    fn single_path() {
        let mut f = MinCostFlow::new(2);
        f.add_edge(0, 1, 5.0, 2.0);
        let r = f.run(0, 1, 3.0);
        assert_approx_eq!(r.flow, 3.0, 1e-12);
        assert_approx_eq!(r.cost, 6.0, 1e-12);
    }

    #[test]
    fn prefers_cheaper_path() {
        let mut f = MinCostFlow::new(4);
        let cheap1 = f.add_edge(0, 1, 1.0, 1.0);
        f.add_edge(1, 3, 1.0, 1.0);
        let exp1 = f.add_edge(0, 2, 1.0, 5.0);
        f.add_edge(2, 3, 1.0, 5.0);
        let r = f.run(0, 3, 1.0);
        assert_approx_eq!(r.cost, 2.0, 1e-12);
        assert_approx_eq!(f.flow_on(cheap1), 1.0, 1e-12);
        assert_approx_eq!(f.flow_on(exp1), 0.0, 1e-12);
    }

    #[test]
    fn splits_when_capacity_binds() {
        let mut f = MinCostFlow::new(4);
        f.add_edge(0, 1, 1.0, 1.0);
        f.add_edge(1, 3, 1.0, 1.0);
        f.add_edge(0, 2, 1.0, 5.0);
        f.add_edge(2, 3, 1.0, 5.0);
        let r = f.run(0, 3, 2.0);
        assert_approx_eq!(r.flow, 2.0, 1e-12);
        assert_approx_eq!(r.cost, 12.0, 1e-12);
    }

    #[test]
    fn partial_flow_when_capacity_insufficient() {
        let mut f = MinCostFlow::new(2);
        f.add_edge(0, 1, 1.0, 1.0);
        let r = f.run(0, 1, 5.0);
        assert_approx_eq!(r.flow, 1.0, 1e-12);
    }

    #[test]
    fn rerouting_via_residual_arcs() {
        // The optimum needs the a->b arc although the cheapest single path
        // s-a-b-t saturates both cheap arcs: {s-a-t, s-b-t} at cost 22.
        let mut f = MinCostFlow::new(4);
        let (s, a, b, t) = (0, 1, 2, 3);
        f.add_edge(s, a, 1.0, 1.0);
        f.add_edge(a, t, 1.0, 10.0);
        f.add_edge(s, b, 1.0, 10.0);
        f.add_edge(b, t, 1.0, 1.0);
        f.add_edge(a, b, 1.0, 0.0);
        let r = f.run(s, t, 2.0);
        assert_approx_eq!(r.flow, 2.0, 1e-12);
        assert!((r.cost - 22.0).abs() < 1e-9);
    }

    #[test]
    fn fractional_capacities() {
        let mut f = MinCostFlow::new(3);
        f.add_edge(0, 1, 0.5, 1.0);
        f.add_edge(0, 1, 0.75, 2.0);
        f.add_edge(1, 2, 2.0, 0.0);
        let r = f.run(0, 2, 1.0);
        assert!((r.flow - 1.0).abs() < 1e-9);
        assert!((r.cost - (0.5 + 1.0)).abs() < 1e-9);
    }

    #[test]
    fn disconnected_routes_zero() {
        let mut f = MinCostFlow::new(3);
        f.add_edge(0, 1, 1.0, 1.0);
        let r = f.run(0, 2, 1.0);
        assert_approx_eq!(r.flow, 0.0, 1e-12);
        assert_approx_eq!(r.cost, 0.0, 1e-12);
    }

    #[test]
    fn larger_random_instance_matches_greedy_lower_bound() {
        // Bipartite 6x6 unit assignment: the flow must return a perfect
        // matching whose cost is >= the sum of row minima and equal to the
        // brute-force optimum.
        let costs = [
            [4.0, 1.0, 3.0, 2.0, 9.0, 5.0],
            [2.0, 0.5, 6.0, 3.0, 1.0, 8.0],
            [7.0, 2.0, 2.5, 1.0, 4.0, 3.0],
            [1.5, 6.0, 4.0, 2.0, 3.0, 2.0],
            [3.0, 3.0, 1.0, 5.0, 2.0, 4.0],
            [5.0, 4.0, 2.0, 3.0, 6.0, 1.0],
        ];
        let n = 6;
        let (s, t) = (2 * n, 2 * n + 1);
        let mut f = MinCostFlow::new(2 * n + 2);
        #[allow(clippy::needless_range_loop)] // i, j are bipartite node ids
        for i in 0..n {
            f.add_edge(s, i, 1.0, 0.0);
            f.add_edge(n + i, t, 1.0, 0.0);
            for j in 0..n {
                f.add_edge(i, n + j, 1.0, costs[i][j]);
            }
        }
        let r = f.run(s, t, n as f64);
        assert!((r.flow - n as f64).abs() < 1e-9);
        let lb: f64 = costs
            .iter()
            .map(|row| row.iter().cloned().fold(f64::INFINITY, f64::min))
            .sum();
        assert!(r.cost >= lb - 1e-9);
        // Known optimum by inspection/brute force: check against exhaustive.
        let mut best = f64::INFINITY;
        let mut perm = [0usize; 6];
        fn go(
            k: usize,
            used: &mut u32,
            perm: &mut [usize; 6],
            costs: &[[f64; 6]; 6],
            best: &mut f64,
        ) {
            if k == 6 {
                let c: f64 = (0..6).map(|i| costs[i][perm[i]]).sum();
                if c < *best {
                    *best = c;
                }
                return;
            }
            for j in 0..6 {
                if *used & (1 << j) == 0 {
                    *used |= 1 << j;
                    perm[k] = j;
                    go(k + 1, used, perm, costs, best);
                    *used &= !(1 << j);
                }
            }
        }
        let mut used = 0u32;
        go(0, &mut used, &mut perm, &costs, &mut best);
        assert!(
            (r.cost - best).abs() < 1e-9,
            "flow {} vs brute {}",
            r.cost,
            best
        );
    }

    /// Every tree arc can pass a positive amount of flow towards the root:
    /// the invariant Cunningham's rule maintains and that rules out cycling.
    fn strongly_feasible(sp: &Simplex) -> bool {
        (0..sp.parent.len())
            .filter(|&v| sp.parent[v] != NIL)
            .all(|v| {
                let e = sp.pred[v];
                if sp.up[v] {
                    sp.flow[e] < sp.cap[e]
                } else {
                    sp.flow[e] > 0.0
                }
            })
    }

    #[test]
    fn degenerate_ties_keep_the_tree_strongly_feasible() {
        // A unit assignment where every pair costs the same: nearly every
        // pivot is degenerate, and which blocking arc leaves decides whether
        // the tree stays strongly feasible. Without Cunningham's rule, a
        // zero-flow arc ends up pointing away from the root, and the
        // termination argument against cycling is lost.
        let n = 6;
        let (s, t) = (2 * n, 2 * n + 1);
        let mut f = MinCostFlow::new(2 * n + 2);
        for i in 0..n {
            f.add_edge(s, i, 1.0, 0.0);
            f.add_edge(n + i, t, 1.0, 0.0);
            for j in 0..n {
                f.add_edge(i, n + j, 1.0, if (i + j) % 3 == 0 { 0.0 } else { 1.0 });
            }
        }
        let mut sp = Simplex::new(&f, s, t, n as f64);
        assert!(strongly_feasible(&sp));
        let mut pivots = 0;
        while let Some(e) = sp.find_entering() {
            sp.pivot(e);
            pivots += 1;
            assert!(
                strongly_feasible(&sp),
                "pivot {pivots} broke strong feasibility"
            );
        }
        let r = f.run(s, t, n as f64);
        assert_approx_eq!(r.flow, n as f64, 1e-12);
        // Items i and i + 3 share the two zero-cost slots j ≡ -i (mod 3),
        // so a zero-cost perfect matching exists.
        assert_approx_eq!(r.cost, 0.0, 1e-12);
    }

    #[test]
    fn infeasible_amount_routes_the_max_flow_at_min_cost() {
        // Only 1.5 units can reach t (a->t 1, b->t 0.5); the cheap dead end
        // s->d must stay empty rather than absorb the unroutable rest.
        let (s, a, b, d, t) = (0, 1, 2, 3, 4);
        let mut f = MinCostFlow::new(5);
        f.add_edge(s, a, 2.0, 0.0);
        f.add_edge(s, b, 1.0, 3.0);
        let dead_end = f.add_edge(s, d, 2.0, 0.0);
        f.add_edge(a, b, 1.0, 0.0);
        let a_t = f.add_edge(a, t, 1.0, 5.0);
        let b_t = f.add_edge(b, t, 0.5, 1.0);
        let r = f.run(s, t, 3.0);
        assert_approx_eq!(r.flow, 1.5, 1e-12);
        // b's half unit comes through a (cost 0 + 0) rather than s->b (3).
        assert_approx_eq!(r.cost, 5.0 + 0.5, 1e-12);
        assert_approx_eq!(f.flow_on(a_t), 1.0, 1e-12);
        assert_approx_eq!(f.flow_on(b_t), 0.5, 1e-12);
        assert_approx_eq!(f.flow_on(dead_end), 0.0, 1e-12);
        assert!(crate::verify::check_flow(&f, s, t, 3.0, r, 1e-9).is_empty());
    }

    #[test]
    #[should_panic(expected = "cost must be >= 0")]
    fn rejects_negative_costs() {
        let mut f = MinCostFlow::new(2);
        f.add_edge(0, 1, 1.0, -1.0);
    }
}
