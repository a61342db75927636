//! Deterministic min-hop routing.
//!
//! The paper assumes decentralized mesh routing that BASS cannot control;
//! BASS only *observes* paths with traceroute. We model the routing layer
//! as shortest-path (min hop count) with deterministic tie-breaking by
//! node id, which is stable across runs — exactly what an observing
//! orchestrator needs.
//!
//! BASS reads only the routes from nodes that host components, so a
//! source's row is one BFS run on its first read. The table is a pure
//! function of the usable-link set: a row built late equals the row a
//! repair would have left.
//!
//! # Repair instead of recomputation
//!
//! A row's BFS visits each level in *path order* (by parent's position,
//! then rank): it records the lexicographically smallest shortest path
//! to each node, whose parent is its smallest-path neighbour one level
//! up. So `RoutingTable::repair` is exact. After a removal, a node whose
//! route avoids it keeps the route (it still exists, nothing got
//! shorter): only subtrees below removed tree edges are re-settled.
//! After an addition, only nodes whose new smallest path uses it change.
//! Rows not built yet are left for their first read.

use crate::topology::{LinkId, NodeId, Topology};
use std::sync::{Mutex, OnceLock};

/// Parent-array entry of a destination the source cannot reach.
const UNREACHABLE: u32 = u32::MAX;

/// How many row buffers a table allocates at a time.
const ROW_BATCH: usize = 64;

/// Every link of the topology in rank space: a CSR of `(neighbour rank,
/// link)` per node, ascending by neighbour rank, each link's endpoint
/// ranks, and which links routes may use.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Adjacency {
    off: Vec<u32>,
    nbrs: Vec<(u32, u32)>,
    ends: Vec<(u32, u32)>,
    usable: Vec<bool>,
    /// Per node, in its `off` segment, the neighbour ranks, usable ones
    /// first (`up_span` bounds them), each part ascending: a per-entry
    /// flag test slows the BFS.
    up: Vec<u32>,
    up_span: Vec<[u32; 2]>,
}

impl Adjacency {
    /// The node of rank `v`'s `(neighbour, link)` pairs, ascending.
    fn nbrs(&self, v: u32) -> &[(u32, u32)] {
        &self.nbrs[self.off[v as usize] as usize..self.off[v as usize + 1] as usize]
    }

    /// The usable neighbours of the node of rank `v`, ascending by rank.
    fn usable_nbrs(&self, v: u32) -> &[u32] {
        let [at, end] = self.up_span[v as usize];
        &self.up[at as usize..end as usize]
    }

    /// Re-lays the node of rank `v`'s segment of `up` from the flags.
    fn relay(&mut self, v: u32) {
        let (at, end) = (self.off[v as usize] as usize, self.off[v as usize + 1] as usize);
        let Adjacency { nbrs, usable, up, up_span, .. } = self;
        let (seg, usable) = (&nbrs[at..end], &*usable);
        let takes = |want: bool| seg.iter().filter(move |&&(_, l)| usable[l as usize] == want);
        for (slot, &(u, _)) in up[at..end].iter_mut().zip(takes(true).chain(takes(false))) {
            *slot = u;
        }
        up_span[v as usize] = [at as u32, (at + takes(true).count()) as u32];
    }

    /// Writes the parent row of the source of rank `s`: one BFS over the
    /// usable links, first-found (lowest-rank) parent, with `queue` as
    /// its scratch.
    fn bfs(&self, s: u32, row: &mut [u32], queue: &mut Vec<u32>) {
        row.fill(UNREACHABLE);
        queue.clear();
        row[s as usize] = s;
        queue.push(s);
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for &v in self.usable_nbrs(u) {
                if row[v as usize] == UNREACHABLE {
                    row[v as usize] = u;
                    queue.push(v);
                }
            }
        }
    }
}

/// All-pairs min-hop routes over a [`Topology`], kept as one BFS parent
/// array per source, built on its first read: a path is walked out of
/// the array when asked for and never stored. Arrays are indexed by a
/// node's *rank* (its position in ascending id order), so the table's
/// size depends on how many nodes there are, not on how large their
/// ids are. Two tables are equal when they route alike, whichever rows
/// each has built.
///
/// # Examples
///
/// ```
/// use bass_mesh::routing::RoutingTable;
/// use bass_mesh::topology::{NodeId, Topology};
///
/// let mut topo = Topology::new();
/// for i in 0..3 {
///     topo.add_node(NodeId(i)).unwrap();
/// }
/// topo.add_link(NodeId(0), NodeId(1)).unwrap();
/// topo.add_link(NodeId(1), NodeId(2)).unwrap();
/// let routes = RoutingTable::compute(&topo);
/// assert_eq!(
///     routes.path(NodeId(0), NodeId(2)).unwrap(),
///     [NodeId(0), NodeId(1), NodeId(2)]
/// );
/// ```
#[derive(Debug)]
pub struct RoutingTable {
    /// Node ids in ascending order; a node's index here is its rank.
    ids: Vec<NodeId>,
    /// The links, and which of them routes may use.
    graph: Adjacency,
    /// By source rank, once read: `row[d]` = rank of the hop before `d`
    /// on the route from the source (the source itself when `d` is it),
    /// or [`UNREACHABLE`].
    rows: Vec<OnceLock<Box<[u32]>>>,
    /// Row buffers allocated back to back, [`ROW_BATCH`] at a time, for
    /// the next rows built, and the BFS queue. A buffer allocated per row
    /// lands between the path vectors of the flows routed over it,
    /// scattering them: on mesh1000-churn that slowed the queue pass
    /// over them by 14–37 %.
    spare: Mutex<Spare>,
}

/// A table's row buffers not yet handed out, and its BFS queue.
#[derive(Debug, Default)]
struct Spare {
    rows: Vec<Box<[u32]>>,
    queue: Vec<u32>,
}

impl Clone for RoutingTable {
    fn clone(&self) -> Self {
        let (ids, graph, rows) = (self.ids.clone(), self.graph.clone(), self.rows.clone());
        RoutingTable { ids, graph, rows, spare: Mutex::default() }
    }
}

impl PartialEq for RoutingTable {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids
            && self.graph == other.graph
            && (0..self.ids.len() as u32).all(|s| self.row(s) == other.row(s))
    }
}

impl Eq for RoutingTable {}

impl RoutingTable {
    /// The routes over every link. Ties are broken toward lower node
    /// ids, so the table is deterministic.
    pub fn compute(topo: &Topology) -> Self {
        Self::compute_filtered(topo, |_| true)
    }

    /// [`compute`](Self::compute) restricted to links for which `usable`
    /// returns true — routes never traverse a filtered-out link. Used by
    /// the mesh to route around faulted links and crashed nodes;
    /// destinations that become unreachable simply have no route. Builds
    /// the adjacency only: each row is built on its first read.
    pub fn compute_filtered(topo: &Topology, mut usable: impl FnMut(LinkId) -> bool) -> Self {
        let ids: Vec<NodeId> = topo.nodes().collect();
        let n = ids.len();
        let rank = |node: NodeId| ids.binary_search(&node).map_or(UNREACHABLE, |r| r as u32);
        // `neighbor_links` ascends by id, hence by rank, so the
        // first-found BFS parent is the lowest-id one.
        let mut off = vec![0];
        let mut nbrs = Vec::with_capacity(2 * topo.link_count());
        for &node in &ids {
            nbrs.extend(topo.neighbor_links(node).iter().map(|&(nb, lid)| (rank(nb), lid.0 as u32)));
            off.push(nbrs.len() as u32);
        }
        let mut graph = Adjacency {
            ends: topo.links().map(|(_, l)| (rank(l.a), rank(l.b))).collect(),
            usable: topo.links().map(|(lid, _)| usable(lid)).collect(),
            up: vec![0; nbrs.len()],
            up_span: vec![[0; 2]; n],
            off,
            nbrs,
        };
        for v in 0..n as u32 {
            graph.relay(v);
        }
        let rows = (0..n).map(|_| OnceLock::new()).collect();
        RoutingTable { ids, graph, rows, spare: Mutex::default() }
    }

    /// The node's rank: its position among the topology's nodes in
    /// ascending id order, the index of every dense per-node view.
    pub fn rank(&self, node: NodeId) -> Option<u32> {
        self.ids.binary_search(&node).ok().map(|r| r as u32)
    }

    /// The parent row of the source of rank `s`, built on first read.
    fn row(&self, s: u32) -> &[u32] {
        self.rows[s as usize].get_or_init(|| {
            let n = self.ids.len();
            let mut spare = self.spare.lock().expect("no row build panicked");
            let Spare { rows, queue } = &mut *spare;
            if rows.is_empty() {
                // Zeroed, so not written until each row is built: a
                // buffer filled at batch time is cold by then.
                rows.extend((0..ROW_BATCH.min(n)).map(|_| vec![0; n].into_boxed_slice()));
            }
            let mut row = rows.pop().expect("just refilled");
            self.graph.bfs(s, &mut row, queue);
            row
        })
    }

    /// The node sequence from `src` to `dst` (inclusive), or `None` when
    /// unreachable: the hop walk, collected and reversed. This is the
    /// simulator's "traceroute".
    pub fn path(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path: Vec<NodeId> = self.hops(src, dst)?.map(|(_, v, _)| v).collect();
        path.push(src);
        path.reverse();
        Some(path)
    }

    /// The hops of the route from `src` to `dst` as `(sender, receiver,
    /// link)`, walked in place from `dst` back to `src` (none when `src
    /// == dst`), or `None` when unreachable.
    pub(crate) fn hops(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> Option<impl Iterator<Item = (NodeId, NodeId, LinkId)> + '_> {
        let (s, d) = (self.rank(src)?, self.rank(dst)?);
        let ids = &self.ids;
        Some(self.walk(s, d)?.map(|(u, v, lid)| (ids[u as usize], ids[v as usize], lid)))
    }

    /// [`hops`](Self::hops) from rank `s` to rank `d`, in rank space.
    fn walk(&self, s: u32, d: u32) -> Option<impl Iterator<Item = (u32, u32, LinkId)> + '_> {
        let row = self.row(s);
        if row[d as usize] == UNREACHABLE {
            return None;
        }
        let mut v = d;
        Some(std::iter::from_fn(move || {
            if v == s {
                return None;
            }
            let u = row[v as usize];
            let hop = self.graph.nbrs(u);
            let link = LinkId(hop[hop.partition_point(|&(w, _)| w < v)].1 as usize);
            Some((u, std::mem::replace(&mut v, u), link))
        }))
    }

    /// The route from rank `s` to rank `d`, or `None` when unreachable:
    /// the links it crosses and the ranks of the nodes it leaves (all but
    /// `d`), both in path order and sized exactly.
    pub(crate) fn route(&self, s: u32, d: u32) -> Option<(Vec<LinkId>, Vec<u32>)> {
        let hops = depth(self.row(s), d).checked_add(1)? as usize - 1;
        let (mut links, mut egress) = (Vec::with_capacity(hops), Vec::with_capacity(hops));
        for (u, _, link) in self.walk(s, d)? {
            links.push(link);
            egress.push(u);
        }
        links.reverse();
        egress.reverse();
        Some((links, egress))
    }

    /// Sets `links`, whose usability just flipped, to `up` and repairs
    /// every built row in place, marking each changed one in `changed`;
    /// false when there were none. A removal re-settles each subtree
    /// below a removed tree edge; an addition grows the subtree that now
    /// hangs off an endpoint it gives a shorter route, or an equally
    /// short one smaller in path order. Several links must share an
    /// endpoint.
    pub(crate) fn repair(&mut self, links: &[LinkId], up: bool, changed: &mut [bool]) -> bool {
        if links.is_empty() {
            return false;
        }
        for lid in links {
            self.graph.usable[lid.0] = up;
        }
        let ends: Vec<(u32, u32)> = links.iter().map(|lid| self.graph.ends[lid.0]).collect();
        for &(a, b) in &ends {
            self.graph.relay(a);
            self.graph.relay(b);
        }
        let mut scratch = Scratch::default();
        for (s, row) in self.rows.iter_mut().enumerate() {
            let Some(row) = row.get_mut() else { continue };
            scratch.seeds.clear();
            if up {
                for (x, y) in ends.iter().flat_map(|&(a, b)| [(a, b), (b, a)]) {
                    let d = depth(row, x);
                    if d != UNREACHABLE {
                        scratch.seeds.push((d + 1, y, x));
                    }
                }
            } else if !clear_subtrees(row, &ends, &self.graph, &mut scratch) {
                continue;
            }
            changed[s] |= settle(row, &self.graph, &mut scratch, !up) || !up;
        }
        true
    }
}

/// Reusable lists of one repair: `(level, node, parent)` seeds offering a
/// parent `level - 1` deep, the level just settled (in path order), the next.
#[derive(Default)]
struct Scratch {
    seeds: Vec<(u32, u32, u32)>,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

/// Hops from the row's source to `v`, or [`UNREACHABLE`].
fn depth(row: &[u32], mut v: u32) -> u32 {
    if row[v as usize] == UNREACHABLE {
        return UNREACHABLE;
    }
    let mut d = 0;
    while row[v as usize] != v {
        v = row[v as usize];
        d += 1;
    }
    d
}

/// Compares the routes to `a` and `b`, equally deep, in path order: the
/// ranks just below their deepest common ancestor decide.
fn path_cmp(row: &[u32], mut a: u32, mut b: u32) -> std::cmp::Ordering {
    while row[a as usize] != row[b as usize] {
        a = row[a as usize];
        b = row[b as usize];
    }
    a.cmp(&b)
}

/// Whether `p`, `level - 1` deep, beats `v`'s own parent: it gives a
/// shorter route, or an equally short one smaller in path order.
fn adopts(row: &[u32], v: u32, p: u32, level: u32) -> bool {
    let d = depth(row, v);
    d > level || (d == level && path_cmp(row, p, row[v as usize]).is_lt())
}

/// Offers `v` the best parent the row has for it as it stands: its
/// shallowest reached usable neighbour, the smallest in path order
/// among equals.
fn seed(row: &[u32], v: u32, graph: &Adjacency, seeds: &mut Vec<(u32, u32, u32)>) {
    let mut best: Option<(u32, u32, u32)> = None;
    for &u in graph.usable_nbrs(v) {
        let level = depth(row, u).saturating_add(1);
        if level != UNREACHABLE
            && best.is_none_or(|(l, _, p)| level < l || (level == l && path_cmp(row, u, p).is_lt()))
        {
            best = Some((level, v, u));
        }
    }
    seeds.extend(best);
}

/// Clears every subtree below a tree edge between the endpoint ranks in
/// `ends` and seeds each cleared node; true when any was. A node's
/// children are its neighbours whose parent it is, over every link: a
/// tree edge that just became unusable still leads to its child.
fn clear_subtrees(row: &mut [u32], ends: &[(u32, u32)], graph: &Adjacency, scratch: &mut Scratch) -> bool {
    let cleared = &mut scratch.next;
    cleared.clear();
    for &(a, b) in ends {
        let child = if row[b as usize] == a {
            b
        } else if row[a as usize] == b {
            a
        } else {
            continue;
        };
        let mut i = cleared.len();
        row[child as usize] = UNREACHABLE;
        cleared.push(child);
        while let Some(&u) = cleared.get(i) {
            i += 1;
            for &(w, _) in graph.nbrs(u) {
                if row[w as usize] == u {
                    row[w as usize] = UNREACHABLE;
                    cleared.push(w);
                }
            }
        }
    }
    scratch.seeds.clear();
    for &v in cleared.iter() {
        seed(row, v, graph, &mut scratch.seeds);
    }
    !cleared.is_empty()
}

/// Re-settles a row level by level from the scratch's seeds, as a BFS
/// would: each level's changed nodes are kept in path order, so the
/// first of them to reach a neighbour is its smallest-path parent among
/// them. With `cut` only cleared nodes change, at the first reach; else
/// a reached node takes the reaching one if it [`adopts`] it or it is
/// already its parent (whose route just moved). Seeds follow the
/// level's reaches. True when any entry changed.
fn settle(row: &mut [u32], graph: &Adjacency, scratch: &mut Scratch, cut: bool) -> bool {
    let Scratch { seeds, frontier, next } = scratch;
    seeds.sort_unstable();
    let (mut i, mut level, mut changed) = (0, 0, false);
    frontier.clear();
    loop {
        if frontier.is_empty() {
            let Some(&(l, _, _)) = seeds.get(i) else { break };
            level = l;
        }
        next.clear();
        for &u in frontier.iter() {
            for &w in graph.usable_nbrs(u) {
                let joins = if cut {
                    row[w as usize] == UNREACHABLE
                } else {
                    row[w as usize] == u || adopts(row, w, u, level)
                };
                if joins {
                    row[w as usize] = u;
                    next.push(w);
                }
            }
        }
        while let Some(&(_, v, p)) = seeds.get(i).filter(|s| s.0 <= level) {
            i += 1;
            if adopts(row, v, p, level) {
                row[v as usize] = p;
                next.push(v);
            }
        }
        next.sort_unstable_by(|&a, &b| path_cmp(row, a, b));
        next.dedup();
        changed |= !next.is_empty();
        std::mem::swap(frontier, next);
        level += 1;
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routes::Routes;
    use crate::Mesh;
    use bass_util::rng::SimRng;
    use bass_util::units::Bandwidth;

    impl RoutingTable {
        /// How many rows have been built.
        fn built(&self) -> usize {
            self.rows.iter().filter(|row| row.get().is_some()).count()
        }
    }

    /// The eager table `compute_filtered` built before rows were built on
    /// first read: one BFS per source over the usable links, all at once,
    /// `parent[s * n + d]` as a row's `row[d]`.
    fn eager_rows(topo: &Topology, usable: impl Fn(LinkId) -> bool) -> Vec<u32> {
        let ids: Vec<NodeId> = topo.nodes().collect();
        let n = ids.len();
        let rank = |node: NodeId| ids.binary_search(&node).unwrap() as u32;
        let (mut parent, mut queue) = (vec![UNREACHABLE; n * n], Vec::with_capacity(n));
        for (s, row) in parent.chunks_exact_mut(n).enumerate() {
            row[s] = s as u32;
            queue.clear();
            queue.push(ids[s]);
            let mut head = 0;
            while let Some(&u) = queue.get(head) {
                head += 1;
                for &(v, lid) in topo.neighbor_links(u) {
                    if usable(lid) && row[rank(v) as usize] == UNREACHABLE {
                        row[rank(v) as usize] = rank(u);
                        queue.push(v);
                    }
                }
            }
        }
        parent
    }

    /// Every row of `routes`'s table, built or forced on a copy, equals
    /// the eager oracle's over the links usable now.
    fn assert_rows_match_the_oracle(routes: &Routes, step: usize) {
        let topo = routes.topo();
        let oracle = eager_rows(topo, |l| routes.usable(l));
        let n = topo.node_count();
        let forced = routes.table().clone();
        for s in 0..n {
            let want = &oracle[s * n..(s + 1) * n];
            assert_eq!(forced.row(s as u32), want, "row {s} after step {step}");
        }
        assert_eq!(forced.built(), n);
        assert_eq!(&forced, routes.table(), "equality reads rows, not which are built");
    }

    #[test]
    fn rows_built_in_any_order_through_flips_match_the_eager_oracle() {
        for seed in 0..24 {
            let mut rng = SimRng::seed_from_u64(seed);
            let n = 8 + rng.below(24) as u32;
            let topo = Topology::random_geometric(n, 0.3, &mut rng);
            let nodes: Vec<NodeId> = topo.nodes().collect();
            let ends: Vec<(NodeId, NodeId)> = topo.links().map(|(_, l)| (l.a, l.b)).collect();
            let mut routes = Routes::new(topo).unwrap();
            for step in 0..60 {
                match rng.below(3) {
                    0 => {
                        // Read a random row or two.
                        for _ in 0..1 + rng.below(2) {
                            routes.table().row(rng.below(u64::from(n)) as u32);
                        }
                    }
                    1 => {
                        let node = *rng.choose(&nodes).unwrap();
                        routes.set_node_up(node, rng.chance(0.6)).unwrap();
                    }
                    _ => {
                        let (a, b) = *rng.choose(&ends).unwrap();
                        routes.set_link_up(a, b, rng.chance(0.5)).unwrap();
                    }
                }
                assert_rows_match_the_oracle(&routes, step);
            }
        }
    }

    #[test]
    fn only_the_rows_flows_read_are_built() {
        let mut mesh = Mesh::with_uniform_capacity(Topology::grid(6, 5), Bandwidth::from_mbps(10.0)).unwrap();
        assert_eq!(mesh.routes.table().built(), 0, "no row before a read");
        for (src, dst) in [(0, 29), (0, 7), (12, 3), (12, 12), (17, 5), (17, 0)] {
            mesh.add_flow(NodeId(src), NodeId(dst), Bandwidth::from_mbps(1.0)).unwrap();
        }
        // Three sources; the 12 -> 12 loopback reads no row.
        assert_eq!(mesh.routes.table().built(), 3);
        mesh.advance(bass_util::time::SimDuration::from_millis(100));
        mesh.set_link_up(NodeId(0), NodeId(1), false).unwrap();
        mesh.set_node_up(NodeId(8), false).unwrap();
        mesh.set_link_up(NodeId(0), NodeId(1), true).unwrap();
        assert_eq!(mesh.routes.table().built(), 3, "a fault builds no unread row");
        mesh.path(NodeId(29), NodeId(0)).unwrap();
        assert_eq!(mesh.routes.table().built(), 4);
        let rebuilt = mesh.rebuilt();
        assert_eq!(rebuilt.routes.table().built(), 3, "rebuilt drops every row, re-routing builds the sources'");
        assert_eq!(rebuilt.routes.table(), mesh.routes.table());
    }

    fn hops(rt: &RoutingTable, a: u32, b: u32) -> Option<usize> {
        rt.path(NodeId(a), NodeId(b)).map(|p| p.len() - 1)
    }

    fn line(n: u32) -> Topology {
        let mut topo = Topology::new();
        for i in 0..n {
            topo.add_node(NodeId(i)).unwrap();
        }
        for i in 0..n - 1 {
            topo.add_link(NodeId(i), NodeId(i + 1)).unwrap();
        }
        topo
    }

    #[test]
    fn line_paths() {
        let topo = line(5);
        let rt = RoutingTable::compute(&topo);
        assert_eq!(hops(&rt, 0, 4), Some(4));
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
        );
        assert_eq!(rt.path(NodeId(2), NodeId(2)).unwrap(), [NodeId(2)]);
    }

    #[test]
    fn full_mesh_is_single_hop() {
        let topo = Topology::full_mesh(4);
        let rt = RoutingTable::compute(&topo);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    assert_eq!(rt.path(a, b).unwrap(), [a, b]);
                }
            }
        }
    }

    #[test]
    fn unreachable_is_none() {
        let mut topo = Topology::new();
        topo.add_node(NodeId(0)).unwrap();
        topo.add_node(NodeId(1)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(rt.path(NodeId(0), NodeId(1)), None);
        assert_eq!(rt.path(NodeId(0), NodeId(7)), None, "unknown node");
    }

    #[test]
    fn tie_break_is_deterministic() {
        // Diamond: 0-1, 0-2, 1-3, 2-3. Path 0→3 has two 2-hop options;
        // BFS with sorted neighbors must pick via node 1.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        topo.add_link(NodeId(1), NodeId(3)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(
            rt.path(NodeId(0), NodeId(3)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(3)]
        );
        // Recomputation gives the identical table.
        assert_eq!(rt, RoutingTable::compute(&topo));
    }

    #[test]
    fn filtered_routing_avoids_down_links() {
        // Triangle: with the direct 0–2 link filtered out, the route
        // detours through 1; with both 0-* links gone, 0 is isolated.
        let topo = Topology::full_mesh(3);
        let direct = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute_filtered(&topo, |lid| lid != direct);
        assert_eq!(
            rt.path(NodeId(0), NodeId(2)).unwrap(),
            [NodeId(0), NodeId(1), NodeId(2)]
        );
        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let isolated = RoutingTable::compute_filtered(&topo, |lid| lid != direct && lid != l01);
        assert_eq!(isolated.path(NodeId(0), NodeId(2)), None);
        assert_eq!(isolated.path(NodeId(0), NodeId(0)).unwrap(), [NodeId(0)]);
        assert!(isolated.path(NodeId(1), NodeId(2)).is_some());
    }

    #[test]
    fn shortest_paths_use_chords() {
        // Ring 0-1-2-3-0 plus chord 0-2: path 1→3 stays 2 hops, path 0→2
        // becomes 1 hop via the chord.
        let mut topo = Topology::new();
        for i in 0..4 {
            topo.add_node(NodeId(i)).unwrap();
        }
        topo.add_link(NodeId(0), NodeId(1)).unwrap();
        topo.add_link(NodeId(1), NodeId(2)).unwrap();
        topo.add_link(NodeId(2), NodeId(3)).unwrap();
        topo.add_link(NodeId(3), NodeId(0)).unwrap();
        topo.add_link(NodeId(0), NodeId(2)).unwrap();
        let rt = RoutingTable::compute(&topo);
        assert_eq!(hops(&rt, 0, 2), Some(1));
        assert_eq!(hops(&rt, 1, 3), Some(2));
    }
}
