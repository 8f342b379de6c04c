//! The index benefit graph (IBG).
//!
//! For one statement `q` and a set of *relevant* candidate indices `U_q`, the
//! IBG compactly encodes `cost(q, Y)` for every `Y ⊆ U_q`.  Nodes are
//! configurations; the root is `U_q` itself; the children of a node `Y` are
//! the configurations `Y − {a}` for every index `a` that the optimizer's plan
//! for `Y` actually *uses*.  Because removing an unused index never changes
//! the plan, the cost of an arbitrary `Y` can be recovered by walking from the
//! root and repeatedly removing used indices that are not in `Y` — this is the
//! standard IBG lookup of Schnaitter et al. \[16\].
//!
//! Construction issues one what-if optimization per node, which is how the
//! paper keeps candidate-set maintenance affordable ("the IBG compactly
//! encodes the costs of optimized query plans for all relevant subsets of U").

use simdb::index::IndexSet;
use simdb::optimizer::PlanCost;
use std::collections::HashMap;

/// One node of the IBG.
#[derive(Debug, Clone)]
pub struct IbgNode {
    /// The configuration `Y` this node describes.
    pub config: IndexSet,
    /// Indices used by the optimizer's plan for `Y` (always a subset of `Y`).
    pub used: IndexSet,
    /// `cost(q, Y)`.
    pub cost: f64,
    /// Child node ids, one per used index (`Y − {a}`).
    pub children: Vec<usize>,
}

/// The index benefit graph of a single statement.
#[derive(Debug, Clone)]
pub struct IndexBenefitGraph {
    nodes: Vec<IbgNode>,
    root: usize,
    relevant: IndexSet,
    whatif_calls: usize,
}

/// Safety cap on IBG size; relevant sets in this system are small (a handful
/// of candidates per referenced table), so the cap is generous.
pub const MAX_IBG_NODES: usize = 8192;

impl IndexBenefitGraph {
    /// Build the IBG for a statement over the `relevant` candidate set.
    ///
    /// `cost_fn` must return the what-if optimization result for the statement
    /// under the given configuration.  The function is called once per IBG
    /// node (and the number of calls is reported by [`Self::whatif_calls`]).
    pub fn build(relevant: IndexSet, mut cost_fn: impl FnMut(&IndexSet) -> PlanCost) -> Self {
        let mut nodes: Vec<IbgNode> = Vec::new();
        let mut by_config: HashMap<IndexSet, usize> = HashMap::new();
        let mut whatif_calls = 0usize;

        // Breadth-first expansion from the root configuration.
        let mut queue = std::collections::VecDeque::new();
        let root_plan = cost_fn(&relevant);
        whatif_calls += 1;
        let root = 0usize;
        nodes.push(IbgNode {
            config: relevant.clone(),
            used: root_plan.used_indexes.intersection(&relevant),
            cost: root_plan.total,
            children: Vec::new(),
        });
        by_config.insert(relevant.clone(), root);
        queue.push_back(root);

        while let Some(node_id) = queue.pop_front() {
            if nodes.len() >= MAX_IBG_NODES {
                break;
            }
            let (config, used) = {
                let n = &nodes[node_id];
                (n.config.clone(), n.used.clone())
            };
            let mut children = Vec::new();
            for a in used.iter() {
                let mut child_config = config.clone();
                child_config.remove(a);
                let child_id = match by_config.get(&child_config) {
                    Some(&id) => id,
                    None => {
                        let plan = cost_fn(&child_config);
                        whatif_calls += 1;
                        let id = nodes.len();
                        nodes.push(IbgNode {
                            config: child_config.clone(),
                            used: plan.used_indexes.intersection(&child_config),
                            cost: plan.total,
                            children: Vec::new(),
                        });
                        by_config.insert(child_config, id);
                        queue.push_back(id);
                        id
                    }
                };
                children.push(child_id);
            }
            nodes[node_id].children = children;
        }

        drop(by_config);
        Self {
            nodes,
            root,
            relevant,
            whatif_calls,
        }
    }

    /// The candidate set the IBG was built over.
    pub fn relevant(&self) -> &IndexSet {
        &self.relevant
    }

    /// Number of what-if optimizer calls made during construction.
    pub fn whatif_calls(&self) -> usize {
        self.whatif_calls
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterate over the nodes.
    pub fn nodes(&self) -> impl Iterator<Item = &IbgNode> {
        self.nodes.iter()
    }

    /// The root node (configuration = the full relevant set).
    pub fn root(&self) -> &IbgNode {
        &self.nodes[self.root]
    }

    /// Cost of the statement under configuration `y` (any subset of the
    /// universe; indices outside the relevant set are ignored because they
    /// cannot affect this statement's plan).
    pub fn cost(&self, y: &IndexSet) -> f64 {
        self.locate(y).cost
    }

    /// Indices of `y` that the optimizer's plan for `y` uses.
    pub fn used(&self, y: &IndexSet) -> IndexSet {
        self.locate(y).used.clone()
    }

    /// Locate the IBG node whose cost equals `cost(q, y)`.
    fn locate(&self, y: &IndexSet) -> &IbgNode {
        let y = y.intersection(&self.relevant);
        let mut node = &self.nodes[self.root];
        loop {
            // If every index used by the node's plan is available in y, the
            // plan (and its cost) is valid for y.
            if node.used.is_subset_of(&y) {
                return node;
            }
            // Otherwise remove one used index that y lacks and descend.
            let missing = node
                .used
                .iter()
                .find(|a| !y.contains(*a))
                .expect("used not subset implies a missing index");
            let pos = node
                .used
                .iter()
                .position(|a| a == missing)
                .expect("missing index is in used");
            match node.children.get(pos) {
                Some(&child) => node = &self.nodes[child],
                None => {
                    // Hit the construction cap; fall back to the current node,
                    // which is an upper bound on the true cost.
                    return node;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simdb::catalog::CatalogBuilder;
    use simdb::database::Database;
    use simdb::index::IndexId;
    use simdb::query::{build, PredicateKind};
    use simdb::types::DataType;

    struct Fixture {
        db: Database,
        idx: Vec<IndexId>,
        stmt: simdb::query::Statement,
    }

    fn fixture() -> Fixture {
        let mut b = CatalogBuilder::new();
        b.table("t")
            .rows(2_000_000.0)
            .column("a", DataType::Integer, 400_000.0)
            .column("b", DataType::Integer, 300_000.0)
            .column("c", DataType::Integer, 200_000.0)
            .column("d", DataType::Integer, 40.0)
            .finish();
        let db = Database::new(b.build());
        let ia = db.define_index("t", &["a"]).unwrap();
        let ib = db.define_index("t", &["b"]).unwrap();
        let ic = db.define_index("t", &["c"]).unwrap();
        let catalog = db.catalog();
        let t = catalog.table_by_name("t").unwrap();
        let a = catalog.column_by_name("a", &[]).unwrap();
        let bcol = catalog.column_by_name("b", &[]).unwrap();
        let c = catalog.column_by_name("c", &[]).unwrap();
        let d = catalog.column_by_name("d", &[]).unwrap();
        let stmt = build::select()
            .table(t)
            .predicate(t, a, PredicateKind::Range, 0.01)
            .predicate(t, bcol, PredicateKind::Range, 0.02)
            .predicate(t, c, PredicateKind::Range, 0.03)
            .output(d)
            .build();
        Fixture {
            db,
            idx: vec![ia, ib, ic],
            stmt,
        }
    }

    fn build_ibg(f: &Fixture) -> IndexBenefitGraph {
        let relevant = IndexSet::from_iter(f.idx.iter().copied());
        IndexBenefitGraph::build(relevant, |cfg| f.db.whatif_cost(&f.stmt, cfg))
    }

    #[test]
    fn ibg_cost_matches_optimizer_for_every_subset() {
        let f = fixture();
        let ibg = build_ibg(&f);
        let ids = &f.idx;
        for mask in 0u32..(1 << ids.len()) {
            let cfg = IndexSet::from_iter(
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, id)| *id),
            );
            let direct = f.db.whatif_cost(&f.stmt, &cfg).total;
            let via_ibg = ibg.cost(&cfg);
            assert!(
                (direct - via_ibg).abs() < 1e-6,
                "mask {mask:b}: {direct} vs {via_ibg}"
            );
        }
    }

    #[test]
    fn ibg_is_smaller_than_full_enumeration_or_equal() {
        let f = fixture();
        let ibg = build_ibg(&f);
        assert!(ibg.node_count() <= 1 << f.idx.len());
        assert!(ibg.whatif_calls() == ibg.node_count());
        assert!(ibg.node_count() >= 1);
    }

    #[test]
    fn root_config_is_relevant_set() {
        let f = fixture();
        let ibg = build_ibg(&f);
        assert_eq!(
            ibg.root().config,
            IndexSet::from_iter(f.idx.iter().copied())
        );
        assert!(ibg.root().used.is_subset_of(&ibg.root().config));
    }

    #[test]
    fn used_sets_satisfy_ibg_property() {
        // cost(Y) must equal cost(used(Y)).
        let f = fixture();
        let ibg = build_ibg(&f);
        for node in ibg.nodes() {
            let c1 = ibg.cost(&node.config);
            let c2 = ibg.cost(&node.used);
            assert!((c1 - c2).abs() < 1e-6);
        }
    }

    #[test]
    fn indices_outside_relevant_are_ignored() {
        let f = fixture();
        let ibg = build_ibg(&f);
        let foreign = IndexId(999);
        let mut cfg = IndexSet::from_iter(f.idx.iter().copied());
        cfg.insert(foreign);
        let with_foreign = ibg.cost(&cfg);
        let without = ibg.cost(&IndexSet::from_iter(f.idx.iter().copied()));
        assert_eq!(with_foreign, without);
    }

    #[test]
    fn empty_relevant_set_is_fine() {
        let f = fixture();
        let ibg = IndexBenefitGraph::build(IndexSet::empty(), |cfg| f.db.whatif_cost(&f.stmt, cfg));
        assert_eq!(ibg.node_count(), 1);
        assert_eq!(
            ibg.cost(&IndexSet::empty()),
            f.db.whatif_cost(&f.stmt, &IndexSet::empty()).total
        );
    }
}
