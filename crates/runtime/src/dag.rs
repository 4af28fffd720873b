//! Task graphs with dependency tracking.
//!
//! A [`TaskGraph`] is a DAG of tasks, each with a cost (in abstract work units — the
//! solvers use flop counts) and a [`TaskKind`] category.  It is plain data with two
//! producers: [`crate::live::live_scope`] hands back the graph it just executed
//! (submitted kinds and dependencies, costs as reported by the task bodies), and the
//! LORAPO baseline builds its BLR-LU DAG by hand with analytic costs.  Either one is
//! analysed here (critical path, work per kind) or replayed on virtual workers by
//! [`crate::sim::simulate_schedule`].

/// Identifier of a task inside a [`TaskGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub usize);

/// Category of a task — used for trace coloring, per-kind work sums and the
/// Fig. 13 style breakdown.
///
/// The first five are the generic kinds of the LORAPO baseline DAG; the rest
/// are the task classes of the fused H²-ULV graph (its basis tasks are
/// [`TaskKind::Basis`]), so a recorded run explains itself kind by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// LU / Cholesky factorization of a diagonal block (GETRF/POTRF).
    Factor,
    /// Triangular solve (TRSM).
    Solve,
    /// Schur-complement style matrix multiply (GEMM).
    Update,
    /// Basis construction (QR of concatenated blocks).
    Basis,
    /// Anything else.
    Other,
    /// Dense leaf-block assembly (one block row of kernel entries).
    Assembly,
    /// Fill-in pre-computation of one pivot.
    Fill,
    /// Skeleton coupling of one admissible pair.
    Coupling,
    /// Two-sided basis transform of one dense block row.
    Transform,
    /// Elimination of one pivot: LU, panel solves, Schur products.
    Pivot,
    /// Skeleton–skeleton accumulation of one surviving block.
    Schur,
    /// Merge of children's surviving blocks into one parent block.
    Merge,
    /// Stacking of one parent cluster's basis maps.
    Map,
    /// Dense factorization of the root skeleton system.
    Root,
}

impl TaskKind {
    /// Every kind, in declaration order.
    pub const ALL: [TaskKind; 14] = [
        TaskKind::Factor,
        TaskKind::Solve,
        TaskKind::Update,
        TaskKind::Basis,
        TaskKind::Other,
        TaskKind::Assembly,
        TaskKind::Fill,
        TaskKind::Coupling,
        TaskKind::Transform,
        TaskKind::Pivot,
        TaskKind::Schur,
        TaskKind::Merge,
        TaskKind::Map,
        TaskKind::Root,
    ];

    /// Short label used in trace exports.
    pub fn label(&self) -> &'static str {
        match self {
            TaskKind::Factor => "factor",
            TaskKind::Solve => "solve",
            TaskKind::Update => "update",
            TaskKind::Basis => "basis",
            TaskKind::Other => "other",
            TaskKind::Assembly => "assembly",
            TaskKind::Fill => "fill",
            TaskKind::Coupling => "coupling",
            TaskKind::Transform => "transform",
            TaskKind::Pivot => "pivot",
            TaskKind::Schur => "schur",
            TaskKind::Merge => "merge",
            TaskKind::Map => "map",
            TaskKind::Root => "root",
        }
    }
}

/// A single task record.
#[derive(Debug, Clone)]
pub struct TaskNode {
    /// Task id (index into the graph).
    pub id: TaskId,
    /// Cost in abstract work units (the solvers use flop counts).
    pub cost: f64,
    /// Category.
    pub kind: TaskKind,
    /// `(start, end)` of the body in seconds from the start of the live scope
    /// that ran it, when the body timed itself ([`crate::LiveScope::timed`]).
    pub span: Option<(f64, f64)>,
    /// Tasks that must complete before this one starts.
    pub deps: Vec<TaskId>,
    /// Tasks that depend on this one (filled automatically).
    pub dependents: Vec<TaskId>,
}

impl TaskNode {
    /// Seconds between the recorded start and end (0 for an untimed task).
    pub fn seconds(&self) -> f64 {
        self.span.map_or(0.0, |(start, end)| end - start)
    }
}

/// A directed acyclic graph of tasks.
#[derive(Debug, Clone, Default)]
pub struct TaskGraph {
    nodes: Vec<TaskNode>,
}

impl TaskGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        TaskGraph { nodes: Vec::new() }
    }

    /// Wrap the records of an executed live graph: `nodes[i].id == TaskId(i)`,
    /// every dependency precedes its dependent and reverse edges are filled.
    pub(crate) fn from_nodes(nodes: Vec<TaskNode>) -> Self {
        TaskGraph { nodes }
    }

    /// Add a task with the given cost, kind and dependencies; returns its id.
    ///
    /// # Panics
    /// Panics if a dependency id does not exist yet (dependencies must be added
    /// before their dependents, which also guarantees acyclicity).
    pub fn add_task(&mut self, kind: TaskKind, cost: f64, deps: &[TaskId]) -> TaskId {
        let id = TaskId(self.nodes.len());
        for d in deps {
            assert!(d.0 < self.nodes.len(), "dependency {:?} does not exist", d);
        }
        self.nodes.push(TaskNode {
            id,
            cost,
            kind,
            span: None,
            deps: deps.to_vec(),
            dependents: Vec::new(),
        });
        for d in deps {
            self.nodes[d.0].dependents.push(id);
        }
        id
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no tasks.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a task record.
    pub fn node(&self, id: TaskId) -> &TaskNode {
        &self.nodes[id.0]
    }

    /// Iterate over all tasks.
    pub fn iter(&self) -> impl Iterator<Item = &TaskNode> {
        self.nodes.iter()
    }

    /// Total work (sum of all task costs).
    pub fn total_work(&self) -> f64 {
        self.nodes.iter().map(|n| n.cost).sum()
    }

    /// Length of the critical path (the longest cost-weighted chain of dependencies).
    /// This bounds the achievable parallel speedup: `T_P >= max(T_1 / P, critical_path)`.
    pub fn critical_path(&self) -> f64 {
        // Nodes are already in topological order (dependencies precede dependents).
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut longest = 0.0f64;
        for n in &self.nodes {
            let ready = n.deps.iter().map(|d| finish[d.0]).fold(0.0, f64::max);
            finish[n.id.0] = ready + n.cost;
            longest = longest.max(finish[n.id.0]);
        }
        longest
    }

    /// Number of tasks with no dependencies (the initial parallelism).
    pub fn num_roots(&self) -> usize {
        self.nodes.iter().filter(|n| n.deps.is_empty()).count()
    }

    /// Work per task kind, in [`TaskKind::ALL`] order, for kinds with non-zero work.
    pub fn work_by_kind(&self) -> Vec<(TaskKind, f64)> {
        TaskKind::ALL
            .iter()
            .map(|&k| {
                (
                    k,
                    self.nodes
                        .iter()
                        .filter(|n| n.kind == k)
                        .map(|n| n.cost)
                        .sum(),
                )
            })
            .filter(|(_, w)| *w > 0.0)
            .collect()
    }

    /// Verify the graph is a DAG with all edges pointing from earlier to later ids
    /// (the construction enforces this; the check exists for defensive testing).
    pub fn validate(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.deps.iter().all(|d| d.0 < n.id.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query_graph() {
        let mut g = TaskGraph::new();
        let a = g.add_task(TaskKind::Factor, 10.0, &[]);
        let b = g.add_task(TaskKind::Solve, 5.0, &[a]);
        let c = g.add_task(TaskKind::Solve, 5.0, &[a]);
        let d = g.add_task(TaskKind::Update, 2.0, &[b, c]);
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
        assert_eq!(g.total_work(), 22.0);
        assert_eq!(g.num_roots(), 1);
        assert!(g.validate());
        assert_eq!(g.node(d).deps, vec![b, c]);
        assert_eq!(g.node(a).dependents, vec![b, c]);
        // Critical path: 10 + 5 + 2.
        assert_eq!(g.critical_path(), 17.0);
        let by_kind = g.work_by_kind();
        assert!(by_kind.contains(&(TaskKind::Solve, 10.0)));
    }

    #[test]
    fn independent_tasks_have_critical_path_of_max_cost() {
        let mut g = TaskGraph::new();
        for i in 0..10 {
            g.add_task(TaskKind::Other, i as f64 + 1.0, &[]);
        }
        assert_eq!(g.critical_path(), 10.0);
        assert_eq!(g.num_roots(), 10);
    }

    #[test]
    fn empty_graph() {
        let g = TaskGraph::new();
        assert_eq!(g.critical_path(), 0.0);
        assert_eq!(g.total_work(), 0.0);
        assert!(g.is_empty());
        assert!(g.validate());
    }

    #[test]
    #[should_panic]
    fn forward_dependency_panics() {
        let mut g = TaskGraph::new();
        let _ = g.add_task(TaskKind::Other, 1.0, &[TaskId(5)]);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(TaskKind::Factor.label(), "factor");
        assert_eq!(TaskKind::Coupling.label(), "coupling");
    }
}
