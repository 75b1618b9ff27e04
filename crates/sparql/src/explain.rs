//! `EXPLAIN`: the rendered shape of a [`PhysicalPlan`].
//!
//! A [`PlanSummary`] is a flattened pre-order walk of the operator tree the
//! planner built — one [`PlanOp`] line per operator, with the planner's
//! cardinality estimate where it has one.  It shows the decisions the
//! executor will act on: the join order, where each `FILTER` was pushed,
//! and whether the driver scan runs as parallel morsels.  Rendering is lazy
//! ([`PhysicalPlan::summary`]), so untraced runs never pay for it: the
//! in-process endpoint renders it only for `EXPLAIN` and for the traced
//! calls that serve it (`query_traced`, `query_federated`), never for the
//! candidate queries the QA pipeline executes.
//!
//! A scan step keeps no pattern, only its compiled ids and variable slots,
//! so its label is rendered from those: each constant is the term its id
//! resolves to in the plan's store, each variable the name the plan's
//! registry numbered — the same text the query's pattern prints.  Text and
//! never-matches steps keep their pattern and print it.

use std::fmt::{self, Write};

use kgqan_rdf::Store;

use crate::ast::Query;
use crate::eval::{CompiledTriplePattern, Slot, VarRegistry};
use crate::plan::{PhysicalPlan, PlanNode, Planner, StepKind};

/// One operator line of a rendered plan: its nesting depth, a label such as
/// `scan ?sea <…outflow> ?x .`, and the planner's cardinality estimate for
/// the step (absolute rows for the first step of a BGP, expected rows per
/// input row afterwards).
#[derive(Debug, Clone, PartialEq)]
pub struct PlanOp {
    /// Nesting depth in the operator tree (0 = outermost).
    pub depth: usize,
    /// Human-readable operator description.
    pub label: String,
    /// The planner's cardinality estimate, where meaningful.
    pub estimate: Option<f64>,
}

/// The `EXPLAIN`-able shape of a [`PhysicalPlan`]: a flattened pre-order
/// walk of the operator tree, rendered on request.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSummary {
    /// Operator lines in execution order (outer operators first).
    pub ops: Vec<PlanOp>,
}

impl PlanSummary {
    fn push(&mut self, depth: usize, label: impl Into<String>, estimate: Option<f64>) {
        self.ops.push(PlanOp {
            depth,
            label: label.into(),
            estimate,
        });
    }

    /// The labels of the join steps (scan / text / never-matches / service
    /// lines), in the order the executor runs them — handy for asserting a
    /// join order.
    pub fn step_labels(&self) -> Vec<&str> {
        self.ops
            .iter()
            .filter(|op| {
                op.label.starts_with("scan ")
                    || op.label.starts_with("text ")
                    || op.label.starts_with("never-matches ")
                    || op.label.starts_with("service ")
            })
            .map(|op| op.label.as_str())
            .collect()
    }
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for op in &self.ops {
            for _ in 0..op.depth {
                f.write_str("  ")?;
            }
            f.write_str(&op.label)?;
            if let Some(est) = op.estimate {
                write!(f, "  (est {est:.1})")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Convenience: plan and render the `EXPLAIN` summary of a query in one
/// call.
pub fn explain(store: &Store, query: &Query) -> PlanSummary {
    Planner::new(store).plan(query).summary().clone()
}

impl PhysicalPlan<'_> {
    /// The `EXPLAIN` summary of this plan (rendered on first call).
    pub fn summary(&self) -> &PlanSummary {
        self.summary.get_or_init(|| self.build_summary())
    }

    /// Flatten the operator tree into the rendered summary.
    fn build_summary(&self) -> PlanSummary {
        let mut summary = PlanSummary::default();
        let mut header = if self.is_ask {
            "ask".to_string()
        } else {
            let vars: Vec<String> = self
                .projection
                .iter()
                .map(|&slot| format!("?{}", self.body.vars.name(slot)))
                .collect();
            format!("select {}", vars.join(" "))
        };
        if self.distinct {
            header.push_str(" distinct");
        }
        if let Some(limit) = self.limit {
            header.push_str(&format!(" limit {limit}"));
        }
        if self.offset > 0 {
            header.push_str(&format!(" offset {}", self.offset));
        }
        summary.push(0, header, None);
        // Surface the parallel decision the executor will actually take —
        // `EXPLAIN` and `execute` call the same `parallel_decision`.
        match self.parallel_decision() {
            Some(decision) => {
                summary.push(
                    1,
                    format!("parallel({})", decision.dop),
                    Some(decision.ranges.len() as f64),
                );
                self.summarize_node(
                    &self.body.root,
                    2,
                    Some(decision.ranges.len()),
                    &mut summary,
                );
            }
            None => self.summarize_node(&self.body.root, 1, None, &mut summary),
        }
        summary
    }

    /// Render one node.  `partition` carries the morsel count of a parallel
    /// run down the left spine so the driver scan can show a `partition`
    /// child op; it is `None` everywhere a driver cannot live.
    fn summarize_node(
        &self,
        node: &PlanNode,
        depth: usize,
        partition: Option<usize>,
        out: &mut PlanSummary,
    ) {
        match node {
            PlanNode::Bgp { pre_filters, steps } => {
                out.push(depth, "bgp", None);
                for expr in pre_filters {
                    out.push(depth + 1, format!("filter {expr}"), None);
                }
                for step in steps {
                    let label = match &step.kind {
                        StepKind::Scan { pattern, .. } => {
                            scan_label(self.store, &self.body.vars, pattern)
                        }
                        StepKind::TextSearch { pattern, .. } => format!("text {pattern}"),
                        StepKind::NeverMatches(pattern) => format!("never-matches {pattern}"),
                    };
                    out.push(depth + 1, label, Some(step.estimate));
                    if step.driver {
                        if let Some(morsels) = partition {
                            out.push(depth + 2, format!("partition ({morsels} morsels)"), None);
                        }
                    }
                    for expr in &step.filters {
                        out.push(depth + 2, format!("filter {expr}"), None);
                    }
                }
            }
            PlanNode::Join(a, b) => {
                out.push(depth, "join", None);
                self.summarize_node(a, depth + 1, partition, out);
                self.summarize_node(b, depth + 1, None, out);
            }
            PlanNode::LeftJoin(a, b) => {
                out.push(depth, "left-join (optional)", None);
                self.summarize_node(a, depth + 1, partition, out);
                self.summarize_node(b, depth + 1, None, out);
            }
            PlanNode::Union(a, b) => {
                out.push(depth, "union", None);
                self.summarize_node(a, depth + 1, None, out);
                self.summarize_node(b, depth + 1, None, out);
            }
            PlanNode::Filter(inner, expr) => {
                out.push(depth, format!("filter {expr}"), None);
                self.summarize_node(inner, depth + 1, partition, out);
            }
            PlanNode::Service {
                kg,
                query,
                estimate,
                ..
            } => {
                out.push(depth, format!("service <kg:{kg}>"), Some(*estimate));
                for tp in query.pattern.all_triple_patterns() {
                    out.push(depth + 1, format!("remote {tp}"), None);
                }
            }
        }
    }
}

/// A scan's label, `scan ?s <p> "o" .`, rendered from its compiled ids and
/// slots as the pattern it was compiled from would print itself.
fn scan_label(store: &Store, vars: &VarRegistry, tp: &CompiledTriplePattern) -> String {
    let mut label = String::from("scan");
    for slot in [tp.subject, tp.predicate, tp.object] {
        // Writing into a `String` cannot fail.
        let _ = match slot {
            Slot::Var(v) => write!(label, " ?{}", vars.name(v)),
            Slot::Const(id) => {
                let term = store
                    .term_of(id)
                    .expect("a compiled constant is a term of the plan's store");
                write!(label, " {term}")
            }
        };
    }
    label.push_str(" .");
    label
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use crate::plan::tests::{eager_parallel, skewed_live, skewed_store};

    #[test]
    fn explain_renders_an_operator_tree() {
        let store = skewed_store();
        let query = parse_query(
            "SELECT ?p ?c ?n WHERE { ?p <http://e/bornIn> ?c . \
             OPTIONAL { ?p <http://www.w3.org/2000/01/rdf-schema#label> ?n . } } LIMIT 10",
        )
        .unwrap();
        let summary = explain(&store, &query);
        let rendered = summary.to_string();
        assert!(rendered.contains("select ?p ?c ?n limit 10"), "{rendered}");
        assert!(rendered.contains("left-join (optional)"), "{rendered}");
        assert!(
            rendered.contains("scan ?p <http://e/bornIn> ?c ."),
            "{rendered}"
        );
        assert!(rendered.contains("est"), "{rendered}");
    }

    #[test]
    fn explain_renders_parallel_and_partition_ops() {
        let snapshot = skewed_live();
        let query = parse_query("SELECT ?p ?c WHERE { ?p <http://e/bornIn> ?c . }").unwrap();
        let plan = Planner::for_shared_snapshot(&snapshot)
            .with_parallelism(eager_parallel())
            .plan(&query);
        let rendered = plan.summary().to_string();
        assert!(rendered.contains("parallel("), "{rendered}");
        assert!(rendered.contains("partition ("), "{rendered}");
        // The scan labels stay stable for step_labels-based assertions.
        assert_eq!(plan.summary().step_labels().len(), 1);
    }
}
