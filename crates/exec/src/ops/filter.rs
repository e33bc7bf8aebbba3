//! Fused filter and projection operators.

use crate::batch::Batch;
use crate::error::ExecResult;
use crate::expr::Expr;
use crate::pipeline::{Emit, LocalState, Operator};
use joinstudy_storage::table::{Field, Schema};

/// In-pipeline filter: selects the rows a predicate holds for over the
/// batch's own columns, then compacts the survivors.
pub struct FilterOp {
    pred: Expr,
}

impl FilterOp {
    pub fn new(pred: Expr) -> FilterOp {
        FilterOp { pred }
    }
}

impl Operator for FilterOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let sel = self.pred.select(&input.rows());
        if sel.len() == input.num_rows() {
            out(input);
        } else if !sel.is_empty() {
            out(input.take(&sel));
        }
        Ok(())
    }
}

/// In-pipeline projection: computes a new column set from expressions.
pub struct ProjectOp {
    exprs: Vec<Expr>,
}

impl ProjectOp {
    pub fn new(exprs: Vec<Expr>) -> ProjectOp {
        ProjectOp { exprs }
    }

    /// Schema after projection, given names for the produced columns.
    pub fn output_schema(&self, input: &Schema, names: &[&str]) -> Schema {
        ProjectOp::schema_of(&self.exprs, input, names)
    }

    /// What projecting `input` through `exprs` yields under `names`. The
    /// one derivation, for plan nodes and operators alike.
    pub fn schema_of<N: AsRef<str>>(exprs: &[Expr], input: &Schema, names: &[N]) -> Schema {
        assert_eq!(names.len(), exprs.len());
        Schema::new(
            exprs
                .iter()
                .zip(names)
                .map(|(e, n)| Field::new(n.as_ref(), e.dtype(input)))
                .collect(),
        )
    }
}

impl Operator for ProjectOp {
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let columns = self.exprs.iter().map(|e| e.eval(&input)).collect();
        out(Batch::new(columns));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::ColumnData;
    use joinstudy_storage::types::DataType;

    fn run_op(op: &dyn Operator, input: Batch) -> Vec<Batch> {
        let mut local = op.create_local();
        let mut out = Vec::new();
        op.process(&mut local, input, &mut |b| out.push(b)).unwrap();
        out
    }

    #[test]
    fn filter_compacts() {
        let b = Batch::new(vec![ColumnData::Int64(vec![5, 10, 15, 20])]);
        let out = run_op(&FilterOp::new(Expr::col(0).gt(Expr::i64(9))), b);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].column(0).as_i64(), &[10, 15, 20]);
    }

    #[test]
    fn filter_drops_empty_output() {
        let b = Batch::new(vec![ColumnData::Int64(vec![1, 2])]);
        let out = run_op(&FilterOp::new(Expr::col(0).gt(Expr::i64(100))), b);
        assert!(out.is_empty());
    }

    #[test]
    fn filter_passes_through_when_all_match() {
        let b = Batch::new(vec![ColumnData::Int64(vec![1, 2])]);
        let out = run_op(&FilterOp::new(Expr::col(0).ge(Expr::i64(0))), b);
        assert_eq!(out[0].column(0).as_i64(), &[1, 2]);
    }

    #[test]
    fn project_computes_expressions() {
        let b = Batch::new(vec![
            ColumnData::Int64(vec![1, 2, 3]),
            ColumnData::Int64(vec![10, 20, 30]),
        ]);
        let op = ProjectOp::new(vec![Expr::col(1), Expr::col(0).add(Expr::col(1))]);
        let out = run_op(&op, b);
        assert_eq!(out[0].column(0).as_i64(), &[10, 20, 30]);
        assert_eq!(out[0].column(1).as_i64(), &[11, 22, 33]);
    }

    #[test]
    fn project_schema_naming() {
        let input = Schema::of(&[("a", DataType::Int64), ("b", DataType::Int64)]);
        let op = ProjectOp::new(vec![Expr::col(0), Expr::col(0).gt(Expr::col(1))]);
        let s = op.output_schema(&input, &["a", "a_gt_b"]);
        assert_eq!(s.fields[1].name, "a_gt_b");
        assert_eq!(s.fields[1].dtype, DataType::Bool);
    }
}
