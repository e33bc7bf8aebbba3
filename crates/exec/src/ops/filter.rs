//! Fused filter and projection operators.

use crate::batch::{Batch, Validity};
use crate::error::ExecResult;
use crate::expr::Expr;
use crate::pipeline::{Emit, LocalState, Operator};
use joinstudy_storage::table::{Field, Schema};
use joinstudy_storage::types::DataType;

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
    /// Computes the expressions first, while the input is whole, then moves
    /// each referenced column out of it with its mask, cloning a column only
    /// for a reference that is not its last.
    fn process(&self, _local: &mut LocalState, input: Batch, out: Emit) -> ExecResult {
        let computed: Vec<_> = (self.exprs.iter())
            .map(|e| match e {
                Expr::Col(_) => None,
                e => {
                    let col = e.eval(&input);
                    let mask = (col.data_type() != DataType::Bool).then(|| validity(e, &input));
                    Some((col, mask.flatten()))
                }
            })
            .collect();
        let again = |k: usize, i| {
            self.exprs[k + 1..]
                .iter()
                .any(|e| matches!(e, Expr::Col(j) if *j == i))
        };
        let (columns, masks) = input.into_parts();
        let mut input: Vec<_> = columns.into_iter().zip(masks).map(Some).collect();
        let (columns, masks) = (self.exprs.iter().zip(computed).enumerate())
            .map(|(k, (e, computed))| match e {
                Expr::Col(i) if again(k, *i) => input[*i].clone().expect("moves at its last use"),
                Expr::Col(i) => input[*i].take().expect("moves at its last use"),
                _ => computed.expect("computed above"),
            })
            .unzip();
        out(Batch::with_validity(columns, masks));
        Ok(())
    }
}

/// Where a computed value is valid: a `CASE` where the branch each row
/// takes is, anything else where every column it reads is; `None` if
/// everywhere.
fn validity(e: &Expr, input: &Batch) -> Validity {
    match e {
        Expr::Col(i) => input.validity(*i).clone(),
        Expr::CaseWhen(cond, then_e, else_e) => {
            let (t, f) = (validity(then_e, input), validity(else_e, input));
            if t.is_none() && f.is_none() {
                return None;
            }
            let mut valid = f.unwrap_or_else(|| vec![true; input.num_rows()]);
            for i in cond.select(&input.rows()).into_iter().map(|i| i as usize) {
                valid[i] = t.as_ref().is_none_or(|t| t[i]);
            }
            Some(valid)
        }
        e => (e.columns().into_iter())
            .filter_map(|c| input.validity(c).clone())
            .reduce(|v, m| v.iter().zip(m).map(|(a, b)| *a && b).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use joinstudy_storage::column::ColumnData;
    use joinstudy_storage::types::Value;

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
    fn project_keeps_validity() {
        let b = Batch::with_validity(
            vec![ColumnData::Int64(vec![1, 2, 3])],
            vec![Some(vec![true, false, true])],
        );
        let coalesce = Expr::case_when(Expr::is_null(0), Expr::i64(0), Expr::col(0));
        let exprs = vec![
            Expr::col(0),
            Expr::col(0).add(Expr::i64(1)),
            coalesce,
            Expr::is_null(0),
            Expr::col(0),
        ];
        let out = run_op(&ProjectOp::new(exprs), b).remove(0);
        let row = |r| (0..5).map(|c| out.value(c, r)).collect::<Vec<_>>();
        let (i, null) = (Value::Int64, Value::Null);
        assert_eq!(row(0), [i(1), i(2), i(1), Value::Bool(false), i(1)]);
        assert_eq!(
            row(1),
            [null.clone(), null.clone(), i(0), Value::Bool(true), null]
        );
        assert_eq!(out.validity(2), &Some(vec![true; 3]));
        assert_eq!(out.validity(3), &None);
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
