//! Predicate evaluation over tuples (three-valued SQL logic collapsed to
//! two: comparisons involving NULL or incomparable types are simply
//! false).

use crate::ast::{CmpOp, Expr};
use crate::error::QueryError;
use skyline_relation::{Schema, Tuple, Value};
use std::cmp::Ordering;

/// A predicate with every column reference resolved to its position in
/// the schema it was validated against. WHERE and HAVING evaluate this
/// form per row, so no row pays a by-name column lookup.
#[derive(Debug, Clone, PartialEq)]
pub enum Predicate {
    /// Comparison of two operands.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

/// One side of a bound comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// The value at this column position.
    Column(usize),
    /// A constant.
    Literal(Value),
}

/// Resolve all column references in `expr` to indices, returning the
/// bound predicate; fails fast on unknown columns so execution can't
/// panic later.
///
/// # Errors
/// [`QueryError::NoSuchColumn`] for any reference not in `schema`;
/// [`QueryError::Semantic`] for a bare operand in predicate position or
/// a nested predicate in operand position (shapes the parser never
/// builds).
pub fn validate(expr: &Expr, schema: &Schema) -> Result<Predicate, QueryError> {
    Ok(match expr {
        Expr::Cmp { left, op, right } => Predicate::Cmp {
            left: bind_operand(left, schema)?,
            op: *op,
            right: bind_operand(right, schema)?,
        },
        Expr::And(a, b) => Predicate::And(
            Box::new(validate(a, schema)?),
            Box::new(validate(b, schema)?),
        ),
        Expr::Or(a, b) => Predicate::Or(
            Box::new(validate(a, schema)?),
            Box::new(validate(b, schema)?),
        ),
        Expr::Not(e) => Predicate::Not(Box::new(validate(e, schema)?)),
        Expr::Column(_) | Expr::Literal(_) => {
            return Err(QueryError::Semantic(
                "a bare operand is not a predicate".into(),
            ))
        }
    })
}

fn bind_operand(expr: &Expr, schema: &Schema) -> Result<Operand, QueryError> {
    match expr {
        Expr::Column(name) => schema
            .index_of(name)
            .map(Operand::Column)
            .ok_or_else(|| QueryError::NoSuchColumn(name.clone())),
        Expr::Literal(v) => Ok(Operand::Literal(v.clone())),
        _ => Err(QueryError::Semantic(
            "comparison operands are columns or literals".into(),
        )),
    }
}

impl Operand {
    #[inline]
    fn value<'a>(&'a self, row: &'a Tuple) -> &'a Value {
        match self {
            Operand::Column(idx) => row.get(*idx),
            Operand::Literal(v) => v,
        }
    }
}

impl Predicate {
    /// Evaluate against one row of the schema the predicate was bound
    /// to (three-valued logic collapsed to two, see the module docs).
    pub fn eval(&self, row: &Tuple) -> bool {
        match self {
            Predicate::Cmp { left, op, right } => {
                let l = left.value(row);
                let r = right.value(row);
                if l.is_null() || r.is_null() {
                    return false; // SQL UNKNOWN → filtered out
                }
                match l.sql_cmp(r) {
                    None => false,
                    Some(ord) => match op {
                        CmpOp::Eq => ord == Ordering::Equal,
                        CmpOp::Ne => ord != Ordering::Equal,
                        CmpOp::Lt => ord == Ordering::Less,
                        CmpOp::Le => ord != Ordering::Greater,
                        CmpOp::Gt => ord == Ordering::Greater,
                        CmpOp::Ge => ord != Ordering::Less,
                    },
                }
            }
            Predicate::And(a, b) => a.eval(row) && b.eval(row),
            Predicate::Or(a, b) => a.eval(row) || b.eval(row),
            Predicate::Not(e) => !e.eval(row),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use skyline_relation::samples::good_eats;

    fn pred(text: &str) -> Expr {
        parse(&format!("SELECT * FROM t WHERE {text}"))
            .unwrap()
            .where_clause
            .unwrap()
    }

    #[test]
    fn numeric_comparisons() {
        let t = good_eats();
        let e = validate(&pred("price < 50"), t.schema()).unwrap();
        let matches: Vec<&str> = t
            .rows()
            .iter()
            .filter(|r| e.eval(r))
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        assert_eq!(
            matches,
            vec!["Summer Moon", "Fenton & Pickle", "Briar Patch BBQ"]
        );
    }

    #[test]
    fn string_equality_and_boolean_ops() {
        let t = good_eats();
        let e = validate(
            &pred("restaurant = 'Zakopane' OR (S >= 21 AND NOT price > 50)"),
            t.schema(),
        )
        .unwrap();
        let matches: Vec<&str> = t
            .rows()
            .iter()
            .filter(|r| e.eval(r))
            .map(|r| r.get(0).as_str().unwrap())
            .collect();
        // Zakopane by name; Summer Moon via S=21 & price 47.5
        assert_eq!(matches, vec!["Summer Moon", "Zakopane"]);
    }

    #[test]
    fn unknown_column_rejected() {
        let t = good_eats();
        let e = pred("bogus = 1");
        assert_eq!(
            validate(&e, t.schema()),
            Err(QueryError::NoSuchColumn("bogus".into()))
        );
    }

    #[test]
    fn columns_bind_to_positions_case_insensitively() {
        let t = good_eats();
        let price = t.schema().index_of("price").unwrap();
        assert_eq!(
            validate(&pred("PRICE < 50"), t.schema()).unwrap(),
            Predicate::Cmp {
                left: Operand::Column(price),
                op: CmpOp::Lt,
                right: Operand::Literal(Value::Int(50)),
            }
        );
    }

    #[test]
    fn null_comparisons_are_false() {
        use skyline_relation::{Column, ColumnType, Tuple, Value};
        let schema = Schema::new(vec![Column::new("a", ColumnType::Int)]).unwrap();
        let row = Tuple::new(vec![Value::Null]);
        for text in ["a = 1", "a <> 1", "a < 1", "a >= 1"] {
            let p = validate(&pred(text), &schema).unwrap();
            assert!(!p.eval(&row), "{text}");
        }
        // NOT (a = 1) is true under our two-valued collapse
        let p = validate(&pred("NOT a = 1"), &schema).unwrap();
        assert!(p.eval(&row));
    }

    #[test]
    fn cross_type_comparison_is_false() {
        let t = good_eats();
        let e = validate(&pred("restaurant < 5"), t.schema()).unwrap();
        assert!(!t.rows().iter().any(|r| e.eval(r)));
    }
}
