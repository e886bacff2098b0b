//! Multi-table star schemas with PK–FK joins (the substrate for the
//! paper's IMDB join experiments, §4.6 and Table 5).

use uae_data::Table;
use uae_query::{Predicate, Query};

/// A dimension table joined to the fact table by a foreign key.
#[derive(Debug, Clone)]
pub struct DimTable {
    /// Table of *content* columns (the FK is kept separately).
    pub content: Table,
    /// `fk[r]` = fact row this dimension row joins to.
    pub fk: Vec<u32>,
}

impl DimTable {
    /// Build a dimension table, validating FK range later in the schema.
    pub fn new(content: Table, fk: Vec<u32>) -> Self {
        assert_eq!(content.num_rows(), fk.len(), "fk length mismatch");
        DimTable { content, fk }
    }
}

/// A star schema: one fact table and several dimension tables.
#[derive(Debug, Clone)]
pub struct StarSchema {
    /// Fact-table content columns.
    pub fact: Table,
    /// Dimension tables.
    pub dims: Vec<DimTable>,
    /// `groups[d][t]` = dimension-`d` rows joining fact row `t`.
    groups: Vec<Vec<Vec<u32>>>,
}

impl StarSchema {
    /// Build the schema and its join indexes.
    pub fn new(fact: Table, dims: Vec<DimTable>) -> Self {
        let n = fact.num_rows();
        let groups = dims
            .iter()
            .map(|d| {
                let mut g: Vec<Vec<u32>> = vec![Vec::new(); n];
                for (r, &f) in d.fk.iter().enumerate() {
                    assert!((f as usize) < n, "fk {f} out of range");
                    g[f as usize].push(r as u32);
                }
                g
            })
            .collect();
        StarSchema { fact, dims, groups }
    }

    /// Number of dimension tables.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Matching dimension rows of a fact row.
    pub fn matches(&self, dim: usize, fact_row: usize) -> &[u32] {
        &self.groups[dim][fact_row]
    }

    /// Fanout of a fact row into a dimension.
    pub fn fanout(&self, dim: usize, fact_row: usize) -> usize {
        self.groups[dim][fact_row].len()
    }

    /// Size of the full outer join `Σ_t Π_d max(fanout_d(t), 1)`.
    pub fn outer_join_size(&self) -> u64 {
        (0..self.fact.num_rows())
            .map(|t| (0..self.num_dims()).map(|d| self.fanout(d, t).max(1) as u64).product::<u64>())
            .sum()
    }
}

/// A conjunctive query over a star schema: a set of joined dimensions plus
/// per-table predicates. The fact table always participates.
#[derive(Debug, Clone, Default)]
pub struct JoinQuery {
    /// Indices of the joined dimension tables.
    pub dims: Vec<usize>,
    /// Predicates on fact content columns.
    pub fact_preds: Vec<Predicate>,
    /// Predicates on dimension content columns: `(dim index, predicate)`.
    /// Every referenced dimension must appear in `dims`.
    pub dim_preds: Vec<(usize, Predicate)>,
}

impl JoinQuery {
    /// Validate internal consistency.
    pub fn validate(&self, schema: &StarSchema) {
        for &d in &self.dims {
            assert!(d < schema.num_dims(), "dim {d} out of range");
        }
        for (d, p) in &self.dim_preds {
            assert!(self.dims.contains(d), "predicate on unjoined dim {d}");
            assert!(p.column < schema.dims[*d].content.num_cols());
        }
        for p in &self.fact_preds {
            assert!(p.column < schema.fact.num_cols());
        }
    }

    /// The fact-table part as a single-table [`Query`].
    pub fn fact_query(&self) -> Query {
        Query::new(self.fact_preds.clone())
    }

    /// The predicates on one dimension as a single-table [`Query`].
    pub fn dim_query(&self, dim: usize) -> Query {
        Query::new(
            self.dim_preds.iter().filter(|(d, _)| *d == dim).map(|(_, p)| p.clone()).collect(),
        )
    }

    /// The subquery joining only the first `k` dims of a join order —
    /// used by the optimizer to cost left-deep prefixes.
    pub fn prefix(&self, order: &[usize], k: usize) -> JoinQuery {
        let dims: Vec<usize> = order[..k].to_vec();
        JoinQuery {
            dims: dims.clone(),
            fact_preds: self.fact_preds.clone(),
            dim_preds: self.dim_preds.iter().filter(|(d, _)| dims.contains(d)).cloned().collect(),
        }
    }
}

/// A join query labeled with its true cardinality.
#[derive(Debug, Clone)]
pub struct LabeledJoinQuery {
    /// The query.
    pub query: JoinQuery,
    /// Its exact cardinality over the base tables.
    pub cardinality: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use uae_data::Value;

    pub(crate) fn tiny_schema() -> StarSchema {
        // fact: 4 rows, one content column.
        let fact = Table::from_columns(
            "fact",
            vec![("a".into(), vec![0i64, 1, 2, 3].into_iter().map(Value::Int).collect())],
        );
        // dim0: fanouts [2, 1, 0, 1]
        let d0 = DimTable::new(
            Table::from_columns(
                "d0",
                vec![("x".into(), vec![10i64, 11, 12, 13].into_iter().map(Value::Int).collect())],
            ),
            vec![0, 0, 1, 3],
        );
        // dim1: fanouts [1, 2, 1, 0]
        let d1 = DimTable::new(
            Table::from_columns(
                "d1",
                vec![("y".into(), vec![5i64, 6, 7, 8].into_iter().map(Value::Int).collect())],
            ),
            vec![0, 1, 1, 2],
        );
        StarSchema::new(fact, vec![d0, d1])
    }

    #[test]
    fn fanouts_and_outer_size() {
        let s = tiny_schema();
        assert_eq!(s.fanout(0, 0), 2);
        assert_eq!(s.fanout(0, 2), 0);
        assert_eq!(s.fanout(1, 1), 2);
        // Σ max(f0,1)*max(f1,1) = 2*1 + 1*2 + 1*1 + 1*1 = 6
        assert_eq!(s.outer_join_size(), 6);
    }

    #[test]
    fn prefix_filters_predicates() {
        let q = JoinQuery {
            dims: vec![0, 1],
            fact_preds: vec![Predicate::eq(0, 1i64)],
            dim_preds: vec![(0, Predicate::eq(0, 10i64)), (1, Predicate::eq(0, 6i64))],
        };
        let p = q.prefix(&[1, 0], 1);
        assert_eq!(p.dims, vec![1]);
        assert_eq!(p.dim_preds.len(), 1);
        assert_eq!(p.dim_preds[0].0, 1);
        assert_eq!(p.fact_preds.len(), 1);
    }

    #[test]
    #[should_panic(expected = "unjoined dim")]
    fn validate_rejects_predicates_on_unjoined_dims() {
        let s = tiny_schema();
        let q = JoinQuery {
            dims: vec![0],
            fact_preds: vec![],
            dim_preds: vec![(1, Predicate::eq(0, 6i64))],
        };
        q.validate(&s);
    }
}
