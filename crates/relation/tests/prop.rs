//! Property-based tests for the relation substrate.

use charles_relation::{
    read_csv, write_csv, CmpOp, Column, DataType, Predicate, RowRange, Schema, SnapshotPair, Table,
    Value,
};
use proptest::prelude::*;

/// Strategy for a cell value of a given type (including nulls).
fn value_of(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Int64 => prop_oneof![
            3 => any::<i64>().prop_map(Value::Int),
            1 => Just(Value::Null)
        ]
        .boxed(),
        DataType::Float64 => prop_oneof![
            3 => (-1e12f64..1e12).prop_map(Value::Float),
            1 => Just(Value::Null)
        ]
        .boxed(),
        DataType::Utf8 => prop_oneof![
            3 => "[a-zA-Z0-9 ,\"'μ≥-]{0,12}".prop_map(Value::str),
            1 => Just(Value::Null)
        ]
        .boxed(),
        DataType::Bool => prop_oneof![
            3 => any::<bool>().prop_map(Value::Bool),
            1 => Just(Value::Null)
        ]
        .boxed(),
    }
}

fn table_strategy() -> impl Strategy<Value = Table> {
    let dtypes = proptest::collection::vec(
        prop_oneof![
            Just(DataType::Int64),
            Just(DataType::Float64),
            Just(DataType::Utf8),
            Just(DataType::Bool),
        ],
        1..5,
    );
    (dtypes, 0usize..20).prop_flat_map(|(dtypes, rows)| {
        let columns: Vec<BoxedStrategy<Vec<Value>>> = dtypes
            .iter()
            .map(|&t| proptest::collection::vec(value_of(t), rows..=rows).boxed())
            .collect();
        (Just(dtypes), columns).prop_map(|(dtypes, columns)| {
            let schema = Schema::new(
                dtypes
                    .iter()
                    .enumerate()
                    .map(|(i, &t)| charles_relation::Field::new(format!("c{i}"), t))
                    .collect(),
            )
            .unwrap();
            let cols: Vec<Column> = dtypes
                .iter()
                .zip(columns.iter())
                .map(|(&t, vals)| Column::from_values(t, vals).unwrap())
                .collect();
            Table::new(schema, cols).unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip_preserves_content(table in table_strategy()) {
        // CSV cannot represent empty strings distinctly from nulls, nor
        // leading/trailing whitespace (we trim); normalize expectations by
        // comparing through a second roundtrip instead.
        let mut buf = Vec::new();
        write_csv(&table, &mut buf).unwrap();
        let once = read_csv(buf.as_slice()).unwrap();
        let mut buf2 = Vec::new();
        write_csv(&once, &mut buf2).unwrap();
        let twice = read_csv(buf2.as_slice()).unwrap();
        prop_assert!(once.content_eq(&twice), "roundtrip not idempotent");
        prop_assert_eq!(once.height(), table.height());
        prop_assert_eq!(once.width(), table.width());
    }

    #[test]
    fn filter_take_consistency(table in table_strategy(), keep in proptest::collection::vec(any::<bool>(), 0..20)) {
        let mut mask = keep;
        mask.resize(table.height(), false);
        let filtered = table.filter(&mask).unwrap();
        let indices: Vec<usize> = mask.iter().enumerate()
            .filter_map(|(i, &k)| k.then_some(i)).collect();
        let taken = table.take(&indices);
        prop_assert!(filtered.content_eq(&taken));
        prop_assert_eq!(filtered.height(), indices.len());
    }

    #[test]
    fn double_negation_is_identity(table in table_strategy(), lit in -100i64..100) {
        if table.height() == 0 || !table.schema().contains("c0") {
            return Ok(());
        }
        let p = Predicate::cmp("c0", CmpOp::Le, Value::Int(lit));
        let not_not = p.clone().not().not();
        for row in table.row_ids() {
            prop_assert_eq!(
                p.eval(&table, row).unwrap(),
                not_not.eval(&table, row).unwrap()
            );
        }
    }

    #[test]
    fn predicate_and_complement_partition_non_null_rows(table in table_strategy(), lit in -100i64..100) {
        if table.height() == 0 {
            return Ok(());
        }
        let p = Predicate::cmp("c0", CmpOp::Lt, Value::Int(lit));
        let not_p = p.clone().not();
        for row in table.row_ids() {
            let a = p.eval(&table, row).unwrap();
            let b = not_p.eval(&table, row).unwrap();
            prop_assert_ne!(a, b, "p and ¬p must disagree on every row");
        }
    }

    #[test]
    fn positional_self_alignment_is_lossless(table in table_strategy()) {
        let pair = SnapshotPair::align(table.clone(), table.clone()).unwrap();
        prop_assert_eq!(pair.len(), table.height());
        for row in 0..pair.len() {
            prop_assert_eq!(pair.target_row(row), row);
        }
    }

    #[test]
    fn numeric_view_matches_vec_extraction(table in table_strategy()) {
        // The zero-copy view layer must agree exactly with the original
        // `Table::numeric` Vec extraction — same values, same errors.
        for name in table.schema().names() {
            match (table.numeric(name), table.numeric_view(name)) {
                (Ok(vec), Ok(view)) => {
                    prop_assert_eq!(vec.as_slice(), view.as_slice(), "attr {}", name);
                    // Cloning the view aliases the same buffer.
                    let clone = view.clone();
                    prop_assert!(std::sync::Arc::ptr_eq(view.shared(), clone.shared()));
                }
                (Err(_), Err(_)) => {}
                (vec, view) => {
                    return Err(proptest::test_runner::TestCaseError::fail(format!(
                        "extraction paths disagree for {name:?}: vec={vec:?} view={view:?}"
                    )));
                }
            }
        }
    }

    #[test]
    fn sliced_views_window_the_same_data(table in table_strategy(), lo in 0usize..24, hi in 0usize..24) {
        // Slicing a view must expose exactly the vector slice of the same
        // window, for both numeric and dictionary-coded columns, and share
        // the parent's storage.
        let range = RowRange::new(lo.min(hi), hi.max(lo));
        for name in table.schema().names() {
            if let Ok(view) = table.numeric_view(name) {
                let sliced = view.slice(range);
                let start = range.start.min(view.len());
                let end = range.end.min(view.len());
                prop_assert_eq!(sliced.as_slice(), &view.as_slice()[start..end]);
                prop_assert!(std::sync::Arc::ptr_eq(view.shared(), sliced.shared()));
            }
            let idx = table.schema().index_of(name).unwrap();
            if let Some(codes) = table.column(idx).unwrap().codes_view() {
                let sliced = codes.slice(range);
                let start = range.start.min(codes.len());
                let end = range.end.min(codes.len());
                prop_assert_eq!(sliced.len(), end - start);
                for (i, row) in (start..end).enumerate() {
                    prop_assert_eq!(sliced.code(i), codes.code(row), "attr {}", name);
                }
            }
        }
    }

    #[test]
    fn group_codes_matches_string_grouping(table in table_strategy()) {
        // Dictionary-code grouping must induce exactly the partition that
        // grouping by materialized string values induces, nulls included.
        for (idx, field) in table.schema().fields().iter().enumerate() {
            let col = table.column(idx).unwrap();
            let Some(groups) = col.group_codes() else {
                prop_assert!(field.dtype().is_numeric(), "only numeric columns lack code grouping");
                continue;
            };
            // Reference: first-appearance-ordered grouping by Value.
            let mut ref_groups: Vec<(Value, Vec<usize>)> = Vec::new();
            for row in 0..col.len() {
                let v = col.get(row);
                match ref_groups.iter_mut().find(|(key, _)| key == &v) {
                    Some((_, rows)) => rows.push(row),
                    None => ref_groups.push((v, vec![row])),
                }
            }
            prop_assert_eq!(groups.n_groups(), ref_groups.len(), "attr {}", field.name());
            for ((code, rows), (value, ref_rows)) in
                groups.groups.iter().zip(ref_groups.iter())
            {
                prop_assert_eq!(rows, ref_rows, "attr {}", field.name());
                match code {
                    None => prop_assert!(value.is_null()),
                    Some(_) => prop_assert!(!value.is_null()),
                }
            }
            // Labels are consistent with groups.
            for (slot, (_, rows)) in groups.groups.iter().enumerate() {
                for &r in rows {
                    prop_assert_eq!(groups.labels[r], slot);
                }
            }
        }
    }
}

#[test]
fn csv_handles_adversarial_strings() {
    let table = charles_relation::TableBuilder::new("t")
        .str_col(
            "s",
            &["a,b", "he said \"hi\"", "", "  spaced  ", "∅", "line"],
        )
        .build()
        .unwrap();
    let mut buf = Vec::new();
    write_csv(&table, &mut buf).unwrap();
    let back = read_csv(buf.as_slice()).unwrap();
    assert_eq!(back.value(0, "s").unwrap(), Value::str("a,b"));
    assert_eq!(back.value(1, "s").unwrap(), Value::str("he said \"hi\""));
    // Empty string becomes null through CSV (documented limitation).
    assert_eq!(back.value(2, "s").unwrap(), Value::Null);
}
