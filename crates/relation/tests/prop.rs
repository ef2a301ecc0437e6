//! Property-based tests for the relation substrate.
//!
//! The mask properties pin `Predicate::eval_mask` (the columnar fast path:
//! dictionary-code probes, raw `i64`/`f64` loops) against per-row
//! `Predicate::eval` on adversarial cells: NaN of both signs, ±0.0, ±∞,
//! nulls, integers beyond 2^53, and string literals inside and outside the
//! dictionary.

use charles_relation::{
    read_csv, write_csv, CmpOp, Column, DataType, Field, Predicate, RowRange, Schema, SnapshotPair,
    Table, Value,
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

/// 2^53: above it, consecutive `i64`s collapse onto one `f64`.
const F64_EXACT_INT: i64 = 1 << 53;

/// Special floats: NaN of both signs, ±0.0, ±∞.
fn special_float() -> BoxedStrategy<f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(-f64::NAN),
        Just(0.0),
        Just(-0.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
    .boxed()
}

/// Float cells: small integers (so equality literals hit), arbitrary
/// reals, the specials, and nulls.
fn float_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        4 => (-100i64..100).prop_map(|v| Value::Float(v as f64)),
        2 => (-1e12f64..1e12).prop_map(Value::Float),
        2 => special_float().prop_map(Value::Float),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Integers that sit around ±2^53, where `i64` → `f64` rounds: 2^53 + 1
/// becomes 2^53, so exact and widened comparisons disagree there.
fn wide_int() -> BoxedStrategy<i64> {
    prop_oneof![
        3 => (-1i64..3).prop_map(|d| F64_EXACT_INT + d),
        3 => (-1i64..3).prop_map(|d| -F64_EXACT_INT - d),
        1 => Just(i64::MAX),
        1 => Just(i64::MIN),
    ]
    .boxed()
}

/// Integer cells: small values, values around ±2^53, the full range, and
/// nulls.
fn int_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (-100i64..100).prop_map(Value::Int),
        3 => wide_int().prop_map(Value::Int),
        1 => any::<i64>().prop_map(Value::Int),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// String cells over a tiny alphabet, so literals hit often, and nulls.
fn str_cell() -> BoxedStrategy<Value> {
    prop_oneof![
        5 => "[abc]{1,2}".prop_map(Value::str),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// Numeric literals of both types, drawn from the same edges as the cells.
fn numeric_literal() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => (-100i64..100).prop_map(Value::Int),
        2 => wide_int().prop_map(Value::Int),
        3 => (-100i64..100).prop_map(|v| Value::Float(v as f64)),
        1 => (-1e12f64..1e12).prop_map(Value::Float),
        2 => special_float().prop_map(Value::Float),
        1 => wide_int().prop_map(|v| Value::Float(v as f64)),
    ]
    .boxed()
}

fn any_op() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// A one-column table named `x` of `dtype` cells.
fn one_column(dtype: DataType, cell: BoxedStrategy<Value>) -> impl Strategy<Value = Table> {
    proptest::collection::vec(cell, 0..100).prop_map(move |vals| {
        let schema = Schema::new(vec![Field::new("x", dtype)]).unwrap();
        Table::new(schema, vec![Column::from_values(dtype, &vals).unwrap()]).unwrap()
    })
}

/// `eval_mask` must equal per-row `eval` on every row.
fn assert_mask_matches_rows(p: &Predicate, table: &Table) -> Result<(), TestCaseError> {
    let mask = p.eval_mask(table).unwrap();
    let rows: Vec<bool> = table
        .row_ids()
        .map(|row| p.eval(table, row).unwrap())
        .collect();
    prop_assert_eq!(mask, rows, "{}", p);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn float_cmp_masks_match_rowwise(
        table in one_column(DataType::Float64, float_cell()),
        op in any_op(),
        lit in numeric_literal(),
    ) {
        assert_mask_matches_rows(&Predicate::cmp("x", op, lit), &table)?;
    }

    #[test]
    fn int_cmp_masks_match_rowwise(
        table in one_column(DataType::Int64, int_cell()),
        op in any_op(),
        lit in numeric_literal(),
        wide in wide_int(),
    ) {
        assert_mask_matches_rows(&Predicate::cmp("x", op, lit), &table)?;
        // A literal near ±2^53 also compared exactly against the cells
        // that round to the same f64.
        assert_mask_matches_rows(&Predicate::cmp("x", op, Value::Int(wide)), &table)?;
    }

    #[test]
    fn between_masks_match_rowwise(
        floats in one_column(DataType::Float64, float_cell()),
        ints in one_column(DataType::Int64, int_cell()),
        lo in numeric_literal(),
        hi in numeric_literal(),
    ) {
        let p = Predicate::between("x", lo, hi);
        assert_mask_matches_rows(&p, &floats)?;
        assert_mask_matches_rows(&p, &ints)?;
    }

    #[test]
    fn string_eq_ne_and_inset_masks_match_rowwise(
        table in one_column(DataType::Utf8, str_cell()),
        needle in "[abcz]{1,2}",
    ) {
        // `z` never occurs in a cell: literals outside the dictionary.
        for p in [
            Predicate::eq("x", needle.as_str()),
            Predicate::cmp("x", CmpOp::Ne, Value::str(needle.as_str())),
            Predicate::in_set("x", [Value::str(needle.as_str()), Value::str("a")]),
            Predicate::in_set("x", [Value::str("z")]),
        ] {
            assert_mask_matches_rows(&p, &table)?;
        }
    }

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

/// The fixed edges of the mask properties, one row each, so a regression
/// names its case without a shrink.
#[test]
fn masks_match_rowwise_on_fixed_edges() {
    let floats = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        1.5,
    ];
    let mut float_vals: Vec<Value> = floats.iter().map(|&v| Value::Float(v)).collect();
    float_vals.push(Value::Null);
    let mut int_vals: Vec<Value> = [
        F64_EXACT_INT - 1,
        F64_EXACT_INT,
        F64_EXACT_INT + 1,
        -F64_EXACT_INT - 1,
        i64::MAX,
        i64::MIN,
        0,
    ]
    .iter()
    .map(|&v| Value::Int(v))
    .collect();
    int_vals.push(Value::Null);
    let schema = Schema::new(vec![
        Field::new("f", DataType::Float64),
        Field::new("i", DataType::Int64),
    ])
    .unwrap();
    let table = Table::new(
        schema,
        vec![
            Column::from_values(DataType::Float64, &float_vals).unwrap(),
            Column::from_values(DataType::Int64, &int_vals).unwrap(),
        ],
    )
    .unwrap();
    let mut literals: Vec<Value> = floats.iter().map(|&v| Value::Float(v)).collect();
    literals.extend(
        [F64_EXACT_INT, F64_EXACT_INT + 1, i64::MAX, i64::MIN]
            .iter()
            .map(|&v| Value::Int(v)),
    );
    let ops = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ];
    for attr in ["f", "i"] {
        for lit in &literals {
            for op in ops {
                let p = Predicate::cmp(attr, op, lit.clone());
                let rows: Vec<bool> = table
                    .row_ids()
                    .map(|row| p.eval(&table, row).unwrap())
                    .collect();
                assert_eq!(p.eval_mask(&table).unwrap(), rows, "{p}");
            }
            let p = Predicate::between(attr, lit.clone(), Value::Float(f64::INFINITY));
            let rows: Vec<bool> = table
                .row_ids()
                .map(|row| p.eval(&table, row).unwrap())
                .collect();
            assert_eq!(p.eval_mask(&table).unwrap(), rows, "{p}");
        }
    }
    // Exact i64 equality: 2^53 + 1 is not 2^53 even though both round to
    // the same f64.
    let p = Predicate::eq("i", Value::Int(F64_EXACT_INT));
    let mask = p.eval_mask(&table).unwrap();
    assert_eq!(&mask[..3], &[false, true, false]);
    // Nulls never match, not even `≠`.
    let p = Predicate::cmp("f", CmpOp::Ne, Value::Float(1.5));
    assert!(!p.eval_mask(&table).unwrap()[7]);
}
