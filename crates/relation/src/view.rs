//! Zero-copy column views — the shared data plane under the ChARLES search.
//!
//! The candidate search evaluates thousands of `(C, T, k)` triples against
//! the *same* source snapshot, from many worker threads at once. Views make
//! that cheap: a [`NumericView`] or [`CodesView`] is a couple of
//! `Arc` pointers into the column's own storage, so extraction happens once
//! per run and every reader — on any thread — scans the identical buffers.
//! Cloning a view never copies data.
//!
//! Views also carry a *window*: [`NumericView::slice`] and
//! [`CodesView::slice`] narrow a view to a [`RowRange`] without touching
//! the shared buffer.
//!
//! [`CodeGroups`] is the group-by companion: rows grouped directly by
//! dictionary code, with no string materialization or hashing in the loop.

use crate::column::StrDict;
use std::ops::Deref;
use std::sync::Arc;

/// A half-open range of row indices `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RowRange {
    /// First row of the range.
    pub start: usize,
    /// One past the last row of the range.
    pub end: usize,
}

impl RowRange {
    /// The range `[start, end)`. An inverted pair collapses to empty.
    pub fn new(start: usize, end: usize) -> Self {
        RowRange {
            start,
            end: end.max(start),
        }
    }

    /// Number of rows in the range.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the range holds no rows.
    pub fn is_empty(&self) -> bool {
        self.start >= self.end
    }
}

/// A dense, null-free `f64` view of a column, shared via `Arc` — possibly
/// a [`RowRange`] window into the buffer.
///
/// Dereferences to `&[f64]`, so it drops into any slice-based numeric code.
#[derive(Debug, Clone)]
pub struct NumericView {
    values: Arc<Vec<f64>>,
    offset: usize,
    len: usize,
}

impl NumericView {
    /// Wrap freshly computed values (a full-buffer window).
    pub fn new(values: Vec<f64>) -> Self {
        NumericView::from_arc(Arc::new(values))
    }

    /// Share an existing buffer (zero-copy, full-buffer window).
    pub fn from_arc(values: Arc<Vec<f64>>) -> Self {
        let len = values.len();
        NumericView {
            values,
            offset: 0,
            len,
        }
    }

    /// The underlying shared buffer (for aliasing checks and re-wrapping).
    /// Note this is the *whole* buffer: a sliced view shares the same
    /// allocation as its parent — compare [`NumericView::range`] too when
    /// identity of the window matters.
    pub fn shared(&self) -> &Arc<Vec<f64>> {
        &self.values
    }

    /// The window this view exposes, in buffer coordinates.
    pub fn range(&self) -> RowRange {
        RowRange::new(self.offset, self.offset + self.len)
    }

    /// A zero-copy sub-window: `range` is interpreted relative to this
    /// view (so slicing composes), clamped to its bounds.
    pub fn slice(&self, range: RowRange) -> NumericView {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len).max(start);
        NumericView {
            values: Arc::clone(&self.values),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// The values as a plain slice.
    pub fn as_slice(&self) -> &[f64] {
        &self.values[self.offset..self.offset + self.len]
    }

    /// Gather the values at `rows` (view-relative indices) into a fresh
    /// vector — one dense indexed pass over the window slice, no per-row
    /// column dispatch. Panics if any index is out of the window, like
    /// slice indexing.
    pub fn gather(&self, rows: &[usize]) -> Vec<f64> {
        let s = self.as_slice();
        rows.iter().map(|&r| s[r]).collect()
    }

    /// Whether `rows` is exactly the identity selection `0..len` of this
    /// view — the common full-coverage case where callers can skip
    /// gathering and read [`NumericView::as_slice`] directly.
    pub fn covers_all_rows(&self, rows: &[usize]) -> bool {
        rows.len() == self.len && rows.iter().enumerate().all(|(i, &r)| r == i)
    }
}

impl Deref for NumericView {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl From<Vec<f64>> for NumericView {
    fn from(values: Vec<f64>) -> Self {
        NumericView::new(values)
    }
}

/// A zero-copy view of a dictionary-encoded string column: shared
/// dictionary, shared per-row codes, shared validity — possibly a
/// [`RowRange`] window.
#[derive(Debug, Clone)]
pub struct CodesView {
    dict: Arc<StrDict>,
    codes: Arc<Vec<u32>>,
    validity: Option<Arc<Vec<bool>>>,
    offset: usize,
    len: usize,
}

impl CodesView {
    /// Assemble from shared parts (used by `Column::codes_view`).
    pub fn new(dict: Arc<StrDict>, codes: Arc<Vec<u32>>, validity: Option<Arc<Vec<bool>>>) -> Self {
        let len = codes.len();
        CodesView {
            dict,
            codes,
            validity,
            offset: 0,
            len,
        }
    }

    /// Number of rows in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-window over the same dictionary, codes, and
    /// validity; `range` is relative to this view and clamped.
    pub fn slice(&self, range: RowRange) -> CodesView {
        let start = range.start.min(self.len);
        let end = range.end.min(self.len).max(start);
        CodesView {
            dict: Arc::clone(&self.dict),
            codes: Arc::clone(&self.codes),
            validity: self.validity.clone(),
            offset: self.offset + start,
            len: end - start,
        }
    }

    /// The dictionary code at row `i` (window-relative), or `None` for a
    /// null.
    pub fn code(&self, i: usize) -> Option<u32> {
        match &self.validity {
            Some(mask) if !mask[self.offset + i] => None,
            _ => Some(self.codes[self.offset + i]),
        }
    }

    /// The raw code buffer of the window (entries at null rows are
    /// meaningless).
    pub fn codes(&self) -> &[u32] {
        &self.codes[self.offset..self.offset + self.len]
    }

    /// Resolve a code to its string.
    pub fn resolve(&self, code: u32) -> &str {
        self.dict.resolve(code)
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &StrDict {
        &self.dict
    }

    /// Number of distinct strings in the dictionary (an upper bound on the
    /// column's cardinality).
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Group the window's rows by dictionary code; see
    /// [`CodeGroups::from_codes`]. Row indices in the result are
    /// window-relative.
    pub fn group_codes(&self) -> CodeGroups {
        CodeGroups::from_codes(
            self.codes(),
            self.dict.len(),
            self.validity
                .as_deref()
                .map(|v| &v[self.offset..self.offset + self.len]),
        )
    }
}

/// A typed zero-copy view of one column.
#[derive(Debug, Clone)]
pub enum ColumnView {
    /// Dense numeric values (numeric and boolean columns).
    Numeric(NumericView),
    /// Dictionary codes (string columns).
    Codes(CodesView),
}

impl ColumnView {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnView::Numeric(v) => v.as_slice().len(),
            ColumnView::Codes(v) => v.len(),
        }
    }

    /// Whether the view has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The numeric view, if this is one.
    pub fn as_numeric(&self) -> Option<&NumericView> {
        match self {
            ColumnView::Numeric(v) => Some(v),
            ColumnView::Codes(_) => None,
        }
    }

    /// The codes view, if this is one.
    pub fn as_codes(&self) -> Option<&CodesView> {
        match self {
            ColumnView::Codes(v) => Some(v),
            ColumnView::Numeric(_) => None,
        }
    }
}

/// Rows grouped by dictionary code — the integer-keyed replacement for
/// `HashMap<String, Vec<usize>>` group-bys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodeGroups {
    /// Per-row dense group label (0-based, in order of first appearance).
    pub labels: Vec<usize>,
    /// One entry per distinct group, in order of first appearance: the
    /// dictionary code (`None` for the null group) and its rows in row
    /// order.
    pub groups: Vec<(Option<u32>, Vec<usize>)>,
}

impl CodeGroups {
    /// Group `codes` (with `n_codes` possible distinct codes) by value.
    /// Rows where `validity` is false form a single null group. Runs in
    /// O(rows + n_codes) with no hashing.
    pub fn from_codes(codes: &[u32], n_codes: usize, validity: Option<&[bool]>) -> Self {
        const UNSEEN: usize = usize::MAX;
        let mut slot_of_code = vec![UNSEEN; n_codes];
        let mut null_slot = UNSEEN;
        let mut labels = Vec::with_capacity(codes.len());
        let mut groups: Vec<(Option<u32>, Vec<usize>)> = Vec::new();
        for (row, &code) in codes.iter().enumerate() {
            let valid = validity.is_none_or(|m| m[row]);
            let slot = if valid {
                let slot = &mut slot_of_code[code as usize];
                if *slot == UNSEEN {
                    *slot = groups.len();
                    groups.push((Some(code), Vec::new()));
                }
                *slot
            } else {
                if null_slot == UNSEEN {
                    null_slot = groups.len();
                    groups.push((None, Vec::new()));
                }
                null_slot
            };
            groups[slot].1.push(row);
            labels.push(slot);
        }
        CodeGroups { labels, groups }
    }

    /// Number of distinct groups (including the null group, if present).
    pub fn n_groups(&self) -> usize {
        self.groups.len()
    }

    /// Whether any row was null.
    pub fn has_null_group(&self) -> bool {
        self.groups.iter().any(|(code, _)| code.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::value::Value;

    #[test]
    fn numeric_view_derefs_to_slice() {
        let view = NumericView::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(view.len(), 3);
        assert_eq!(view.iter().sum::<f64>(), 6.0);
        assert_eq!(view.as_slice(), &[1.0, 2.0, 3.0]);
        let from: NumericView = vec![4.0].into();
        assert_eq!(&*from, &[4.0]);
    }

    #[test]
    fn codes_view_roundtrip() {
        let mut col = Column::from_strs(&["x", "y", "x"]);
        col.push(Value::Null).unwrap();
        let view = col.codes_view().unwrap();
        assert_eq!(view.len(), 4);
        assert!(!view.is_empty());
        assert_eq!(view.code(0), view.code(2));
        assert_ne!(view.code(0), view.code(1));
        assert_eq!(view.code(3), None);
        assert_eq!(view.resolve(view.code(1).unwrap()), "y");
        assert_eq!(view.dict_len(), 2);
        // Grouping through the view matches grouping through the column.
        assert_eq!(view.group_codes(), col.group_codes().unwrap());
    }

    #[test]
    fn column_view_dispatch() {
        let num = Column::from_f64(vec![1.0]).view("n").unwrap();
        assert!(num.as_numeric().is_some());
        assert!(num.as_codes().is_none());
        assert_eq!(num.len(), 1);
        let cat = Column::from_strs(&["a"]).view("c").unwrap();
        assert!(cat.as_codes().is_some());
        assert!(cat.as_numeric().is_none());
    }

    #[test]
    fn numeric_slice_is_zero_copy_window() {
        let view = NumericView::new(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mid = view.slice(RowRange::new(1, 4));
        assert_eq!(mid.as_slice(), &[2.0, 3.0, 4.0]);
        assert!(Arc::ptr_eq(view.shared(), mid.shared()));
        assert_eq!(mid.range(), RowRange::new(1, 4));
        // Slicing composes relative to the window.
        let inner = mid.slice(RowRange::new(1, 2));
        assert_eq!(inner.as_slice(), &[3.0]);
        assert_eq!(inner.range(), RowRange::new(2, 3));
        // Out-of-bounds requests clamp instead of panicking.
        assert_eq!(view.slice(RowRange::new(3, 99)).as_slice(), &[4.0, 5.0]);
        assert!(view.slice(RowRange::new(9, 12)).is_empty());
        assert!(view.slice(RowRange::new(2, 2)).is_empty());
    }

    #[test]
    fn codes_slice_matches_full_view() {
        let mut col = Column::from_strs(&["x", "y", "x", "z"]);
        col.push(Value::Null).unwrap();
        let view = col.codes_view().unwrap();
        let tail = view.slice(RowRange::new(2, 5));
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.code(0), view.code(2));
        assert_eq!(tail.code(1), view.code(3));
        assert_eq!(tail.code(2), None, "null row survives slicing");
        assert_eq!(tail.codes(), &view.codes()[2..]);
        // Window grouping equals grouping the window's rows directly.
        let grouped = tail.group_codes();
        assert_eq!(grouped.n_groups(), 3); // x, z, null
        assert!(grouped.has_null_group());
        assert_eq!(grouped.labels.len(), 3);
    }

    #[test]
    fn code_groups_dense_and_ordered() {
        let groups = CodeGroups::from_codes(&[2, 0, 2, 1, 0], 3, None);
        assert_eq!(groups.n_groups(), 3);
        assert_eq!(groups.labels, vec![0, 1, 0, 2, 1]);
        assert_eq!(groups.groups[0], (Some(2), vec![0, 2]));
        assert_eq!(groups.groups[1], (Some(0), vec![1, 4]));
        assert_eq!(groups.groups[2], (Some(1), vec![3]));
        assert!(!groups.has_null_group());
        let with_null = CodeGroups::from_codes(&[0, 0, 1], 2, Some(&[true, false, true]));
        assert!(with_null.has_null_group());
        assert_eq!(with_null.n_groups(), 3);
    }
}
