//! The query table `T(φ_th)` of Algorithm 1, parameterized over operand
//! width.
//!
//! `T(φ_th)` is the set of values of one [`OperandWidth`] whose canonical
//! signed digit form uses at most `φ_th` non-zero digits. The FTA algorithm
//! replaces every weight of a filter with the nearest member of the filter's
//! table, which caps the number of Complementary Pattern blocks each weight
//! contributes to the PIM array. The paper builds the tables for INT8;
//! [`QueryTable::for_width`] generalizes the construction to
//! INT4/INT12/INT16.

use dbpim_csd::OperandWidth;

use crate::error::FtaError;

/// Largest filter threshold the paper's Algorithm 1 allows (at any width).
pub const MAX_THRESHOLD: u32 = 2;

/// The query table `T(φ_th)`: all values of one operand width representable
/// with at most `φ_th` non-zero CSD digits, sorted ascending.
///
/// # Examples
///
/// ```
/// use dbpim_csd::OperandWidth;
/// use dbpim_fta::QueryTable;
///
/// let t1 = QueryTable::for_width(OperandWidth::Int8, 1)?;
/// // With one non-zero digit only powers of two (and zero) are available.
/// assert_eq!(t1.nearest(5), 4);
/// assert_eq!(t1.nearest(0), 0);
/// assert!(t1.contains(-64));
///
/// let t2 = QueryTable::for_width(OperandWidth::Int12, 2)?;
/// assert_eq!(t2.nearest(5), 5); // 5 = 4 + 1 uses two digits
/// assert!(t2.contains(1920)); // 2048 - 128
/// # Ok::<(), dbpim_fta::FtaError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTable {
    width: OperandWidth,
    threshold: u32,
    values: Vec<i32>,
    /// The answer of [`nearest`](Self::nearest) for every value of the
    /// width's range, indexed by `value - width.min_value()`.
    nearest: Vec<i32>,
}

impl QueryTable {
    /// Builds the table of an operand width for a threshold in `0..=2`.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::InvalidThreshold`] for thresholds above
    /// [`MAX_THRESHOLD`].
    pub fn for_width(width: OperandWidth, threshold: u32) -> Result<Self, FtaError> {
        if threshold > MAX_THRESHOLD {
            return Err(FtaError::InvalidThreshold { threshold });
        }
        // One ascending scan of the width's range (at most 2^16 values, at
        // INT16) collects the members, already sorted, and settles the
        // nearest member of every value up to each member it meets.
        let (min, max) = (width.min_value(), width.max_value());
        let range = (max - min) as usize + 1;
        let mut values: Vec<i32> = Vec::new();
        let mut nearest = Vec::with_capacity(range);
        for v in min..=max {
            if dbpim_csd::phi(v) > threshold {
                continue;
            }
            match values.last() {
                // Values below the first member snap up to it.
                None => nearest.resize((v - min) as usize, v),
                Some(&lo) => nearest.extend((lo + 1..v).map(|x| closer(x, lo, v))),
            }
            nearest.push(v);
            values.push(v);
        }
        // Values above the last member snap down to it.
        let last = *values.last().expect("zero is admissible at every threshold");
        nearest.resize(range, last);
        Ok(Self { width, threshold, values, nearest })
    }

    /// The operand width this table was built for.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// The threshold this table was built for.
    #[must_use]
    pub fn threshold(&self) -> u32 {
        self.threshold
    }

    /// The admissible values, sorted ascending.
    #[must_use]
    pub fn values(&self) -> &[i32] {
        &self.values
    }

    /// Number of admissible values.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// A table is never empty (zero is always admissible).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Returns `true` when `value` is exactly representable under the
    /// threshold.
    #[must_use]
    pub fn contains(&self, value: i32) -> bool {
        self.values.binary_search(&value).is_ok()
    }

    /// The admissible value closest to `value` (Algorithm 1 line 16).
    ///
    /// Ties are broken towards the value of smaller magnitude, which never
    /// increases the number of stored non-zero digits. A value outside the
    /// width's range gets the member nearest the range end it passed.
    #[must_use]
    pub fn nearest(&self, value: i32) -> i32 {
        let min = self.width.min_value();
        self.nearest[(value.clamp(min, self.width.max_value()) - min) as usize]
    }

    /// Largest absolute approximation error over the width's whole range.
    #[must_use]
    pub fn worst_case_error(&self) -> u32 {
        (self.width.min_value()..=self.width.max_value())
            .map(|v| (i64::from(v) - i64::from(self.nearest(v))).unsigned_abs() as u32)
            .max()
            .unwrap_or(0)
    }
}

/// The three query tables (`φ_th` = 0, 1, 2) of one operand width, built
/// once and shared.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTables {
    width: OperandWidth,
    tables: [QueryTable; 3],
}

impl QueryTables {
    /// Builds all three tables of an operand width.
    #[must_use]
    pub fn for_width(width: OperandWidth) -> Self {
        Self {
            width,
            tables: [
                QueryTable::for_width(width, 0).expect("threshold 0 is valid"),
                QueryTable::for_width(width, 1).expect("threshold 1 is valid"),
                QueryTable::for_width(width, 2).expect("threshold 2 is valid"),
            ],
        }
    }

    /// The operand width the tables were built for.
    #[must_use]
    pub fn width(&self) -> OperandWidth {
        self.width
    }

    /// The table for a given threshold.
    ///
    /// # Errors
    ///
    /// Returns [`FtaError::InvalidThreshold`] for thresholds above
    /// [`MAX_THRESHOLD`].
    pub fn table(&self, threshold: u32) -> Result<&QueryTable, FtaError> {
        self.tables.get(threshold as usize).ok_or(FtaError::InvalidThreshold { threshold })
    }
}

/// Whichever of the neighbouring members `lo < x < hi` lies closer to `x`;
/// a tie goes to the one of smaller magnitude.
fn closer(x: i32, lo: i32, hi: i32) -> i32 {
    let (dl, dh) = (x - lo, hi - x);
    if dl < dh || (dl == dh && lo.unsigned_abs() <= hi.unsigned_abs()) {
        lo
    } else {
        hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbpim_csd::CsdWord;

    #[test]
    fn table_zero_only_contains_zero() {
        let t = QueryTable::for_width(OperandWidth::Int8, 0).unwrap();
        assert_eq!(t.values(), &[0]);
        assert_eq!(t.nearest(100), 0);
        assert_eq!(t.nearest(-128), 0);
        assert_eq!(t.width(), OperandWidth::Int8);
    }

    #[test]
    fn table_one_contains_signed_powers_of_two() {
        let t = QueryTable::for_width(OperandWidth::Int8, 1).unwrap();
        // 0, ±1, ±2, ±4, ±8, ±16, ±32, ±64, -128 and +128 does not fit i8.
        assert_eq!(t.len(), 16);
        assert!(t.contains(-128));
        assert!(!t.contains(3));
        assert!(!t.is_empty());
    }

    #[test]
    fn table_two_members_use_at_most_two_digits() {
        let t = QueryTable::for_width(OperandWidth::Int8, 2).unwrap();
        for &v in t.values() {
            assert!(CsdWord::encode(v, OperandWidth::Int8).unwrap().nonzero_digits() <= 2, "{v}");
        }
        assert!(t.contains(96)); // 128 - 32
        assert!(t.contains(-96));
        assert!(!t.contains(107));
    }

    #[test]
    fn per_width_tables_respect_threshold_and_range() {
        for width in OperandWidth::all() {
            for threshold in 0..=MAX_THRESHOLD {
                let t = QueryTable::for_width(width, threshold).unwrap();
                assert!(t.contains(0));
                for &v in t.values() {
                    assert!(width.contains(v), "{width} value {v}");
                    assert!(dbpim_csd::phi(v) <= threshold, "{width} value {v}");
                }
                // Every power of two in range belongs to T(1) and above.
                if threshold >= 1 {
                    for shift in 0..width.bits() - 1 {
                        assert!(t.contains(1 << shift));
                        assert!(t.contains(-(1 << shift)));
                    }
                    assert!(t.contains(width.min_value()));
                }
            }
        }
    }

    #[test]
    fn nearest_is_truly_nearest() {
        for threshold in 0..=2 {
            let t = QueryTable::for_width(OperandWidth::Int8, threshold).unwrap();
            for v in i8::MIN..=i8::MAX {
                let v = i32::from(v);
                let n = t.nearest(v);
                let err = (v - n).abs();
                for &candidate in t.values() {
                    assert!(
                        (v - candidate).abs() >= err,
                        "threshold {threshold}: {candidate} is closer to {v} than {n}"
                    );
                }
            }
        }
    }

    /// The search `nearest` answered with before the lookup: the reference
    /// the lookup must equal.
    fn binary_search_nearest(values: &[i32], value: i32) -> i32 {
        match values.binary_search(&value) {
            Ok(_) => value,
            Err(pos) => {
                let hi = values.get(pos).copied();
                let lo = if pos > 0 { Some(values[pos - 1]) } else { None };
                match (lo, hi) {
                    (Some(lo), Some(hi)) => {
                        let dl = i64::from(value) - i64::from(lo);
                        let dh = i64::from(hi) - i64::from(value);
                        if dl < dh {
                            lo
                        } else if dh < dl {
                            hi
                        } else if lo.unsigned_abs() <= hi.unsigned_abs() {
                            lo
                        } else {
                            hi
                        }
                    }
                    (Some(lo), None) => lo,
                    (None, Some(hi)) => hi,
                    (None, None) => 0,
                }
            }
        }
    }

    #[test]
    fn lookup_equals_the_binary_search_for_every_value() {
        for width in OperandWidth::all() {
            for threshold in 0..=MAX_THRESHOLD {
                let t = QueryTable::for_width(width, threshold).unwrap();
                let (min, max) = (width.min_value(), width.max_value());
                let outside = [i32::MIN, min - 1, max + 1, i32::MAX];
                for v in (min..=max).chain(outside) {
                    assert_eq!(
                        t.nearest(v),
                        binary_search_nearest(t.values(), v),
                        "{width} threshold {threshold} value {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn nearest_ties_prefer_smaller_magnitude() {
        let t = QueryTable::for_width(OperandWidth::Int8, 1).unwrap();
        // 3 is equidistant from 2 and 4; expect 2.
        assert_eq!(t.nearest(3), 2);
        assert_eq!(t.nearest(-3), -2);
    }

    #[test]
    fn exact_values_are_preserved() {
        let t = QueryTable::for_width(OperandWidth::Int8, 2).unwrap();
        for &v in t.values() {
            assert_eq!(t.nearest(v), v);
        }
    }

    #[test]
    fn worst_case_error_shrinks_with_threshold() {
        let e0 = QueryTable::for_width(OperandWidth::Int8, 0).unwrap().worst_case_error();
        let e1 = QueryTable::for_width(OperandWidth::Int8, 1).unwrap().worst_case_error();
        let e2 = QueryTable::for_width(OperandWidth::Int8, 2).unwrap().worst_case_error();
        assert!(e0 > e1 && e1 > e2, "{e0} {e1} {e2}");
        assert_eq!(e0, 128);
        // The largest gap in T(2) sits between 96 = 128-32 and 112 = 128-16.
        assert!(e2 <= 8, "phi=2 worst case error {e2}");
    }

    #[test]
    fn worst_case_error_scales_with_width() {
        let mut previous = 0u32;
        for width in OperandWidth::all() {
            let e = QueryTable::for_width(width, 2).unwrap().worst_case_error();
            assert!(e >= previous, "{width}: {e} < {previous}");
            previous = e;
        }
        // INT4: every value within [-8, 7] uses at most two digits.
        assert_eq!(QueryTable::for_width(OperandWidth::Int4, 2).unwrap().worst_case_error(), 0);
    }

    #[test]
    fn invalid_threshold_is_rejected() {
        assert!(QueryTable::for_width(OperandWidth::Int8, 3).is_err());
        let tables = QueryTables::for_width(OperandWidth::Int8);
        assert!(tables.table(3).is_err());
        assert_eq!(tables.table(1).unwrap().threshold(), 1);
        assert_eq!(QueryTables::for_width(OperandWidth::Int16).width(), OperandWidth::Int16);
    }
}
